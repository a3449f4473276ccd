//! Process-level tests for the streaming ingest path (ISSUE 9 /
//! DESIGN.md §14): `qgx dump` → `qgx ingest` → `qgx compact` →
//! `qgx serve/replay --segstore`.
//!
//! The headline contracts:
//!
//! * a corpus ingested **incrementally** (two dump slices, small
//!   batches) and then compacted replays byte-identically to a
//!   from-scratch in-memory build — in process and across a
//!   `--shard-procs` fleet;
//! * a live `qgx serve --segstore` hot-swaps onto a newly published
//!   generation between queries — answers keep flowing before, during,
//!   and after the swap, and the server drains cleanly.

#[cfg(unix)]
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const QGX: &str = env!("CARGO_BIN_EXE_qgx");

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qgx-segstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run qgx to completion with `args`, returning (status, stdout, stderr).
fn run(args: &[&str]) -> (std::process::ExitStatus, String, String) {
    let output = Command::new(QGX)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("qgx runs");
    (
        output.status,
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn run_ok(args: &[&str]) -> (String, String) {
    let (status, stdout, stderr) = run(args);
    assert!(status.success(), "qgx {args:?} failed: {stderr}");
    (stdout, stderr)
}

/// Dump the tiny tier in two slices and ingest both into `store`,
/// 16 docs per segment. Returns the slice boundary.
fn ingest_tiny_in_two_slices(dir: &std::path::Path, store: &str) -> usize {
    let dump_a = dir.join("dump-a.xml");
    let dump_b = dir.join("dump-b.xml");
    let a = dump_a.to_str().expect("utf-8 path");
    let b = dump_b.to_str().expect("utf-8 path");
    run_ok(&["dump", "--tiny", "--out", a, "--docs", "40"]);
    run_ok(&["dump", "--tiny", "--out", b, "--skip", "40"]);
    run_ok(&[
        "ingest",
        "--tiny",
        "--dump",
        a,
        "--segstore",
        store,
        "--batch-docs",
        "16",
    ]);
    run_ok(&[
        "ingest",
        "--tiny",
        "--dump",
        b,
        "--segstore",
        store,
        "--batch-docs",
        "16",
    ]);
    40
}

#[test]
fn incremental_ingest_then_compaction_replays_byte_identically() {
    let dir = scratch("identity");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 path");
    ingest_tiny_in_two_slices(&dir, store);
    let (_, stderr) = run_ok(&["compact", "--tiny", "--segstore", store, "--shards", "4"]);
    assert!(
        stderr.contains("→ 4 segment(s)"),
        "compaction must report its merge: {stderr}"
    );

    let workload = [
        "replay",
        "--tiny",
        "--seed-queries",
        "--json",
        "--top-k",
        "5",
    ];
    let (rebuilt, _) = run_ok(&workload);
    assert!(rebuilt.contains("\"hits\""), "workload must retrieve");

    let mut via_store = workload.to_vec();
    via_store.extend(["--segstore", store]);
    let (incremental, stderr) = run_ok(&via_store);
    assert_eq!(
        incremental, rebuilt,
        "segstore replay must be byte-identical to a from-scratch build: {stderr}"
    );

    // The same store behind a supervised fleet: one `qgx shard
    // --segstore --seq` child per compacted segment.
    let mut via_fleet = via_store.clone();
    via_fleet.extend(["--shard-procs", "4"]);
    let (fleet, stderr) = run_ok(&via_fleet);
    assert_eq!(
        fleet, rebuilt,
        "segstore shard processes must be byte-identical too: {stderr}"
    );
    for slot in 0..4 {
        assert!(
            stderr.contains(&format!("shard {slot} pid")),
            "missing boot line for fleet slot {slot}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segstore_flag_hygiene() {
    // `shard --segstore` needs the segment's sequence number.
    let (status, _, stderr) = run(&[
        "shard",
        "--segstore",
        "/nonexistent",
        "--shard",
        "0",
        "--fingerprint",
        "deadbeefdeadbeef",
    ]);
    assert_eq!(status.code(), Some(2));
    assert!(stderr.contains("requires --seq"), "stderr: {stderr}");

    // `--segstore` is its own index source.
    let (status, _, stderr) = run(&[
        "replay",
        "--tiny",
        "--segstore",
        "/nonexistent",
        "--index-cache",
        "/tmp/x",
        "--seed-queries",
    ]);
    assert_eq!(status.code(), Some(2));
    assert!(stderr.contains("its own index source"), "stderr: {stderr}");

    // Serving an empty store is a typed refusal, not a panic.
    let dir = scratch("empty");
    let store = dir.to_str().expect("utf-8 path");
    let (status, _, stderr) = run(&["replay", "--tiny", "--segstore", store, "--seed-queries"]);
    assert_eq!(status.code(), Some(1));
    assert!(stderr.contains("never published"), "stderr: {stderr}");

    // A fleet width that disagrees with the live segment count is
    // refused with the fix spelled out.
    let ingested = scratch("width");
    let store = ingested.join("store");
    let store = store.to_str().expect("utf-8 path");
    ingest_tiny_in_two_slices(&ingested, store);
    let (status, _, stderr) = run(&[
        "replay",
        "--tiny",
        "--segstore",
        store,
        "--seed-queries",
        "--shard-procs",
        "2",
    ]);
    assert_eq!(status.code(), Some(2));
    assert!(
        stderr.contains("qgx compact --shards 2"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ingested);
}

/// Publish a generation that lists no segments over `store` — bytes
/// the store's own API can leave behind (checksum-valid, well-formed),
/// which no engine can serve.
fn publish_empty_generation(store: &str) {
    let fingerprint = querygraph_core::cache::config_fingerprint(
        &querygraph_core::experiment::ExperimentConfig::tiny(),
    );
    querygraph_retrieval::segstore::SegStore::open(std::path::Path::new(store), fingerprint)
        .expect("open the store")
        .replace_segments(&[])
        .expect("publish the empty generation");
}

#[test]
fn empty_generation_is_a_typed_boot_refusal() {
    let dir = scratch("empty-generation");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 path");
    ingest_tiny_in_two_slices(&dir, store);
    publish_empty_generation(store);
    let (status, _, stderr) = run(&["replay", "--tiny", "--segstore", store, "--seed-queries"]);
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("lists no segments"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The watcher — in-process and fleet mode alike — must outlive a
/// generation it cannot serve and a manifest it cannot read: log each
/// once, keep the old generation answering.
#[cfg(unix)]
#[test]
fn watcher_keeps_the_old_generation_when_the_new_one_is_unservable() {
    for fleet in [false, true] {
        let dir = scratch(if fleet {
            "unservable-fleet"
        } else {
            "unservable"
        });
        let store_path = dir.join("store");
        let store = store_path.to_str().expect("utf-8 path");
        let dump = dir.join("dump.xml");
        let dump = dump.to_str().expect("utf-8 path");
        run_ok(&["dump", "--tiny", "--out", dump, "--docs", "40"]);
        run_ok(&[
            "ingest",
            "--tiny",
            "--dump",
            dump,
            "--segstore",
            store,
            "--batch-docs",
            "16",
        ]);
        let mut args = vec![
            "serve",
            "--tiny",
            "--segstore",
            store,
            "--listen",
            "127.0.0.1:0",
            "--top-k",
            "5",
            "--deadline-ms",
            "10000",
        ];
        if fleet {
            args.extend(["--shard-procs", "3"]);
        }
        let mut serve = Command::new(QGX)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn qgx serve");
        let mut reader = BufReader::new(serve.stderr.take().expect("piped stderr"));
        let mut log = String::new();
        let mut wait_for = |needle: &str| -> String {
            for _ in 0..64 {
                let mut line = String::new();
                if reader.read_line(&mut line).expect("read serve stderr") == 0 {
                    break;
                }
                log.push_str(&line);
                if line.contains(needle) {
                    return line;
                }
            }
            panic!("serve never logged {needle:?} (fleet mode: {fleet})");
        };
        let listening = wait_for("# qgx: listening on ");
        let http_addr = listening
            .trim_start_matches("# qgx: listening on ")
            .split_whitespace()
            .next()
            .expect("address")
            .to_string();

        // The old generation keeps answering — and the watcher keeps
        // ticking — through a client pass.
        let client_pass = || {
            let (stdout, _) = run_ok(&[
                "client",
                "--connect",
                &http_addr,
                "--seed-queries",
                "--tiny",
                "--top-k",
                "5",
                "--timeout-ms",
                "15000",
            ]);
            assert!(stdout.contains("\"hits\""), "old generation gone: {stdout}");
            assert!(!stdout.contains("artifact_shard"), "{stdout}");
        };
        publish_empty_generation(store);
        let refusal = wait_for("still serving the previous one");
        assert!(refusal.contains("lists no segments"), "{refusal}");
        client_pass();
        // A manifest that stops reading is reported too.
        std::fs::write(store_path.join("segstore.qgss"), b"torn").expect("tear the manifest");
        wait_for("# qgx: segstore watch: ");
        client_pass();

        let term = Command::new("kill")
            .args(["-TERM", &serve.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(term.success());
        let status = serve.wait().expect("serve exits");
        let mut rest = String::new();
        reader
            .read_to_string(&mut rest)
            .expect("drain serve stderr");
        assert!(status.success(), "serve must exit 0 after SIGTERM: {rest}");
        assert!(!rest.contains("panicked"), "{rest}");
        // The watcher kept ticking through the client pass, but an
        // unservable generation is refused once, and an unreadable
        // manifest reported once, not on every tick.
        log.push_str(&rest);
        for needle in ["still serving the previous one", "# qgx: segstore watch: "] {
            assert_eq!(
                log.matches(needle).count(),
                1,
                "{needle:?} (fleet mode: {fleet}); stderr:\n{log}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A server that is killed and reaped if the test fails before it
/// shuts it down.
#[cfg(unix)]
struct Reaped(std::process::Child);

#[cfg(unix)]
impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// An `--index-cache <d>` server follows its cache entry's store like
/// any `--segstore` server, at the default width 1 (`index-<fp>-s1`) as
/// at `--shards n`: a `qgx compact` of that store to another width is
/// picked up live, and the answers stay byte-identical across it.
#[cfg(unix)]
#[test]
fn index_cache_server_follows_its_store_through_a_compaction() {
    for (shards, width, compact_to) in [(Some("2"), 2, "1"), (None, 1, "2")] {
        let dir = scratch(&format!("cache-follows-s{width}"));
        let cache = dir.to_str().expect("utf-8 path");
        let mut args = vec![
            "serve",
            "--tiny",
            "--index-cache",
            cache,
            "--listen",
            "127.0.0.1:0",
            "--top-k",
            "5",
            "--deadline-ms",
            "10000",
        ];
        if let Some(n) = shards {
            args.extend(["--shards", n]);
        }
        let serve = Command::new(QGX)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn qgx serve");
        let mut serve = Reaped(serve);
        // Lines arrive over a channel so a server that never logs what
        // we wait for fails the test instead of hanging it.
        let (lines, stderr) = std::sync::mpsc::channel();
        let reader = BufReader::new(serve.0.stderr.take().expect("piped stderr"));
        let forwarder = std::thread::spawn(move || {
            for line in reader.lines().map_while(Result::ok) {
                let _ = lines.send(line);
            }
        });
        let wait_for = |needle: &str| -> String {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
                match stderr.recv_timeout(left) {
                    Ok(line) if line.contains(needle) => return line,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            panic!("serve (store width {width}) never logged {needle:?}");
        };
        let http_addr = wait_for("# qgx: listening on ")
            .trim_start_matches("# qgx: listening on ")
            .split_whitespace()
            .next()
            .expect("address")
            .to_string();
        let workload = [
            "client",
            "--connect",
            &http_addr,
            "--seed-queries",
            "--tiny",
            "--top-k",
            "5",
            "--timeout-ms",
            "15000",
        ];
        let (before, _) = run_ok(&workload);
        assert!(before.contains("\"hits\""), "no retrieval served: {before}");

        let store = querygraph_core::cache::store_dir(
            &dir,
            &querygraph_core::experiment::ExperimentConfig::tiny(),
            width,
        );
        let store = store.to_str().expect("utf-8 path");
        run_ok(&[
            "compact",
            "--tiny",
            "--segstore",
            store,
            "--shards",
            compact_to,
        ]);
        let swapped = wait_for("serving generation");
        assert!(
            swapped.contains(&format!("{compact_to} segment(s)")),
            "{swapped}"
        );
        let (after, _) = run_ok(&workload);
        assert_eq!(
            after, before,
            "the compacted generation must answer identically (store width {width})"
        );

        let term = Command::new("kill")
            .args(["-TERM", &serve.0.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(term.success());
        let status = serve.0.wait().expect("serve exits");
        forwarder.join().expect("stderr forwarder");
        assert!(status.success(), "serve must exit 0 after SIGTERM");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(unix)]
#[test]
fn serve_hot_swaps_onto_a_new_generation_without_dropping_requests() {
    let dir = scratch("hotswap");
    let store_path = dir.join("store");
    let store = store_path.to_str().expect("utf-8 path");
    let dump_a = dir.join("dump-a.xml");
    let dump_b = dir.join("dump-b.xml");
    let a = dump_a.to_str().expect("utf-8 path");
    let b = dump_b.to_str().expect("utf-8 path");
    run_ok(&["dump", "--tiny", "--out", a, "--docs", "40"]);
    run_ok(&["dump", "--tiny", "--out", b, "--skip", "40"]);
    run_ok(&[
        "ingest",
        "--tiny",
        "--dump",
        a,
        "--segstore",
        store,
        "--batch-docs",
        "16",
    ]);

    let mut serve = Command::new(QGX)
        .args([
            "serve",
            "--tiny",
            "--segstore",
            store,
            "--listen",
            "127.0.0.1:0",
            "--top-k",
            "5",
            "--deadline-ms",
            "10000",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qgx serve");
    let mut reader = BufReader::new(serve.stderr.take().expect("piped stderr"));
    let mut http_addr = None;
    for _ in 0..64 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read serve stderr") == 0 {
            break;
        }
        if let Some(rest) = line.strip_prefix("# qgx: listening on ") {
            http_addr = rest.split_whitespace().next().map(str::to_string);
            break;
        }
    }
    let http_addr = http_addr.expect("serve announced its HTTP address");

    // The boot generation answers.
    let (stdout, _) = run_ok(&[
        "client",
        "--connect",
        &http_addr,
        "--seed-queries",
        "--tiny",
        "--top-k",
        "5",
        "--timeout-ms",
        "15000",
    ]);
    assert!(stdout.contains("\"hits\""), "no retrieval served: {stdout}");

    // Publish the rest of the corpus and compact — the watcher must
    // hot-swap the serving engine onto the new generation.
    run_ok(&[
        "ingest",
        "--tiny",
        "--dump",
        b,
        "--segstore",
        store,
        "--batch-docs",
        "16",
        "--compact",
        "2",
    ]);
    // The watcher may swap through some of the intermediate commits on
    // its way to the full corpus: each such swap is onto a newer
    // generation than the last, over fewer documents.
    let mut swapped = false;
    let mut last_generation = 0;
    for _ in 0..64 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read serve stderr") == 0 {
            break;
        }
        let Some(rest) = line.split("serving generation ").nth(1) else {
            continue;
        };
        let number = |text: &str| -> u64 {
            let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("a number")
        };
        let generation = number(rest);
        let docs = number(rest.split(" (").nth(1).expect("a doc count"));
        assert!(generation > last_generation, "swapped backwards: {line}");
        last_generation = generation;
        if docs == 96 {
            swapped = true;
            break;
        }
        assert!(docs < 96, "more documents than the corpus holds: {line}");
    }
    assert!(swapped, "the watcher never swapped onto the full corpus");

    // The swapped generation answers the same endpoint — no restart,
    // no dropped requests, and now over the full document set: the
    // answers are byte-identical to a from-scratch build of the whole
    // tier served fresh.
    let workload = [
        "client",
        "--connect",
        &http_addr,
        "--seed-queries",
        "--tiny",
        "--top-k",
        "5",
        "--timeout-ms",
        "15000",
    ];
    let (after, _) = run_ok(&workload);
    assert!(after.contains("\"hits\""), "no retrieval served: {after}");
    assert!(
        !after.contains("artifact_shard"),
        "swap broke the engine: {after}"
    );

    let term = Command::new("kill")
        .args(["-TERM", &serve.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let status = serve.wait().expect("serve exits");
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("drain serve stderr");
    assert!(status.success(), "serve must exit 0 after SIGTERM: {rest}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live server's segment reuse, through the library loader it uses:
/// every generation a multi-commit ingest and a compaction publish,
/// loaded over the segments the previous one held, answers the tier's
/// seed queries byte-identically to a fresh load of the same manifest —
/// while a commit reads only its own segment and a compaction leaves
/// exactly the live segments held.
#[test]
fn held_segments_answer_every_generation_like_a_fresh_load() {
    use querygraph_core::service::{ExpansionRequest, QueryExpander};
    use querygraph_retrieval::backend::AnyEngine;
    use querygraph_retrieval::lm::LmParams;
    use querygraph_retrieval::ondisk::ArtifactSource;
    use querygraph_retrieval::segstore::{self, HeldSegments};

    let dir = scratch("held-reuse");
    let store_path = dir.join("store");
    let store = store_path.to_str().expect("utf-8 path");
    let config = querygraph_core::experiment::ExperimentConfig::tiny();
    let fingerprint = querygraph_core::cache::config_fingerprint(&config);
    let wiki = querygraph_wiki::synth::generate(&config.wiki);
    let corpus = querygraph_corpus::synth::generate_corpus(&wiki, &config.corpus);
    let answers = |engine: &AnyEngine| -> Vec<String> {
        let expander = QueryExpander::builder()
            .retrieve_top(5)
            .build(&wiki.kb, engine);
        corpus
            .queries
            .queries
            .iter()
            .map(
                |q| match expander.expand(&ExpansionRequest::new(q.keywords.as_str())) {
                    Ok(response) => serde_json::to_string(&response).expect("serializes"),
                    Err(e) => format!("error: {e:?}"),
                },
            )
            .collect()
    };
    let mut held = HeldSegments::default();
    // Load the store's current generation over `held`; check it against
    // a fresh load and return (loaded, reused).
    let mut swap_in = || -> (usize, usize) {
        let manifest = segstore::read_manifest(&store_path, fingerprint)
            .expect("reads")
            .expect("published");
        let shared = held
            .load(&store_path, &manifest, LmParams::default())
            .expect("loads");
        let fresh = segstore::load_generation(&store_path, fingerprint, ArtifactSource::Read)
            .expect("loads")
            .expect("published");
        assert_eq!(fresh.manifest, manifest);
        let lm = LmParams::default();
        let fresh = AnyEngine::from_shards(fresh.into_engines(lm), lm);
        let got = answers(&shared.engine);
        assert!(got.iter().any(|a| a.contains("\"score\"")), "{got:?}");
        assert_eq!(
            got,
            answers(&fresh),
            "generation {} answers differently over held segments",
            manifest.generation
        );
        let live: Vec<u64> = manifest.segments.iter().map(|s| s.seq).collect();
        assert_eq!(held.seqs(), live, "exactly the live segments are held");
        (shared.loaded, shared.reused)
    };

    let ingest = |skip: &str, docs: &str| {
        let dump = dir.join(format!("dump-{skip}.xml"));
        let dump = dump.to_str().expect("utf-8 path");
        let mut args = vec!["dump", "--tiny", "--out", dump, "--skip", skip];
        if !docs.is_empty() {
            args.extend(["--docs", docs]);
        }
        run_ok(&args);
        run_ok(&[
            "ingest",
            "--tiny",
            "--dump",
            dump,
            "--segstore",
            store,
            "--batch-docs",
            "16",
        ]);
    };
    // One commit per ingest: each new generation reads one segment.
    ingest("0", "16");
    assert_eq!(swap_in(), (1, 0), "the first generation loads everything");
    ingest("16", "16");
    assert_eq!(swap_in(), (1, 1));
    ingest("32", "16");
    assert_eq!(swap_in(), (1, 2));
    // Three commits between two loads: only their segments are read.
    ingest("48", "");
    assert_eq!(swap_in(), (3, 3));
    // A compaction replaces every segment.
    run_ok(&["compact", "--tiny", "--segstore", store, "--shards", "2"]);
    assert_eq!(swap_in(), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store dropped and ingested again under the same seqs holds other
/// documents: the segments held from the first one must not be reused.
#[test]
fn a_recreated_store_is_loaded_fresh_not_reused() {
    use querygraph_retrieval::lm::LmParams;
    use querygraph_retrieval::ondisk::ArtifactSource;
    use querygraph_retrieval::query_lang::parse;
    use querygraph_retrieval::segstore::{self, HeldSegments};

    let dir = scratch("held-recreated");
    let store_path = dir.join("store");
    let store = store_path.to_str().expect("utf-8 path");
    let fingerprint = querygraph_core::cache::config_fingerprint(
        &querygraph_core::experiment::ExperimentConfig::tiny(),
    );
    let mut held = HeldSegments::default();
    let mut generations = Vec::new();
    for skip in ["0", "40"] {
        let _ = std::fs::remove_dir_all(&store_path);
        let dump = dir.join(format!("dump-{skip}.xml"));
        let dump = dump.to_str().expect("utf-8 path");
        run_ok(&[
            "dump", "--tiny", "--out", dump, "--skip", skip, "--docs", "40",
        ]);
        run_ok(&[
            "ingest",
            "--tiny",
            "--dump",
            dump,
            "--segstore",
            store,
            "--batch-docs",
            "16",
        ]);
        let manifest = segstore::read_manifest(&store_path, fingerprint)
            .expect("reads")
            .expect("published");
        let shared = held
            .load(&store_path, &manifest, LmParams::default())
            .expect("loads");
        let fresh = segstore::load_generation(&store_path, fingerprint, ArtifactSource::Read)
            .expect("loads")
            .expect("published")
            .into_engine(LmParams::default());
        for word in ["the", "canal", "#combine(river mountain)"] {
            let q = parse(word).expect("parses");
            assert_eq!(shared.engine.search(&q, 10), fresh.search(&q, 10), "{word}");
        }
        generations.push((manifest, shared.loaded, shared.reused));
    }
    let (first, second) = (&generations[0], &generations[1]);
    let seqs = |m: &segstore::Manifest| m.segments.iter().map(|s| s.seq).collect::<Vec<_>>();
    assert_eq!(
        seqs(&first.0),
        seqs(&second.0),
        "the same seqs name both stores"
    );
    assert_eq!(first.0.generation, second.0.generation);
    assert_eq!((second.1, second.2), (3, 0), "nothing is reused");
    let _ = std::fs::remove_dir_all(&dir);
}
