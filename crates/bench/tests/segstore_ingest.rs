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
/// generation it cannot serve: log it, keep the old one answering.
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
        let mut wait_for = |needle: &str| -> String {
            for _ in 0..64 {
                let mut line = String::new();
                if reader.read_line(&mut line).expect("read serve stderr") == 0 {
                    break;
                }
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

        publish_empty_generation(store);
        let refusal = wait_for("still serving the previous one");
        assert!(refusal.contains("lists no segments"), "{refusal}");

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
    let mut swapped = false;
    for _ in 0..64 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read serve stderr") == 0 {
            break;
        }
        if line.contains("serving generation") {
            assert!(
                line.contains("96 docs"),
                "the swap must land on the full corpus: {line}"
            );
            swapped = true;
            break;
        }
    }
    assert!(swapped, "the watcher never swapped onto the new generation");

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
