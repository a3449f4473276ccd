//! `qgx` — the query-expansion server, now with a socket.
//!
//! Seven subcommands over one world-boot path:
//!
//! ```text
//! qgx serve   --listen <addr>  [world flags] [--workers n] [--queue n]
//!             [--deadline-ms n] [--keep-alive n] [--shard-procs n]
//!             [--bench-out path]
//! qgx replay  [world flags] [--queries f | --seed-queries] [--repeat n]
//!             [--zipf s] [--threads n] [--deadline-ms n] [--json]
//!             [--shard-procs n] [--bench-out path]
//! qgx client  --connect <addr> [--healthz | --statz | --flood n |
//!             --query text | --queries f | --seed-queries [tier flags]]
//!             [--repeat n] [--top-k k] [--max-features n] [--timeout-ms n]
//! qgx shard   --segstore <dir> --seq <s> --shard <i> --fingerprint <fp>
//!             [--listen <addr>] [--mmap]
//! qgx dump    --out <path> [tier flags] [--skip n] [--docs n]
//! qgx ingest  --dump <path> --segstore <dir> [tier flags]
//!             [--batch-docs n] [--compact n] [--bench-out path]
//! qgx compact --segstore <dir> [tier flags] [--shards n]
//!             [--bench-out path]
//! ```
//!
//! * `serve` binds the `core::http` HTTP/1.1 front-end over the loaded
//!   world: `POST /expand`, `GET /healthz`, `GET /statz`, per-request
//!   deadlines starting at accept, a bounded connection queue with
//!   503 + `Retry-After` shedding, and SIGTERM/SIGINT draining
//!   in-flight queries before exit. `--bench-out` writes a
//!   `ServeRecord` (listen address, shed/timeout counters, per-code
//!   failures, per-connection p99) after the drain.
//! * `replay` serves a stdin, file, or seed workload **in process**
//!   and reports latency percentiles and QPS. `--deadline-ms` applies
//!   the same typed per-request deadline path the server uses; `--json`
//!   emits one response JSON object per line — byte-identical to the
//!   corresponding `/expand` response bodies, which is what the
//!   `http-smoke` CI job `cmp`s.
//! * `client` drives a running `qgx serve` over `std::net`: health and
//!   stats probes, single queries, file/seed workloads (response
//!   bodies stream to stdout exactly as received), and `--flood n` —
//!   n concurrent one-shot connections for forced-overload tests
//!   (every response must still be clean, typed HTTP).
//!
//! * `shard` serves **one** segment-store segment (`--segstore <dir>
//!   --seq <s>`) as a standalone process over the QGRP binary RPC
//!   protocol (DESIGN.md §13): it loads the segment, verifies the
//!   embedded seq-keyed fingerprint, announces its bound address on
//!   stdout (`QGRP listening <addr>`), and drains on stdin EOF,
//!   SIGTERM/SIGINT, or a `Shutdown` frame. `serve --shard-procs N` and
//!   `replay --shard-procs N` supervise N of these children — over a
//!   `--segstore` directory or over the store an `--index-cache
//!   --shards N` boot keeps in its cache — and scatter-gather across
//!   them through `retrieval::remote::RemoteEngine`, byte-identical to
//!   the in-process engine over the same segments.
//!
//! * `dump` / `ingest` / `compact` are the streaming build path
//!   (DESIGN.md §14): `dump` writes a tier's corpus as an XML dump
//!   (optionally a `--skip/--docs` slice, so a dump can arrive in
//!   batches); `ingest` streams a dump through
//!   `corpus::ingest::DumpStream` in bounded memory, freezing every
//!   `--batch-docs` documents into one `QGIX` segment of a `QGSS`
//!   segment store; `compact` merges the live segments into `--shards`
//!   balanced ones. `serve --segstore <dir>` and `replay --segstore`
//!   serve the store's current generation and (serve only)
//!   watch the manifest, hot-swapping the engine onto each newly
//!   published generation with zero downtime.
//!
//! Load against a live server is measured by the repo benchmark
//! (`bash benchmark/run.sh`, open loop, oracle-checked); `client
//! --queries/--repeat/--flood` is the operator's tool against a
//! `--connect` address.
//!
//! World flags (shared by `serve` and `replay`): `--tiny | --quick |
//! --stress [--quick]`, `--index-cache <dir>`, `--shards <n>`,
//! `--shard-threads <n>`, `--mmap`, `--strategy
//! cycles|links|redirects|none`, `--max-features <n>`, `--top-k <k>`,
//! `--prune`, `--expansion-cache <n>`.

use querygraph_bench::{
    flag_f64, flag_operand, flag_usize, CliOptions, IngestRecord, IngestSummary, LatencySummary,
    ServeRecord, ServeSummary, ZipfSampler,
};
use querygraph_core::expcache::ExpansionCache;
use querygraph_core::http::{self, HttpServer, ServerConfig};
use querygraph_core::service::{
    Deadline, ExpansionRequest, ExpansionResponse, ExpansionStrategy, QueryExpander,
    QueryExpanderBuilder, ServiceError, ServingWorld,
};
use querygraph_retrieval::engine::SearchMode;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flags selecting and tuning the served world, shared by `serve` and
/// `replay` (each subcommand adds its own on top).
const WORLD_FLAGS: [(&str, bool); 13] = [
    ("--tiny", false),
    ("--quick", false),
    ("--stress", false),
    ("--track", false),
    ("--index-cache", true),
    ("--segstore", true),
    ("--shards", true),
    ("--shard-threads", true),
    ("--mmap", false),
    ("--strategy", true),
    ("--max-features", true),
    ("--top-k", true),
    ("--prune", false),
];

const REPLAY_FLAGS: [(&str, bool); 10] = [
    ("--queries", true),
    ("--seed-queries", false),
    ("--repeat", true),
    ("--zipf", true),
    ("--threads", true),
    ("--deadline-ms", true),
    ("--expansion-cache", true),
    ("--json", false),
    ("--shard-procs", true),
    ("--bench-out", true),
];

const SERVE_FLAGS: [(&str, bool); 8] = [
    ("--listen", true),
    ("--workers", true),
    ("--queue", true),
    ("--deadline-ms", true),
    ("--keep-alive", true),
    ("--expansion-cache", true),
    ("--shard-procs", true),
    ("--bench-out", true),
];

const SHARD_FLAGS: [(&str, bool); 6] = [
    ("--segstore", true),
    ("--seq", true),
    ("--shard", true),
    ("--fingerprint", true),
    ("--listen", true),
    ("--mmap", false),
];

const DUMP_FLAGS: [(&str, bool); 7] = [
    ("--tiny", false),
    ("--quick", false),
    ("--stress", false),
    ("--track", false),
    ("--out", true),
    ("--skip", true),
    ("--docs", true),
];

const INGEST_FLAGS: [(&str, bool); 9] = [
    ("--tiny", false),
    ("--quick", false),
    ("--stress", false),
    ("--track", false),
    ("--dump", true),
    ("--segstore", true),
    ("--batch-docs", true),
    ("--compact", true),
    ("--bench-out", true),
];

const COMPACT_FLAGS: [(&str, bool); 8] = [
    ("--tiny", false),
    ("--quick", false),
    ("--stress", false),
    ("--track", false),
    ("--segstore", true),
    ("--shards", true),
    ("--mmap", false),
    ("--bench-out", true),
];

const CLIENT_FLAGS: [(&str, bool); 15] = [
    ("--connect", true),
    ("--timeout-ms", true),
    ("--healthz", false),
    ("--statz", false),
    ("--flood", true),
    ("--query", true),
    ("--queries", true),
    ("--seed-queries", false),
    ("--repeat", true),
    ("--top-k", true),
    ("--max-features", true),
    ("--tiny", false),
    ("--quick", false),
    ("--stress", false),
    ("--track", false),
];

/// Reject unrecognized `--flags` (operand values are skipped) — a
/// typo'd flag must not silently fall back to a different workload
/// (e.g. blocking on stdin in CI).
fn reject_unknown_flags(args: &[String], known: &[(&str, bool)], mode: &str) {
    let mut i = 1; // skip argv[0]
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with("--") {
            match known.iter().find(|(name, _)| name == arg) {
                Some((_, takes_operand)) => i += 1 + usize::from(*takes_operand),
                None => {
                    eprintln!(
                        "error: unknown flag {arg} for qgx {mode} (known: {})",
                        known.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
                    );
                    std::process::exit(2);
                }
            }
        } else {
            eprintln!("error: unexpected argument {arg:?}");
            std::process::exit(2);
        }
    }
}

const SUBCOMMANDS: &str = "serve | replay | client | shard | dump | ingest | compact";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => run_serve(&without_subcommand(&args)),
        Some("replay") => run_replay(&without_subcommand(&args)),
        Some("client") => run_client(&without_subcommand(&args)),
        Some("shard") => run_shard(&without_subcommand(&args)),
        Some("dump") => run_dump(&without_subcommand(&args)),
        Some("ingest") => run_ingest(&without_subcommand(&args)),
        Some("compact") => run_compact(&without_subcommand(&args)),
        Some(other) if !other.starts_with("--") => {
            eprintln!("error: unknown subcommand {other:?} ({SUBCOMMANDS})");
            std::process::exit(2);
        }
        _ => {
            eprintln!("error: qgx needs a subcommand ({SUBCOMMANDS})");
            std::process::exit(2);
        }
    }
}

/// Drop `argv[1]` (the subcommand) so flag parsing sees only flags.
fn without_subcommand(args: &[String]) -> Vec<String> {
    let mut out = vec![args[0].clone()];
    out.extend_from_slice(&args[2..]);
    out
}

/// The expander knobs shared by `serve` and `replay`.
struct ExpanderOptions {
    strategy: ExpansionStrategy,
    max_features: Option<usize>,
    top_k: usize,
    shard_threads: usize,
    prune: bool,
    expansion_cache: Option<usize>,
}

impl ExpanderOptions {
    fn from_args(args: &[String]) -> ExpanderOptions {
        let strategy = match flag_operand(args, "--strategy") {
            None => ExpansionStrategy::default(),
            Some(name) => ExpansionStrategy::parse(&name).unwrap_or_else(|| {
                eprintln!("error: unknown --strategy {name:?} (cycles|links|redirects|none)");
                std::process::exit(2);
            }),
        };
        ExpanderOptions {
            strategy,
            max_features: flag_usize(args, "--max-features"),
            top_k: flag_usize(args, "--top-k").unwrap_or(0),
            shard_threads: flag_usize(args, "--shard-threads").unwrap_or(1).max(1),
            prune: args.iter().any(|a| a == "--prune"),
            expansion_cache: flag_usize(args, "--expansion-cache"),
        }
    }

    fn search_mode(&self) -> SearchMode {
        if self.prune {
            SearchMode::Pruned
        } else {
            SearchMode::Exact
        }
    }

    /// The builder these knobs select (cache attached separately so
    /// the caller keeps a counter handle).
    fn builder(&self, cache: &Option<Arc<ExpansionCache>>) -> QueryExpanderBuilder {
        let mut builder = QueryExpander::builder()
            .strategy(self.strategy.clone())
            .search_mode(self.search_mode());
        if let Some(max) = self.max_features {
            builder = builder.max_features(max);
        }
        if self.top_k > 0 {
            builder = builder.retrieve_top(self.top_k);
        }
        if let Some(cache) = cache {
            builder = builder.expansion_cache(cache.clone());
        }
        builder
    }
}

/// Boot the world once (synthesize or load), wire shard scatter, and
/// report provenance on stderr. Returns the effective per-query shard
/// scatter width alongside.
fn boot_world(
    cli: &CliOptions,
    ex: &ExpanderOptions,
    want_seed_corpus: bool,
) -> (
    ServingWorld,
    Option<querygraph_corpus::synth::SynthCorpus>,
    usize,
) {
    let config = cli.config();
    let (mut world, seed_corpus) = {
        let (world, corpus) = ServingWorld::open_with_options(
            &config,
            cli.index_cache.as_deref(),
            querygraph_retrieval::lm::LmParams::default(),
            &cli.world_options(),
        );
        (world, want_seed_corpus.then_some(corpus))
    };
    let effective_shard_threads = match &mut world.engine {
        querygraph_retrieval::backend::AnyEngine::Sharded(engine) => {
            engine.set_search_threads(ex.shard_threads);
            ex.shard_threads.min(engine.shards().len()).max(1)
        }
        // `--shards` unset: the monolithic engine. (A shard fleet or a
        // reloadable slot replaces the engine only after boot, and its
        // caller recomputes the scatter width.)
        _ => {
            if ex.shard_threads > 1 {
                eprintln!("# qgx: --shard-threads applies to --shards workloads only");
            }
            1
        }
    };
    eprintln!(
        "# qgx: {} articles, index {} x{} shard(s) (world {:.3}s, build {:.3}s, load {:.3}s); \
         strategy {}, top-k {}, search {}, cache {}",
        world.wiki.kb.num_articles(),
        world.stats.index_source.name(),
        world.stats.shard_count,
        world.stats.world_seconds,
        world.stats.index_build_seconds,
        world.stats.index_load_seconds,
        ex.strategy.name(),
        ex.top_k,
        ex.search_mode().name(),
        ex.expansion_cache
            .map(|n| n.to_string())
            .unwrap_or_else(|| "off".to_string()),
    );
    (world, seed_corpus, effective_shard_threads)
}

fn expansion_cache(ex: &ExpanderOptions) -> Option<Arc<ExpansionCache>> {
    ex.expansion_cache
        .filter(|&n| n > 0)
        .map(|n| Arc::new(ExpansionCache::new(n)))
}

// ------------------------------------------------------ shard processes

/// The supervised children behind `--shard-procs N`: one `qgx shard`
/// process per segment, stdin held open as the drain signal.
struct ShardFleet {
    children: Vec<std::process::Child>,
}

impl ShardFleet {
    /// Shut the fleet down once `engine` — the remote engine fronting
    /// it, or the reloadable slot holding that — is done serving: a
    /// polite QGRP `Shutdown` to every child, then the stdin-EOF drain.
    fn shutdown(self, engine: &querygraph_retrieval::backend::AnyEngine) {
        use querygraph_retrieval::backend::AnyEngine;
        let generation;
        let engine = match engine {
            AnyEngine::Reloadable(slot) => {
                generation = slot.snapshot();
                &generation.engine
            }
            engine => engine,
        };
        if let AnyEngine::Remote(remote) = engine {
            remote.shutdown_all();
        }
        self.drain();
    }

    /// Drain the fleet: close every child's stdin (its shutdown
    /// signal — works even if the QGRP socket is wedged), give them a
    /// shared grace window to exit, then kill stragglers. Always
    /// reaps, so no zombies outlive the supervisor.
    fn drain(mut self) {
        for child in &mut self.children {
            drop(child.stdin.take());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for (shard, child) in self.children.iter_mut().enumerate() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        log_line(&format!("# qgx: shard {shard} exited ({status})"));
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Ok(None) | Err(_) => {
                        eprintln!("# qgx: shard {shard} did not drain in time; killing");
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Log one line to stderr in a single `write` syscall. Supervisor and
/// shard children share the stderr fd; `eprintln!` issues one write
/// per format fragment, so concurrent boot announcements can
/// byte-interleave unless each line goes out whole.
fn log_line(line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = std::io::stderr().write_all(buf.as_bytes());
}

/// Boot-failure cleanup: kill and reap every child spawned so far.
fn kill_children(children: &mut [std::process::Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

// ------------------------------------------------- segment-store serving

/// What `serve`/`replay --segstore <dir>` keep next to the world: the
/// store's identity plus a handle on the hot-swappable engine slot.
struct SegstoreBoot {
    dir: std::path::PathBuf,
    /// The store (= world-configuration) fingerprint.
    fingerprint: u64,
    /// The manifest observed at boot.
    manifest: querygraph_retrieval::segstore::Manifest,
    /// A second handle on the slot `world.engine` reads through; the
    /// watcher thread (and `--shard-procs` boot) swap through this one.
    reloadable: querygraph_retrieval::backend::ReloadableEngine,
}

fn segstore_source(cli: &CliOptions) -> querygraph_retrieval::ondisk::ArtifactSource {
    if cli.mmap {
        querygraph_retrieval::ondisk::ArtifactSource::Mmap
    } else {
        querygraph_retrieval::ondisk::ArtifactSource::Read
    }
}

/// Boot a [`ServingWorld`] from a `QGSS` segment store: synthesize the
/// wiki only (expansion needs the knowledge graph; the corpus text
/// already lives in the segments), load the current generation, and
/// install it behind a `ReloadableEngine` whose cache epoch is the
/// generation fingerprint — so hot swaps invalidate the expansion
/// cache exactly when the document set changes.
fn boot_segstore_world(
    cli: &CliOptions,
    ex: &ExpanderOptions,
    dir: &std::path::Path,
) -> (ServingWorld, SegstoreBoot) {
    use querygraph_retrieval::backend::{AnyEngine, ReloadableEngine};
    use querygraph_retrieval::segstore;

    let config = cli.config();
    if cli.index_cache.is_some() || cli.shards.is_some() {
        eprintln!("error: --segstore is its own index source; drop --index-cache/--shards");
        std::process::exit(2);
    }
    let fingerprint = querygraph_core::cache::config_fingerprint(&config);
    let t_world = Instant::now();
    let wiki = querygraph_wiki::synth::generate(&config.wiki);
    let world_seconds = t_world.elapsed().as_secs_f64();

    let t_load = Instant::now();
    let generation = match segstore::load_generation(dir, fingerprint, segstore_source(cli)) {
        Ok(Some(generation)) => generation,
        Ok(None) => {
            eprintln!(
                "error: segment store {} has never published — run `qgx ingest` first",
                dir.display()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: segment store {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    let manifest = generation.manifest.clone();
    let shard_load_seconds = generation.segment_load_seconds.clone();
    let lm = querygraph_retrieval::lm::LmParams::default();
    let mut engine =
        querygraph_retrieval::sharded::ShardedEngine::from_shards(generation.into_engines(lm), lm);
    engine.set_search_threads(ex.shard_threads);
    let index_load_seconds = t_load.elapsed().as_secs_f64();

    let epoch = manifest.generation_fingerprint();
    let reloadable = ReloadableEngine::new(AnyEngine::Sharded(engine), epoch);
    let stats = querygraph_core::cache::BuildStats {
        world_seconds,
        index_build_seconds: 0.0,
        index_write_seconds: 0.0,
        index_load_seconds,
        index_source: querygraph_core::cache::IndexSource::Loaded,
        shard_count: manifest.segments.len(),
        shard_load_seconds,
    };
    let world = ServingWorld {
        wiki,
        engine: AnyEngine::Reloadable(reloadable.clone()),
        config,
        stats,
    };
    eprintln!(
        "# qgx: {} articles, segstore generation {} ({} docs, {} segment(s)) \
         (world {world_seconds:.3}s, load {index_load_seconds:.3}s); \
         strategy {}, top-k {}, search {}, cache {}",
        world.wiki.kb.num_articles(),
        manifest.generation,
        manifest.total_docs(),
        manifest.segments.len(),
        ex.strategy.name(),
        ex.top_k,
        ex.search_mode().name(),
        ex.expansion_cache
            .map(|n| n.to_string())
            .unwrap_or_else(|| "off".to_string()),
    );
    (
        world,
        SegstoreBoot {
            dir: dir.to_path_buf(),
            fingerprint,
            manifest,
            reloadable,
        },
    )
}

/// Spawn one `qgx shard --segstore --seq` child per live segment of
/// `manifest`, wait for each one's stdout announce line, and connect a
/// `RemoteEngine` across them with seq-keyed fingerprint pinning.
/// Returns an error (after killing any children already spawned)
/// instead of exiting: the live-reload watcher must keep serving the
/// old generation when a new fleet fails to come up.
fn spawn_segstore_fleet(
    dir: &std::path::Path,
    store_fp: u64,
    manifest: &querygraph_retrieval::segstore::Manifest,
    shard_threads: usize,
    mmap: bool,
) -> Result<(ShardFleet, querygraph_retrieval::remote::RemoteEngine), String> {
    use std::process::{Command, Stdio};
    if manifest.segments.is_empty() {
        return Err(format!(
            "generation {} lists no segments",
            manifest.generation
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the qgx binary: {e}"))?;
    let mut children: Vec<std::process::Child> = Vec::with_capacity(manifest.segments.len());
    let mut addrs: Vec<String> = Vec::with_capacity(manifest.segments.len());
    for (slot, seg) in manifest.segments.iter().enumerate() {
        let mut command = Command::new(&exe);
        command
            .arg("shard")
            .arg("--segstore")
            .arg(dir)
            .arg("--seq")
            .arg(seg.seq.to_string())
            .arg("--shard")
            .arg(slot.to_string())
            .arg("--fingerprint")
            .arg(format!("{store_fp:016x}"))
            .arg("--listen")
            .arg("127.0.0.1:0")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if mmap {
            command.arg("--mmap");
        }
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                kill_children(&mut children);
                return Err(format!("cannot spawn segment {}: {e}", seg.seq));
            }
        };
        // The child's first stdout line is its QGRP announce; EOF
        // before that means it died (its stderr is inherited, so the
        // reason is already on ours).
        let stdout = child.stdout.take().expect("piped child stdout");
        let mut line = String::new();
        let read = std::io::BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(len) if len > 0 => querygraph_retrieval::remote::server::parse_announce(line.trim()),
            _ => None,
        };
        let Some(addr) = addr else {
            children.push(child);
            kill_children(&mut children);
            return Err(format!(
                "segment {} did not announce a QGRP address (got {:?})",
                seg.seq,
                line.trim()
            ));
        };
        log_line(&format!(
            "# qgx: shard {slot} pid {} listening on {addr} (segment {})",
            child.id(),
            seg.seq
        ));
        addrs.push(addr);
        children.push(child);
    }
    let expected: Vec<u64> = manifest
        .segments
        .iter()
        .map(|s| querygraph_retrieval::segstore::segment_fp(store_fp, s.seq))
        .collect();
    match querygraph_retrieval::remote::RemoteEngine::connect_with_fingerprints(
        &addrs,
        querygraph_retrieval::lm::LmParams::default(),
        &expected,
    ) {
        Ok(remote) => Ok((
            ShardFleet { children },
            remote.with_search_threads(shard_threads),
        )),
        Err(e) => {
            kill_children(&mut children);
            Err(format!("cannot connect to the segment fleet: {e}"))
        }
    }
}

/// Boot-time `--shard-procs n`: one child per live segment of
/// `manifest`. Exits rather than serving without the fleet the operator
/// asked for — on a width that disagrees with the live generation, or
/// on any child failing to come up.
fn spawn_fleet_or_exit(
    dir: &std::path::Path,
    store_fp: u64,
    manifest: &querygraph_retrieval::segstore::Manifest,
    n: usize,
    ex: &ExpanderOptions,
    mmap: bool,
) -> (ShardFleet, querygraph_retrieval::remote::RemoteEngine) {
    if n != manifest.segments.len() {
        eprintln!(
            "error: --shard-procs {n} but the live generation has {} segment(s) — \
             `qgx compact --shards {n}` reshapes it",
            manifest.segments.len()
        );
        std::process::exit(2);
    }
    spawn_segstore_fleet(dir, store_fp, manifest, ex.shard_threads, mmap).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// `--shard-procs` over a `--segstore` boot: the fleet swaps into the
/// reloadable slot. The epoch is unchanged — same generation,
/// byte-identical answers — so warmed expansion-cache entries stay
/// valid.
fn segstore_fleet(boot: &SegstoreBoot, n: usize, ex: &ExpanderOptions, mmap: bool) -> ShardFleet {
    let (fleet, remote) =
        spawn_fleet_or_exit(&boot.dir, boot.fingerprint, &boot.manifest, n, ex, mmap);
    boot.reloadable.swap(
        querygraph_retrieval::backend::AnyEngine::Remote(remote),
        boot.reloadable.epoch(),
    );
    fleet
}

/// `--shard-procs n` over an `--index-cache --shards n` boot: the cache
/// entry the in-process boot just loaded (or built and published) is a
/// segment store, so the children serve its segments and the remote
/// engine replaces `world.engine`. Must run before the expander
/// borrows the world.
fn index_cache_fleet(
    cli: &CliOptions,
    ex: &ExpanderOptions,
    n: usize,
    world: &mut ServingWorld,
) -> ShardFleet {
    let Some(cache_dir) = &cli.index_cache else {
        eprintln!(
            "error: --shard-procs requires --index-cache (children load QGIX segments from it)"
        );
        std::process::exit(2);
    };
    if cli.shards != Some(n) {
        eprintln!(
            "error: --shard-procs {n} requires --shards {n} \
             (the segmented cache layout the children serve)"
        );
        std::process::exit(2);
    }
    let config = cli.config();
    let dir = querygraph_core::cache::store_dir(cache_dir, &config, n);
    let fingerprint = querygraph_core::cache::config_fingerprint(&config);
    let manifest = match querygraph_retrieval::segstore::read_manifest(&dir, fingerprint) {
        Ok(Some(manifest)) => manifest,
        Ok(None) => {
            eprintln!(
                "error: index cache {} holds no published store for the children to load",
                dir.display()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: index cache {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    let (fleet, remote) = spawn_fleet_or_exit(&dir, fingerprint, &manifest, n, ex, cli.mmap);
    world.engine = querygraph_retrieval::backend::AnyEngine::Remote(remote);
    fleet
}

/// Retire a replaced generation: wait for its in-flight queries to
/// finish (after the swap, only they hold extra `Arc`s on it), then
/// shut down and drain its shard fleet, if any.
fn retire_generation(
    old: Arc<querygraph_retrieval::backend::EngineGeneration>,
    old_fleet: Option<ShardFleet>,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&old) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if let Some(fleet) = old_fleet {
        fleet.shutdown(&old.engine);
    }
}

/// The live-reload watcher behind `qgx serve --segstore`: poll the
/// manifest and, when a new generation appears, build its engine **off
/// the serving path** (load segments / spawn a fleet first), then swap
/// it into the reloadable slot — the only serving-visible pause is the
/// swap itself, one mutex-guarded pointer replace. The replaced
/// generation is retired only after its in-flight queries finish, so
/// no request is dropped across the swap. Owns the fleet (when in
/// `--shard-procs` mode) for its whole lifetime; on shutdown it drains
/// whichever fleet is current.
fn spawn_segstore_watcher(
    boot: SegstoreBoot,
    initial_fleet: Option<ShardFleet>,
    shard_threads: usize,
    mmap: bool,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<()> {
    use querygraph_retrieval::backend::AnyEngine;
    use querygraph_retrieval::segstore;
    use std::sync::atomic::Ordering;

    std::thread::spawn(move || {
        let lm = querygraph_retrieval::lm::LmParams::default();
        let source = if mmap {
            querygraph_retrieval::ondisk::ArtifactSource::Mmap
        } else {
            querygraph_retrieval::ondisk::ArtifactSource::Read
        };
        let fleet_mode = initial_fleet.is_some();
        let mut fleet = initial_fleet;
        let mut current = boot.reloadable.epoch();
        while !shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(300));
            let manifest = match segstore::read_manifest(&boot.dir, boot.fingerprint) {
                Ok(Some(manifest)) => manifest,
                Ok(None) => continue,
                Err(e) => {
                    eprintln!("# qgx: segstore watch: {e}");
                    continue;
                }
            };
            let epoch = manifest.generation_fingerprint();
            if epoch == current {
                continue;
            }
            let t_load = Instant::now();
            let (engine, new_fleet) = if fleet_mode {
                match spawn_segstore_fleet(
                    &boot.dir,
                    boot.fingerprint,
                    &manifest,
                    shard_threads,
                    mmap,
                ) {
                    Ok((new_fleet, remote)) => (AnyEngine::Remote(remote), Some(new_fleet)),
                    Err(e) => {
                        eprintln!(
                            "# qgx: generation {} fleet failed ({e}); \
                             still serving the previous one",
                            manifest.generation
                        );
                        continue;
                    }
                }
            } else {
                match segstore::load_generation(&boot.dir, boot.fingerprint, source) {
                    Ok(Some(generation))
                        if generation.manifest.generation_fingerprint() == epoch =>
                    {
                        let mut engine = querygraph_retrieval::sharded::ShardedEngine::from_shards(
                            generation.into_engines(lm),
                            lm,
                        );
                        engine.set_search_threads(shard_threads);
                        (AnyEngine::Sharded(engine), None)
                    }
                    // Raced another publish (or an unpublish we cannot
                    // serve); the next tick observes the settled state.
                    Ok(_) => continue,
                    Err(e) => {
                        eprintln!(
                            "# qgx: generation {} load failed ({e}); \
                             still serving the previous one",
                            manifest.generation
                        );
                        continue;
                    }
                }
            };
            let load_seconds = t_load.elapsed().as_secs_f64();
            let t_swap = Instant::now();
            let old = boot.reloadable.swap(engine, epoch);
            let pause_us = t_swap.elapsed().as_secs_f64() * 1e6;
            current = epoch;
            eprintln!(
                "# qgx: serving generation {} ({} docs, {} segment(s)) — \
                 prepared off-path in {load_seconds:.3}s, swap pause {pause_us:.0}µs",
                manifest.generation,
                manifest.total_docs(),
                manifest.segments.len()
            );
            let old_fleet = std::mem::replace(&mut fleet, new_fleet);
            retire_generation(old, old_fleet);
        }
        if let Some(fleet) = fleet {
            fleet.shutdown(&boot.reloadable.snapshot().engine);
        }
    })
}

// ---------------------------------------------------------------- serve

/// SIGTERM/SIGINT notification: the handler only flips an atomic; a
/// watcher thread relays it to the server's shutdown flag.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Install the flag-setting handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        unsafe {
            signal(2, handle);
            signal(15, handle);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

fn run_serve(args: &[String]) {
    let known: Vec<(&str, bool)> = WORLD_FLAGS.iter().chain(&SERVE_FLAGS).copied().collect();
    reject_unknown_flags(args, &known, "serve");
    let cli = CliOptions::from_vec(args);
    let ex = ExpanderOptions::from_args(args);
    let listen = flag_operand(args, "--listen").unwrap_or_else(|| "127.0.0.1:8787".to_string());
    let workers = flag_usize(args, "--workers").unwrap_or(4).max(1);
    let queue_depth = flag_usize(args, "--queue").unwrap_or(128).max(1);
    let deadline_ms = flag_usize(args, "--deadline-ms").unwrap_or(2000).max(1);
    let keep_alive = flag_usize(args, "--keep-alive").unwrap_or(100).max(1);

    let segstore_dir = flag_operand(args, "--segstore").map(std::path::PathBuf::from);
    let shard_procs_flag = flag_usize(args, "--shard-procs").filter(|&n| n > 0);
    let (world, segstore, mut fleet, effective_shard_threads) = match &segstore_dir {
        Some(dir) => {
            let (world, boot) = boot_segstore_world(&cli, &ex, dir);
            let fleet = shard_procs_flag.map(|n| segstore_fleet(&boot, n, &ex, cli.mmap));
            let width = ex.shard_threads.min(boot.manifest.segments.len()).max(1);
            (world, Some(boot), fleet, width)
        }
        None => {
            let (mut world, _, in_process_width) = boot_world(&cli, &ex, false);
            let fleet = shard_procs_flag.map(|n| index_cache_fleet(&cli, &ex, n, &mut world));
            let width = shard_procs_flag.map_or(in_process_width, |n| ex.shard_threads.min(n));
            (world, None, fleet, width)
        }
    };
    let shard_procs = fleet.as_ref().map(|f| f.children.len()).unwrap_or(0);
    let cache = expansion_cache(&ex);
    let expander = world.expander_from(&ex.builder(&cache));

    let server = HttpServer::bind(ServerConfig {
        addr: listen.clone(),
        workers,
        queue_depth,
        deadline: Duration::from_millis(deadline_ms as u64),
        keep_alive_requests: keep_alive,
        limits: http::HttpLimits::default(),
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr().map(|a| a.to_string()).unwrap_or(listen);
    eprintln!(
        "# qgx: listening on {addr} ({workers} workers, queue {queue_depth}, \
         deadline {deadline_ms} ms, keep-alive {keep_alive})"
    );

    let shutdown = server.shutdown_flag();
    #[cfg(unix)]
    {
        sig::install();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if sig::requested() {
                shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    // In segstore mode the watcher owns the fleet (it may replace it on
    // a live reload), so the post-serve teardown below sees `None`.
    let watcher = segstore.map(|boot| {
        spawn_segstore_watcher(
            boot,
            fleet.take(),
            ex.shard_threads,
            cli.mmap,
            Arc::clone(&shutdown),
        )
    });

    let stats = server.stats();
    let t_serve = Instant::now();
    if let Err(e) = server.serve(&expander) {
        eprintln!("error: serve loop failed: {e}");
        std::process::exit(1);
    }
    drop(shutdown);
    let total_seconds = t_serve.elapsed().as_secs_f64();
    drop(expander);
    if let Some(watcher) = watcher {
        let _ = watcher.join();
    }
    if let Some(fleet) = fleet {
        fleet.shutdown(&world.engine);
    }

    let served = stats.queries_served() as usize;
    let failures = stats.failures() as usize;
    let answered = served + failures;
    // Serving stats live in constant-memory log-bucketed histograms
    // (a multi-hour serve cannot grow an exact sample Vec unboundedly);
    // the record says so via latency_mode: "histogram".
    let latency = LatencySummary::from_histogram(&stats.request_latency());
    let conn_latency = LatencySummary::from_histogram(&stats.connection_latency());
    let qps = answered as f64 / total_seconds.max(1e-9);
    eprintln!(
        "# served {answered} queries ({failures} typed errors, {} shed, {} timeouts) \
         over {} connections in {total_seconds:.3}s — {qps:.0} q/s; {}",
        stats.shed(),
        stats.timeouts(),
        stats.connections(),
        latency.render()
    );
    let (cache_hits, cache_lookups, cache_hit_rate) = cache
        .as_ref()
        .map(|c| (c.hits(), c.lookups(), c.hit_rate()))
        .unwrap_or((0, 0, 0.0));
    if cache.is_some() {
        eprintln!(
            "# expansion cache: {cache_hits}/{cache_lookups} hits ({:.1}%)",
            100.0 * cache_hit_rate
        );
    }

    if let Some(path) = &cli.bench_out {
        let mut record = ServeRecord::new(
            &cli.config(),
            &world.stats,
            answered,
            ServeSummary {
                strategy: ex.strategy.name().to_string(),
                queries_served: served,
                failures,
                repeat: 1,
                top_k: ex.top_k,
                threads: workers,
                shard_threads: effective_shard_threads,
                shard_procs,
                total_seconds,
                qps,
                qps_per_thread: qps / workers.max(1) as f64,
                search_mode: ex.search_mode().name().to_string(),
                cache_hits,
                cache_lookups,
                cache_hit_rate,
                shed: stats.shed(),
                timeouts: stats.timeouts(),
                error_codes: stats.error_codes(),
                latency_mode: "histogram".to_string(),
                latency,
                conn_latency: Some(conn_latency),
            },
        );
        record.listen_addr = Some(addr);
        let json = serde_json::to_string_pretty(&record).expect("serve record serializes");
        std::fs::write(path, json).expect("write serve record");
        eprintln!("# wrote {path}");
    }
}

// --------------------------------------------------------------- replay

fn run_replay(args: &[String]) {
    let known: Vec<(&str, bool)> = WORLD_FLAGS.iter().chain(&REPLAY_FLAGS).copied().collect();
    reject_unknown_flags(args, &known, "replay");
    let cli = CliOptions::from_vec(args);
    let ex = ExpanderOptions::from_args(args);
    let queries_file = flag_operand(args, "--queries");
    let seed_queries = args.iter().any(|a| a == "--seed-queries");
    if queries_file.is_some() && seed_queries {
        // Two workload sources would mean silently serving one of
        // them — the failure class this CLI refuses throughout.
        eprintln!("error: --queries and --seed-queries are mutually exclusive");
        std::process::exit(2);
    }
    let repeat = flag_usize(args, "--repeat").unwrap_or(1).max(1);
    let threads = flag_usize(args, "--threads").unwrap_or(1).max(1);
    let json = args.iter().any(|a| a == "--json");
    let deadline_ms = flag_usize(args, "--deadline-ms");
    let zipf = flag_f64(args, "--zipf");
    if let Some(s) = zipf {
        if !(s >= 0.0 && s.is_finite()) {
            eprintln!("error: --zipf exponent must be a finite number ≥ 0, got {s}");
            std::process::exit(2);
        }
    }

    let config = cli.config();
    let segstore_dir = flag_operand(args, "--segstore").map(std::path::PathBuf::from);
    let shard_procs_flag = flag_usize(args, "--shard-procs").filter(|&n| n > 0);
    let (world, seed_corpus, fleet, effective_shard_threads) = match &segstore_dir {
        Some(dir) => {
            let (world, boot) = boot_segstore_world(&cli, &ex, dir);
            let fleet = shard_procs_flag.map(|n| segstore_fleet(&boot, n, &ex, cli.mmap));
            // The tier's query set is derived from the same seeds the
            // ingested corpus came from; docs live in the segments.
            let seed_corpus = seed_queries
                .then(|| querygraph_corpus::synth::generate_corpus(&world.wiki, &config.corpus));
            let width = ex.shard_threads.min(boot.manifest.segments.len()).max(1);
            (world, seed_corpus, fleet, width)
        }
        None => {
            let (mut world, seed_corpus, in_process_width) = boot_world(&cli, &ex, seed_queries);
            let fleet = shard_procs_flag.map(|n| index_cache_fleet(&cli, &ex, n, &mut world));
            let width = shard_procs_flag.map_or(in_process_width, |n| ex.shard_threads.min(n));
            (world, seed_corpus, fleet, width)
        }
    };
    let shard_procs = fleet.as_ref().map(|f| f.children.len()).unwrap_or(0);
    let cache = expansion_cache(&ex);
    let expander = world.expander_from(&ex.builder(&cache));
    // With --deadline-ms every request runs the same typed deadline
    // path the HTTP server uses (admission + post-compute checks).
    let expand = |request: &ExpansionRequest| -> Result<ExpansionResponse, ServiceError> {
        match deadline_ms {
            Some(ms) => expander
                .expand_deadlined(request, Deadline::after(Duration::from_millis(ms as u64))),
            None => expander.expand(request),
        }
    };

    let mut latencies_us: Vec<f64> = Vec::new();
    let mut tally = Tally::default();
    // Size of one repetition of the served workload (for the record's
    // `num_queries`); stdin mode counts as it goes.
    let workload_queries;
    let fixed_workload = seed_queries || queries_file.is_some();
    if !fixed_workload && (threads > 1 || repeat > 1 || zipf.is_some()) {
        eprintln!(
            "# qgx: --threads/--repeat/--zipf apply to --queries/--seed-queries workloads only"
        );
    }
    let t_serve = Instant::now();

    if fixed_workload {
        // Fixed workload: file or the tier's generated query set,
        // optionally repeated and optionally batched across threads.
        let workload: Vec<String> = if let Some(corpus) = &seed_corpus {
            corpus
                .queries
                .queries
                .iter()
                .map(|q| q.keywords.clone())
                .collect()
        } else {
            let path = queries_file.as_deref().expect("checked above");
            read_query_file(path)
        };
        if workload.is_empty() {
            eprintln!("error: empty workload");
            std::process::exit(2);
        }
        workload_queries = workload.len();
        let requests: Vec<ExpansionRequest> = workload
            .iter()
            .map(|text| ExpansionRequest::new(text.clone()))
            .collect();
        // --zipf: one seeded sampler across all repetitions, so the
        // whole served stream is a deterministic function of the
        // tier's seeds and the exponent.
        let mut zipf = zipf.map(|s| {
            ZipfSampler::new(
                requests.len(),
                s,
                config.wiki.seed ^ config.corpus.seed.rotate_left(17),
            )
        });
        for _ in 0..repeat {
            let sampled: Vec<ExpansionRequest>;
            let batch: &[ExpansionRequest] = match &mut zipf {
                Some(sampler) => {
                    sampled = (0..requests.len())
                        .map(|_| requests[sampler.sample()].clone())
                        .collect();
                    &sampled
                }
                None => &requests,
            };
            // The same deterministic work-stealing runner `expand_batch`
            // uses (inline on this thread at --threads 1), timing each
            // request inside its worker — the archived percentiles are
            // real per-request service times, while QPS reflects the
            // parallel wall clock.
            let timed = querygraph_core::pipeline::parallel_map(batch.len(), threads, |i| {
                let t = Instant::now();
                let response = expand(&batch[i]);
                (t.elapsed().as_secs_f64() * 1e6, response)
            });
            for (request, (micros, response)) in batch.iter().zip(timed) {
                latencies_us.push(micros);
                report(&request.text, &response, json, &mut tally);
            }
        }
    } else {
        // The long-lived loop: serve stdin until EOF.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.unwrap_or_else(|e| {
                eprintln!("error: stdin: {e}");
                std::process::exit(2);
            });
            let text = line.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let request = ExpansionRequest::new(text);
            let t = Instant::now();
            let response = expand(&request);
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            report(text, &response, json, &mut tally);
            let _ = std::io::stdout().flush();
        }
        workload_queries = tally.served + tally.failures;
    }

    let total_seconds = t_serve.elapsed().as_secs_f64();
    if let Some(fleet) = fleet {
        fleet.shutdown(&world.engine);
    }
    let answered = tally.served + tally.failures;
    let latency = LatencySummary::of(&latencies_us);
    let qps = answered as f64 / total_seconds.max(1e-9);
    let (cache_hits, cache_lookups, cache_hit_rate) = cache
        .as_ref()
        .map(|c| (c.hits(), c.lookups(), c.hit_rate()))
        .unwrap_or((0, 0, 0.0));
    eprintln!(
        "# served {answered} queries ({} typed errors) in {total_seconds:.3}s \
         — {qps:.0} q/s; {}",
        tally.failures,
        latency.render()
    );
    if cache.is_some() {
        eprintln!(
            "# expansion cache: {cache_hits}/{cache_lookups} hits ({:.1}%)",
            100.0 * cache_hit_rate
        );
    }

    if let Some(path) = &cli.bench_out {
        // The record attributes measurements to what actually ran:
        // stdin mode is strictly sequential-once whatever the flags
        // said, and `parallel_map` caps workers at the workload size.
        let (effective_threads, effective_repeat) = if fixed_workload {
            (threads.min(workload_queries.max(1)), repeat)
        } else {
            (1, 1)
        };
        let record = ServeRecord::new(
            &config,
            &world.stats,
            workload_queries,
            ServeSummary {
                strategy: ex.strategy.name().to_string(),
                queries_served: tally.served,
                failures: tally.failures,
                repeat: effective_repeat,
                top_k: ex.top_k,
                threads: effective_threads,
                shard_threads: effective_shard_threads,
                shard_procs,
                total_seconds,
                qps,
                qps_per_thread: qps / effective_threads.max(1) as f64,
                search_mode: ex.search_mode().name().to_string(),
                cache_hits,
                cache_lookups,
                cache_hit_rate,
                shed: 0,
                timeouts: tally.timeouts,
                error_codes: tally.error_codes,
                // Replay keeps every raw sample (bounded workload):
                // exact nearest-rank percentiles.
                latency_mode: "exact".to_string(),
                latency,
                conn_latency: None,
            },
        );
        let json = serde_json::to_string_pretty(&record).expect("serve record serializes");
        std::fs::write(path, json).expect("write serve record");
        eprintln!("# wrote {path}");
    }
}

/// One `#`-stripped nonempty query per line.
fn read_query_file(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Served/failed counters plus the per-code failure breakdown the
/// `ServeRecord` carries.
#[derive(Default)]
struct Tally {
    served: usize,
    failures: usize,
    timeouts: u64,
    error_codes: BTreeMap<String, u64>,
}

/// Print one served response (or typed error) and bump the counters.
fn report(
    text: &str,
    response: &Result<ExpansionResponse, ServiceError>,
    json: bool,
    tally: &mut Tally,
) {
    match response {
        Ok(r) => {
            tally.served += 1;
            if json {
                println!("{}", serde_json::to_string(r).expect("response serializes"));
            } else {
                let titles = |terms: &[querygraph_core::service::ExpansionTerm]| {
                    terms
                        .iter()
                        .map(|t| t.title.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let hits = if r.hits.is_empty() {
                    String::new()
                } else {
                    format!(
                        "  hits=[{}]",
                        r.hits
                            .iter()
                            .map(|h| h.doc.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                println!(
                    "{:?}  entities=[{}]  features=[{}]{hits}",
                    r.query,
                    titles(&r.entities),
                    titles(&r.features),
                );
            }
        }
        Err(e) => {
            tally.failures += 1;
            if matches!(e, ServiceError::Timeout { .. }) {
                tally.timeouts += 1;
            }
            *tally.error_codes.entry(e.code().to_string()).or_insert(0) += 1;
            if json {
                // The same `{"query":…,"code":…,"error":…}` line the
                // HTTP error body carries, so error responses stay
                // cmp-identical across the socket boundary.
                println!("{}", http::expand_error_body(text, e));
            } else {
                println!("{text:?}  error: {e}");
            }
        }
    }
}

// --------------------------------------------------------------- client

fn run_client(args: &[String]) {
    reject_unknown_flags(args, &CLIENT_FLAGS, "client");
    let addr = flag_operand(args, "--connect").unwrap_or_else(|| "127.0.0.1:8787".to_string());
    let timeout = Duration::from_millis(flag_usize(args, "--timeout-ms").unwrap_or(5000) as u64);

    if args.iter().any(|a| a == "--healthz") {
        match http::get(&addr, "/healthz", timeout) {
            Ok(r) if r.status == 200 => {
                print!("{}", r.body_text());
            }
            Ok(r) => {
                eprintln!("error: /healthz answered {}", r.status);
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: {addr} unreachable: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--statz") {
        match http::get(&addr, "/statz", timeout) {
            Ok(r) if r.status == 200 => print!("{}", r.body_text()),
            Ok(r) => {
                eprintln!("error: /statz answered {}", r.status);
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: {addr} unreachable: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let request_json = |text: &str| {
        let mut request = ExpansionRequest::new(text);
        if let Some(k) = flag_usize(args, "--top-k") {
            request = request.with_retrieval(k);
        }
        if let Some(n) = flag_usize(args, "--max-features") {
            request = request.with_max_features(n);
        }
        serde_json::to_string(&request).expect("request serializes")
    };

    if let Some(n) = flag_usize(args, "--flood") {
        // Forced overload: n concurrent one-shot connections. Every
        // one must get a clean, typed HTTP answer (200s and 503s both
        // count as clean; a hang, refused read, or malformed response
        // is a failure).
        let text = flag_operand(args, "--query").unwrap_or_else(|| "flood probe".to_string());
        let body = request_json(&text);
        let outcomes: Vec<Result<u16, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n.max(1))
                .map(|_| {
                    let body = body.clone();
                    let addr = addr.clone();
                    scope.spawn(move || {
                        http::post_json(&addr, "/expand", &body, timeout)
                            .map(|r| r.status)
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("flood thread"))
                .collect()
        });
        let mut ok = 0u64;
        let mut shed = 0u64;
        let mut timeouts = 0u64;
        let mut other = 0u64;
        let mut broken = 0u64;
        for outcome in &outcomes {
            match outcome {
                Ok(200) => ok += 1,
                Ok(503) => shed += 1,
                Ok(408) => timeouts += 1,
                Ok(_) => other += 1,
                Err(e) => {
                    broken += 1;
                    eprintln!("error: flood connection failed: {e}");
                }
            }
        }
        println!(
            "{{\"requests\":{},\"ok\":{ok},\"shed\":{shed},\"timeouts\":{timeouts},\
             \"other\":{other},\"broken\":{broken}}}",
            outcomes.len()
        );
        if broken > 0 {
            std::process::exit(1);
        }
        return;
    }

    // Workload mode: one query, a file, or the tier's seed query set.
    // Response bodies stream to stdout exactly as received, so the
    // output is byte-identical to `qgx replay --json` on the same
    // workload against the same world.
    let queries_file = flag_operand(args, "--queries");
    let seed_queries = args.iter().any(|a| a == "--seed-queries");
    let single = flag_operand(args, "--query");
    let workload: Vec<String> = if let Some(text) = single {
        vec![text]
    } else if let Some(path) = queries_file {
        read_query_file(&path)
    } else if seed_queries {
        // Regenerate the tier's query set client-side — cheap (no
        // index), and identical to what `replay --seed-queries` serves.
        let config = CliOptions::from_vec(args).config();
        let wiki = querygraph_wiki::synth::generate(&config.wiki);
        let corpus = querygraph_corpus::synth::generate_corpus(&wiki, &config.corpus);
        corpus
            .queries
            .queries
            .iter()
            .map(|q| q.keywords.clone())
            .collect()
    } else {
        eprintln!("error: qgx client needs --healthz, --statz, --flood, --query, --queries, or --seed-queries");
        std::process::exit(2);
    };
    if workload.is_empty() {
        eprintln!("error: empty workload");
        std::process::exit(2);
    }
    let repeat = flag_usize(args, "--repeat").unwrap_or(1).max(1);
    let stdout = std::io::stdout();
    for _ in 0..repeat {
        for text in &workload {
            match http::post_json(&addr, "/expand", &request_json(text), timeout) {
                Ok(response) => {
                    let mut out = stdout.lock();
                    out.write_all(&response.body).expect("stdout");
                    out.flush().expect("stdout");
                }
                Err(e) => {
                    eprintln!("error: request for {text:?} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- shard

/// A required flag's operand, or a `exit 2` usage error — a shard
/// child launched without its identity must refuse, not guess.
fn require_flag(args: &[String], name: &str) -> String {
    flag_operand(args, name).unwrap_or_else(|| {
        eprintln!("error: this subcommand requires {name} <value>");
        std::process::exit(2);
    })
}

/// One shard process: load one segment-store segment, verify its
/// embedded seq-keyed fingerprint against the supervisor's store
/// fingerprint, announce the bound QGRP address on stdout, and serve
/// until stdin EOF (the supervisor's drain signal), SIGTERM/SIGINT, or
/// a `Shutdown` frame.
fn run_shard(args: &[String]) {
    use querygraph_retrieval::ondisk::{load_index_with, ArtifactSource};
    use querygraph_retrieval::remote::{server, ShardServer};
    use querygraph_retrieval::segstore::{segment_file, segment_fp};

    reject_unknown_flags(args, &SHARD_FLAGS, "shard");
    let dir = require_flag(args, "--segstore");
    let seq = require_flag(args, "--seq");
    let seq: u64 = seq.parse().unwrap_or_else(|_| {
        eprintln!("error: --seq must be a segment sequence number, got {seq:?}");
        std::process::exit(2);
    });
    let shard = require_flag(args, "--shard");
    let shard: usize = shard.parse().unwrap_or_else(|_| {
        eprintln!("error: --shard must be a shard index, got {shard:?}");
        std::process::exit(2);
    });
    let fingerprint = require_flag(args, "--fingerprint");
    let fingerprint =
        u64::from_str_radix(fingerprint.trim_start_matches("0x"), 16).unwrap_or_else(|_| {
            eprintln!("error: --fingerprint must be a hex u64, got {fingerprint:?}");
            std::process::exit(2);
        });
    let listen = flag_operand(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let source = if args.iter().any(|a| a == "--mmap") {
        ArtifactSource::Mmap
    } else {
        ArtifactSource::Read
    };

    let path = std::path::Path::new(&dir).join(segment_file(seq));
    let want = segment_fp(fingerprint, seq);
    let loaded = load_index_with(&path, source).unwrap_or_else(|e| {
        eprintln!("error: shard {shard}: cannot load {}: {e}", path.display());
        std::process::exit(1);
    });
    // The same pinning the store loader enforces: the segment must carry
    // the expected derived fingerprint, so a mis-deployed or stale segment
    // dies here, before it can answer.
    if loaded.meta_fingerprint != want {
        eprintln!(
            "error: shard {shard}: segment fingerprint mismatch \
             (expected {want:016x}, found {:016x})",
            loaded.meta_fingerprint
        );
        std::process::exit(1);
    }
    let num_docs = loaded.index.num_docs();
    let engine = querygraph_retrieval::engine::SearchEngine::with_params(
        loaded.index,
        querygraph_retrieval::lm::LmParams::default(),
    );
    engine.seed_phrase_cache(loaded.phrases);

    let qgrp = ShardServer::bind(&listen, Arc::new(engine), shard, want).unwrap_or_else(|e| {
        eprintln!("error: shard {shard}: cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    let addr = qgrp.local_addr().unwrap_or_else(|e| {
        eprintln!("error: shard {shard}: no local address: {e}");
        std::process::exit(1);
    });
    // The announce is the child's only stdout line — the supervisor
    // blocks on it; everything human-facing goes to stderr.
    server::announce(&addr);
    let _ = std::io::stdout().flush();
    log_line(&format!(
        "# qgx: shard {shard} serving {} ({num_docs} docs) on {addr}",
        path.display()
    ));

    // stdin EOF is the supervisor's drain signal: it outlives a wedged
    // socket and fires even if the parent dies without cleanup (the
    // pipe closes with it), so orphaned children exit on their own.
    let shutdown = qgrp.shutdown_flag();
    {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => continue,
                }
            }
            shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        });
    }
    #[cfg(unix)]
    {
        sig::install();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if sig::requested() {
                shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    if let Err(e) = qgrp.serve() {
        eprintln!("error: shard {shard}: serve loop failed: {e}");
        std::process::exit(1);
    }
    log_line(&format!("# qgx: shard {shard} drained"));
}

// ------------------------------------------- dump / ingest / compact

/// `qgx dump`: write a tier's synthetic corpus as a Wikipedia-format
/// XML dump. `--skip`/`--docs` slice the corpus in document order, so
/// a world can be dumped in batches and ingested incrementally — the
/// live-swap path's test fixture.
fn run_dump(args: &[String]) {
    reject_unknown_flags(args, &DUMP_FLAGS, "dump");
    let cli = CliOptions::from_vec(args);
    let out = require_flag(args, "--out");
    let skip = flag_usize(args, "--skip").unwrap_or(0);
    let take = flag_usize(args, "--docs").unwrap_or(usize::MAX);

    let config = cli.config();
    let t = Instant::now();
    let wiki = querygraph_wiki::synth::generate(&config.wiki);
    let corpus = querygraph_corpus::synth::generate_corpus(&wiki, &config.corpus);
    let total = corpus.corpus.len();
    let mut writer = querygraph_corpus::ingest::DumpWriter::create(std::path::Path::new(&out))
        .unwrap_or_else(|e| {
            eprintln!("error: cannot create {out}: {e}");
            std::process::exit(1);
        });
    for (_, doc) in corpus.corpus.iter().skip(skip).take(take) {
        if let Err(e) = writer.write_doc(doc) {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
    let written = writer.docs_written();
    if let Err(e) = writer.finish() {
        eprintln!("error: cannot finish {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "# qgx: dumped {written} of {total} docs (skip {skip}) to {out} in {:.3}s",
        t.elapsed().as_secs_f64()
    );
}

/// Open the tier's segment store, pinned to the tier's world
/// fingerprint.
fn open_segstore(cli: &CliOptions, dir: &str) -> querygraph_retrieval::segstore::SegStore {
    let fingerprint = querygraph_core::cache::config_fingerprint(&cli.config());
    querygraph_retrieval::segstore::SegStore::open(std::path::Path::new(dir), fingerprint)
        .unwrap_or_else(|e| {
            eprintln!("error: segment store {dir}: {e}");
            std::process::exit(1);
        })
}

/// Compact the store into `shards` segments, measuring what a live
/// server would feel: the compaction wall clock (all off the serving
/// path) and the engine-swap pause (the only serving-visible moment —
/// the new generation is fully loaded before the swap, exactly as the
/// serve watcher does it). Returns
/// `(compaction_seconds, swap_pause_us)`.
fn compact_and_measure(
    store: &mut querygraph_retrieval::segstore::SegStore,
    shards: usize,
    source: querygraph_retrieval::ondisk::ArtifactSource,
) -> (f64, f64) {
    use querygraph_retrieval::backend::{AnyEngine, ReloadableEngine};
    use querygraph_retrieval::segstore;
    use querygraph_retrieval::sharded::ShardedEngine;

    let lm = querygraph_retrieval::lm::LmParams::default();
    let fingerprint = store.manifest().fingerprint;
    // Stand in for the live server: hold the pre-compaction generation
    // in a reloadable slot so the swap we time is the real operation.
    let serving = segstore::load_generation(store.dir(), fingerprint, source)
        .ok()
        .flatten()
        .map(|generation| {
            let epoch = generation.manifest.generation_fingerprint();
            ReloadableEngine::new(
                AnyEngine::Sharded(ShardedEngine::from_shards(generation.into_engines(lm), lm)),
                epoch,
            )
        });

    let t = Instant::now();
    match segstore::compact(store, shards.max(1), source) {
        Ok(Some(_)) => {}
        Ok(None) => {
            eprintln!("error: the store has never published — nothing to compact");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: compaction failed: {e}");
            std::process::exit(1);
        }
    }
    let compaction_seconds = t.elapsed().as_secs_f64();

    let mut swap_pause_us = 0.0;
    if let Some(serving) = serving {
        if let Ok(Some(generation)) = segstore::load_generation(store.dir(), fingerprint, source) {
            let epoch = generation.manifest.generation_fingerprint();
            let engine = ShardedEngine::from_shards(generation.into_engines(lm), lm);
            let t = Instant::now();
            let old = serving.swap(AnyEngine::Sharded(engine), epoch);
            swap_pause_us = t.elapsed().as_secs_f64() * 1e6;
            drop(old);
        }
    }
    (compaction_seconds, swap_pause_us)
}

/// `qgx ingest`: stream a dump through `DumpStream` in bounded
/// memory, freezing every `--batch-docs` documents into one committed
/// `QGIX` segment. Never materializes the corpus: each document is
/// tokenized into the in-progress batch builder and dropped. With
/// `--compact n` the live set is merged into `n` segments afterwards.
fn run_ingest(args: &[String]) {
    reject_unknown_flags(args, &INGEST_FLAGS, "ingest");
    let cli = CliOptions::from_vec(args);
    let dump = require_flag(args, "--dump");
    let dir = require_flag(args, "--segstore");
    let batch_docs = flag_usize(args, "--batch-docs").unwrap_or(10_000).max(1);
    let compact_to = flag_usize(args, "--compact");

    let config = cli.config();
    let mut store = open_segstore(&cli, &dir);
    let generation_before = store.manifest().generation;
    let mut stream = querygraph_corpus::ingest::DumpStream::from_path(std::path::Path::new(&dump))
        .unwrap_or_else(|e| {
            eprintln!("error: cannot open {dump}: {e}");
            std::process::exit(1);
        });

    let t_ingest = Instant::now();
    let mut builder = querygraph_retrieval::index::IndexBuilder::new();
    let mut in_batch = 0usize;
    let mut docs: u64 = 0;
    let mut batches = 0usize;
    let commit = |builder: &mut querygraph_retrieval::index::IndexBuilder,
                  store: &mut querygraph_retrieval::segstore::SegStore| {
        let full = std::mem::replace(builder, querygraph_retrieval::index::IndexBuilder::new());
        let meta = store.commit_segment(&full.build()).unwrap_or_else(|e| {
            eprintln!("error: cannot commit segment: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "# qgx: committed segment {} ({} docs) — generation {}",
            meta.seq,
            meta.num_docs,
            store.manifest().generation
        );
    };
    for result in &mut stream {
        let doc = result.unwrap_or_else(|e| {
            eprintln!("error: {dump}: {e}");
            std::process::exit(1);
        });
        builder.add_document(&querygraph_corpus::imageclef::linking_text(&doc));
        in_batch += 1;
        docs += 1;
        if in_batch >= batch_docs {
            commit(&mut builder, &mut store);
            batches += 1;
            in_batch = 0;
        }
    }
    if in_batch > 0 {
        commit(&mut builder, &mut store);
        batches += 1;
    }
    let ingest_seconds = t_ingest.elapsed().as_secs_f64();
    let docs_per_second = docs as f64 / ingest_seconds.max(1e-9);
    let peak_buffer_bytes = stream.peak_buffer_bytes();
    let segments_before_compaction = store.manifest().segments.len();
    eprintln!(
        "# qgx: ingested {docs} docs in {batches} batch(es) over {ingest_seconds:.3}s \
         ({docs_per_second:.0} docs/s, peak stream buffer {peak_buffer_bytes} bytes); \
         generation {} → {}, {segments_before_compaction} live segment(s)",
        generation_before,
        store.manifest().generation
    );

    let (mut compaction_seconds, mut swap_pause_us) = (0.0, 0.0);
    if let Some(shards) = compact_to {
        let (wall, pause) = compact_and_measure(&mut store, shards, segstore_source(&cli));
        compaction_seconds = wall;
        swap_pause_us = pause;
        eprintln!(
            "# qgx: compacted {segments_before_compaction} → {} segment(s) in \
             {compaction_seconds:.3}s (swap pause {swap_pause_us:.0}µs)",
            store.manifest().segments.len()
        );
    }

    if let Some(path) = &cli.bench_out {
        let record = IngestRecord::new(
            &config,
            IngestSummary {
                docs_ingested: docs,
                batches,
                ingest_seconds,
                docs_per_second,
                peak_buffer_bytes,
                segments_before_compaction,
                segments_after_compaction: store.manifest().segments.len(),
                compaction_seconds,
                swap_pause_us,
                generation: store.manifest().generation,
            },
        );
        let json = serde_json::to_string_pretty(&record).expect("ingest record serializes");
        std::fs::write(path, json).expect("write ingest record");
        eprintln!("# wrote {path}");
    }
}

/// `qgx compact`: merge the store's live segments into `--shards`
/// balanced ones (default 1) and publish the new generation. A live
/// `qgx serve --segstore` on the same store hot-swaps onto it.
fn run_compact(args: &[String]) {
    reject_unknown_flags(args, &COMPACT_FLAGS, "compact");
    let cli = CliOptions::from_vec(args);
    let dir = require_flag(args, "--segstore");
    let shards = flag_usize(args, "--shards").unwrap_or(1).max(1);

    let config = cli.config();
    let mut store = open_segstore(&cli, &dir);
    let segments_before = store.manifest().segments.len();
    let (compaction_seconds, swap_pause_us) =
        compact_and_measure(&mut store, shards, segstore_source(&cli));
    eprintln!(
        "# qgx: compacted {segments_before} → {} segment(s) ({} docs) in \
         {compaction_seconds:.3}s (swap pause {swap_pause_us:.0}µs); generation {}",
        store.manifest().segments.len(),
        store.manifest().total_docs(),
        store.manifest().generation
    );

    if let Some(path) = &cli.bench_out {
        let record = IngestRecord::new(
            &config,
            IngestSummary {
                docs_ingested: 0,
                batches: 0,
                ingest_seconds: 0.0,
                docs_per_second: 0.0,
                peak_buffer_bytes: 0,
                segments_before_compaction: segments_before,
                segments_after_compaction: store.manifest().segments.len(),
                compaction_seconds,
                swap_pause_us,
                generation: store.manifest().generation,
            },
        );
        let json = serde_json::to_string_pretty(&record).expect("ingest record serializes");
        std::fs::write(path, json).expect("write ingest record");
        eprintln!("# wrote {path}");
    }
}
