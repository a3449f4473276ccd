//! `qgx` — the query-expansion server, now with a socket.
//!
//! Seven subcommands over one world-boot path:
//!
//! ```text
//! qgx serve   --listen <addr>  [world flags] [--workers n] [--queue n]
//!             [--keep-alive n]
//! qgx replay  [world flags] [(--queries f | --seed-queries) [--repeat n]]
//!             [--json]
//! qgx client  --connect <addr> [--timeout-ms n] (--healthz | --statz |
//!             --flood n [--query text] [request flags] |
//!             (--query text | --queries f | --seed-queries [tier flags])
//!             [--repeat n] [request flags])
//!             request flags: [--top-k k] [--max-features n]
//! qgx shard   --segstore <dir> --seq <s> --shard <i> --fingerprint <fp>
//!             [--listen <addr>]
//! qgx dump    --out <path> [tier flags] [--skip n] [--docs n]
//! qgx ingest  --dump <path> --segstore <dir> [tier flags]
//!             [--batch-docs n] [--compact n]
//! qgx compact --segstore <dir> [tier flags] [--shards n]
//! ```
//!
//! Tier flags: `--tiny | --quick | --stress [--quick] | --track
//! [--quick]`. Each subcommand parses its argv once
//! (`querygraph_bench::Args`) against its own flag table: an unknown or
//! repeated flag, a missing operand (an operand never starts with
//! `--`), conflicting tier flags, or `--shards 0` exits 2 before any
//! work.
//!
//! This file is flag tables and HTTP / replay / client wiring; how a
//! world boots and how a segment store is served live in
//! `querygraph_bench::serving`. `qgx` writes no record files: what it
//! did goes to stderr as counts, and a live server's account is
//! `GET /statz`.
//!
//! * The world-boot path: `serve` and `replay` check their flag
//!   combinations, then make one `serving::boot` call, and every world
//!   serves through a generation slot, each request pinning one
//!   generation. An in-memory world's slot holds its engine and never
//!   swaps. A store-backed world — `--segstore <dir>`, or an
//!   `--index-cache <dir>` boot, whose cache entry is a published
//!   segment store `--shards` (default 1) wide — serves through the
//!   store's slot, in process or, with `--shard-procs n`, from n
//!   supervised `qgx shard` children (a fleet boot loads nothing in
//!   process); under `serve` it follows the store, hot-swapping onto
//!   every newly published generation with zero downtime.
//! * `serve` binds the `core::http` HTTP/1.1 front-end over that world:
//!   `POST /expand`, `GET /healthz`, `GET /statz`, per-request
//!   deadlines starting at accept, a bounded connection queue with
//!   503 + `Retry-After` shedding, and SIGTERM/SIGINT draining
//!   in-flight queries (and any fleet) before exit. The drain prints the
//!   final `/statz` counters (`# served …`) and the expansion cache's
//!   hits (`# expansion cache: …`).
//! * `replay` is the in-process reference: it serves a stdin, file, or
//!   seed workload sequentially, in order, and times nothing.
//!   `--deadline-ms` applies the same typed per-request deadline path
//!   the server uses; `--json` emits one response JSON object per line —
//!   byte-identical to the corresponding `/expand` response bodies,
//!   which is what the `http-smoke` CI job `cmp`s.
//! * `client` drives a running `qgx serve` over `std::net`: health and
//!   stats probes, single queries, file/seed workloads (response
//!   bodies stream to stdout exactly as received), and `--flood n` —
//!   n concurrent one-shot connections for forced-overload tests
//!   (every response must still be clean, typed HTTP).
//! * `shard` is one fleet child: it serves **one** segment-store
//!   segment over the QGRP binary RPC protocol (DESIGN.md §13),
//!   verifying the embedded seq-keyed fingerprint, announcing its bound
//!   address on stdout (`QGRP listening <addr>`), and draining on stdin
//!   EOF, SIGTERM/SIGINT, or a `Shutdown` frame. The fleet answers
//!   byte-identically to the in-process engine over the same segments.
//! * `dump` / `ingest` / `compact` are the streaming build path
//!   (DESIGN.md §14): `dump` writes a tier's corpus as an XML dump
//!   (optionally a `--skip/--docs` slice, so a dump can arrive in
//!   batches); `ingest` streams a dump through
//!   `corpus::ingest::DumpStream` in bounded memory, freezing every
//!   `--batch-docs` documents into one `QGIX` segment of a `QGSS`
//!   segment store; `compact` merges the live segments into `--shards`
//!   balanced ones. A serving store picks either up live.
//!
//! Latency and throughput are measured by the repo benchmark
//! (`bash benchmark/run.sh`, open loop, oracle-checked); `client
//! --queries/--repeat/--flood` is the operator's tool against a
//! `--connect` address.
//!
//! World flags (shared by `serve` and `replay`): the tier flags,
//! `--index-cache <dir>`, `--shards <n>`, `--segstore <dir>`,
//! `--strategy cycles|links|none`, `--max-features <n>`, `--top-k <k>`,
//! `--expansion-cache <n>` (0: no cache), `--deadline-ms <n>`,
//! `--shard-procs <n>`. Retrieval always runs the block-max pruned
//! top-k (DESIGN.md §11).

use querygraph_bench::serving::{self, log_line};
use querygraph_bench::{Args, CliError, CliOptions, Flag, Hex, TIER_FLAGS};
use querygraph_core::expcache::ExpansionCache;
use querygraph_core::http::{self, HttpServer, ServerConfig};
use querygraph_core::service::{
    Deadline, ExpansionRequest, ExpansionResponse, ExpansionStrategy, QueryExpander,
    QueryExpanderBuilder, ServiceError,
};
use querygraph_core::ExperimentConfig;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flags selecting and tuning the served world, shared by `serve` and
/// `replay` (each subcommand adds its own on top).
const WORLD: [Flag; 9] = [
    ("--index-cache", true),
    ("--segstore", true),
    ("--shards", true),
    ("--strategy", true),
    ("--max-features", true),
    ("--top-k", true),
    ("--expansion-cache", true),
    ("--deadline-ms", true),
    ("--shard-procs", true),
];

const REPLAY: [Flag; 4] = [
    ("--queries", true),
    ("--seed-queries", false),
    ("--repeat", true),
    ("--json", false),
];

const SERVE: [Flag; 4] = [
    ("--listen", true),
    ("--workers", true),
    ("--queue", true),
    ("--keep-alive", true),
];

const SHARD: [Flag; 5] = [
    ("--segstore", true),
    ("--seq", true),
    ("--shard", true),
    ("--fingerprint", true),
    ("--listen", true),
];

const DUMP: [Flag; 3] = [("--out", true), ("--skip", true), ("--docs", true)];

const INGEST: [Flag; 4] = [
    ("--dump", true),
    ("--segstore", true),
    ("--batch-docs", true),
    ("--compact", true),
];

const COMPACT: [Flag; 2] = [("--segstore", true), ("--shards", true)];

const CLIENT: [Flag; 11] = [
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
];

/// A subcommand's body.
type Run = fn(&Args) -> Result<(), CliError>;

/// Each subcommand with its flag table and its body.
const SUBCOMMANDS: [(&str, &[&[Flag]], Run); 7] = [
    ("serve", &[&TIER_FLAGS, &WORLD, &SERVE], run_serve),
    ("replay", &[&TIER_FLAGS, &WORLD, &REPLAY], run_replay),
    ("client", &[&TIER_FLAGS, &CLIENT], run_client),
    ("shard", &[&SHARD], run_shard),
    ("dump", &[&TIER_FLAGS, &DUMP], run_dump),
    ("ingest", &[&TIER_FLAGS, &INGEST], run_ingest),
    ("compact", &[&TIER_FLAGS, &COMPACT], run_compact),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, ..)| *name).collect();
    let names = names.join(" | ");
    let result = match argv.first() {
        Some(name) if !name.starts_with("--") => {
            match SUBCOMMANDS.iter().find(|(known, ..)| known == name) {
                Some((_, table, run)) => Args::parse(&argv[1..], table).and_then(|args| run(&args)),
                None => Err(CliError(format!("unknown subcommand {name:?} ({names})"))),
            }
        }
        _ => Err(CliError(format!("qgx needs a subcommand ({names})"))),
    };
    if let Err(e) = result {
        e.exit();
    }
}

/// The expander knobs shared by `serve` and `replay`.
struct ExpanderOptions {
    strategy: ExpansionStrategy,
    max_features: Option<usize>,
    top_k: usize,
    expansion_cache: Option<usize>,
}

impl ExpanderOptions {
    fn from_args(args: &Args) -> Result<ExpanderOptions, CliError> {
        let strategy = match args.operand("--strategy") {
            None => ExpansionStrategy::default(),
            Some(name) => ExpansionStrategy::parse(name).ok_or_else(|| {
                CliError(format!("unknown --strategy {name:?} (cycles|links|none)"))
            })?,
        };
        Ok(ExpanderOptions {
            strategy,
            max_features: args.get("--max-features")?,
            top_k: args.get("--top-k")?.unwrap_or(0),
            // A zero-entry cache is no cache.
            expansion_cache: args.get("--expansion-cache")?.filter(|&n| n > 0),
        })
    }

    /// The builder these knobs select (cache attached separately so
    /// the caller keeps a counter handle).
    fn builder(&self, cache: &Option<Arc<ExpansionCache>>) -> QueryExpanderBuilder {
        let mut builder = QueryExpander::builder().strategy(self.strategy.clone());
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

/// Boot the world the flags select through `serving::boot` and log the
/// one boot line. Flag combinations are refused (exit 2) before any boot
/// work, so a usage error costs nothing even at `--stress`.
fn boot(args: &Args, ex: &ExpanderOptions, want_corpus: bool) -> Result<serving::World, CliError> {
    let cli = CliOptions::from_args(args)?;
    let segstore: Option<PathBuf> = args.get("--segstore")?;
    let shard_procs = args.get("--shard-procs")?.filter(|&n| n > 0);
    if segstore.is_some() && (cli.index_cache.is_some() || cli.shards.is_some()) {
        return Err(CliError(
            "--segstore is its own index source; drop --index-cache/--shards".into(),
        ));
    }
    if let (Some(n), None) = (shard_procs, &segstore) {
        if cli.index_cache.is_none() {
            return Err(CliError(
                "--shard-procs requires --index-cache (children load QGIX segments from it)".into(),
            ));
        }
        if cli.world_options().shard_count() != n {
            return Err(CliError(format!(
                "--shard-procs {n} requires --shards {n} \
                 (the width of the cache store the children serve; --shards defaults to 1)"
            )));
        }
    }
    let fleet = shard_procs.map(|n| {
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("error: cannot locate the qgx binary: {e}");
            std::process::exit(1);
        });
        (n, exe)
    });
    let world = serving::boot(&cli, segstore.as_deref(), fleet, want_corpus).unwrap_or_else(
        |(code, message)| {
            eprintln!("error: {message}");
            std::process::exit(code);
        },
    );
    let stats = &world.stats;
    log_line(&format!(
        "# qgx: {} articles, index {} x{} shard(s) (world {:.3}s, build {:.3}s, load {:.3}s); \
         strategy {}, top-k {}, cache {}",
        world.wiki.kb.num_articles(),
        stats.index_source.name(),
        stats.shard_count,
        stats.world_seconds,
        stats.index_build_seconds,
        stats.index_load_seconds,
        ex.strategy.name(),
        ex.top_k,
        ex.expansion_cache
            .map(|n| n.to_string())
            .unwrap_or_else(|| "off".to_string()),
    ));
    Ok(world)
}

fn expansion_cache(ex: &ExpanderOptions) -> Option<Arc<ExpansionCache>> {
    ex.expansion_cache.map(|n| Arc::new(ExpansionCache::new(n)))
}

// ---------------------------------------------------------------- serve

fn run_serve(args: &Args) -> Result<(), CliError> {
    let ex = ExpanderOptions::from_args(args)?;
    let listen = args.operand("--listen").unwrap_or("127.0.0.1:8787");
    let workers = args.get("--workers")?.unwrap_or(4).max(1);
    let queue_depth = args.get("--queue")?.unwrap_or(128).max(1);
    let deadline_ms: u64 = args.get("--deadline-ms")?.unwrap_or(2000).max(1);
    let keep_alive = args.get("--keep-alive")?.unwrap_or(100).max(1);

    let world = boot(args, &ex, false)?;
    let cache = expansion_cache(&ex);
    let expander = ex.builder(&cache).build_live(&world.wiki.kb, &world.slot);

    let server = HttpServer::bind(ServerConfig {
        addr: listen.to_string(),
        workers,
        queue_depth,
        deadline: Duration::from_millis(deadline_ms),
        keep_alive_requests: keep_alive,
        limits: http::HttpLimits::default(),
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    let addr = server
        .local_addr()
        .map_or_else(|_| listen.to_string(), |a| a.to_string());
    log_line(&format!(
        "# qgx: listening on {addr} ({workers} workers, queue {queue_depth}, \
         deadline {deadline_ms} ms, keep-alive {keep_alive})"
    ));

    let shutdown = server.shutdown_flag();
    serving::relay_shutdown_signals(Arc::clone(&shutdown));
    // A store-backed world follows its store; the watcher owns the
    // fleet (a live reload may replace it) and drains it on shutdown.
    let watcher = world.live.map(|live| live.watch(Arc::clone(&shutdown)));

    let stats = server.stats();
    if let Err(e) = server.serve(&expander) {
        eprintln!("error: serve loop failed: {e}");
        std::process::exit(1);
    }
    drop(shutdown);
    drop(expander);
    if let Some(watcher) = watcher {
        let _ = watcher.join();
    }

    // The drain account is the final `/statz`.
    let statz = stats.snapshot();
    eprintln!(
        "# served {} queries ({} typed errors, {} shed, {} timeouts) over {} connections; \
         p50 {:.1}µs  p99 {:.1}µs  connection p99 {:.1}µs",
        statz.queries_served + statz.failures,
        statz.failures,
        statz.shed,
        statz.timeouts,
        statz.connections,
        statz.p50_us,
        statz.p99_us,
        statz.conn_p99_us,
    );
    report_cache(&cache);
    Ok(())
}

/// The `# expansion cache: H/L hits` line, when a cache was attached.
fn report_cache(cache: &Option<Arc<ExpansionCache>>) {
    if let Some(cache) = cache {
        eprintln!(
            "# expansion cache: {}/{} hits ({:.1}%)",
            cache.hits(),
            cache.lookups(),
            100.0 * cache.hit_rate()
        );
    }
}

// --------------------------------------------------------------- replay

/// `qgx replay`: the in-process reference. Serves the workload
/// sequentially, in order, printing one answer per request, and times
/// nothing.
fn run_replay(args: &Args) -> Result<(), CliError> {
    let ex = ExpanderOptions::from_args(args)?;
    let seed_queries = args.has("--seed-queries");
    if args.has("--queries") && seed_queries {
        // Two workload sources would mean silently serving one of
        // them — the failure class this CLI refuses throughout.
        return Err(CliError(
            "--queries and --seed-queries are mutually exclusive".into(),
        ));
    }
    if args.has("--repeat") && !args.has("--queries") && !seed_queries {
        // Stdin is served once, until EOF: there is nothing to repeat.
        return Err(CliError(
            "--repeat applies only with --queries or --seed-queries".into(),
        ));
    }
    let repeat = args.get("--repeat")?.unwrap_or(1).max(1);
    let json = args.has("--json");
    let deadline_ms: Option<u64> = args.get("--deadline-ms")?;
    // Read before the boot, so that a bad path costs no world build.
    let file_queries = args.operand("--queries").map(read_query_file);

    let world = boot(args, &ex, seed_queries)?;
    let cache = expansion_cache(&ex);
    let expander = ex.builder(&cache).build_live(&world.wiki.kb, &world.slot);
    let mut tally = Tally::default();
    // With --deadline-ms every request runs the same typed deadline
    // path the HTTP server uses (admission + post-compute checks).
    let mut answer = |text: &str| {
        let request = ExpansionRequest::new(text);
        let response = match deadline_ms {
            Some(ms) => {
                expander.expand_deadlined(&request, Deadline::after(Duration::from_millis(ms)))
            }
            None => expander.expand(&request),
        };
        report(text, &response, json, &mut tally);
    };

    // A fixed workload — a file or the tier's generated query set — is
    // optionally repeated; without one, stdin is served until EOF.
    let workload: Option<Vec<String>> = match (file_queries, &world.corpus) {
        (Some(queries), _) => Some(queries),
        (None, Some(corpus)) => Some(
            corpus
                .queries
                .queries
                .iter()
                .map(|q| q.keywords.clone())
                .collect(),
        ),
        (None, None) => None,
    };
    if let Some(workload) = workload {
        if workload.is_empty() {
            eprintln!("error: empty workload");
            std::process::exit(2);
        }
        for _ in 0..repeat {
            for text in &workload {
                answer(text);
            }
        }
    } else {
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
            answer(text);
            let _ = std::io::stdout().flush();
        }
    }

    if let Some(live) = world.live {
        live.shutdown();
    }
    eprintln!(
        "# served {} queries ({} typed errors)",
        tally.served + tally.failures,
        tally.failures
    );
    report_cache(&cache);
    Ok(())
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

/// Served/failed counters for replay's closing line.
#[derive(Default)]
struct Tally {
    served: usize,
    failures: usize,
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

fn run_client(args: &Args) -> Result<(), CliError> {
    // One mode per invocation: silently serving one of two would hide
    // the other. `--query` is a workload of its own, or `--flood`'s
    // probe text.
    let modes: Vec<&str> = "--healthz --statz --flood --queries --seed-queries"
        .split(' ')
        .filter(|mode| args.has(mode))
        .collect();
    if modes.is_empty() && !args.has("--query") {
        return Err(CliError(
            "qgx client needs --healthz, --statz, --flood, --query, --queries, or --seed-queries"
                .into(),
        ));
    }
    if modes.len() > 1 {
        return Err(CliError(format!(
            "{} are mutually exclusive (one mode per client run)",
            modes.join(" and ")
        )));
    }
    if args.has("--query") && !matches!(modes[..], [] | ["--flood"]) {
        return Err(CliError(format!(
            "--query cannot be combined with {} (only --flood takes it, as its probe text)",
            modes[0]
        )));
    }
    // Nor is a flag the mode does not read accepted and dropped. So
    // `--healthz` and `--statz` take only `--connect` and `--timeout-ms`.
    let flood = args.has("--flood");
    let workload = !flood && !args.has("--healthz") && !args.has("--statz");
    let tier: Vec<&str> = TIER_FLAGS.iter().map(|(flag, _)| *flag).collect();
    for (flags, read, reader) in [
        (&tier[..], args.has("--seed-queries"), "--seed-queries"),
        (
            &["--repeat"][..],
            workload,
            "a workload (--query, --queries or --seed-queries)",
        ),
        (
            &["--top-k", "--max-features"][..],
            workload || flood,
            "a workload or --flood",
        ),
    ] {
        if let Some(flag) = flags.iter().find(|&&flag| !read && args.has(flag)) {
            return Err(CliError(format!("{flag} applies only with {reader}")));
        }
    }
    let addr = args.operand("--connect").unwrap_or("127.0.0.1:8787");
    let timeout = Duration::from_millis(args.get("--timeout-ms")?.unwrap_or(5000));
    let top_k: Option<usize> = args.get("--top-k")?;
    let max_features: Option<usize> = args.get("--max-features")?;
    let flood: Option<usize> = args.get("--flood")?;
    let repeat = args.get("--repeat")?.unwrap_or(1).max(1);

    for (flag, path) in [("--healthz", "/healthz"), ("--statz", "/statz")] {
        if args.has(flag) {
            match http::get(addr, path, timeout) {
                Ok(r) if r.status == 200 => print!("{}", r.body_text()),
                Ok(r) => {
                    eprintln!("error: {path} answered {}", r.status);
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: {addr} unreachable: {e}");
                    std::process::exit(1);
                }
            }
            return Ok(());
        }
    }

    let request_json = |text: &str| {
        let mut request = ExpansionRequest::new(text);
        if let Some(k) = top_k {
            request = request.with_retrieval(k);
        }
        if let Some(n) = max_features {
            request = request.with_max_features(n);
        }
        serde_json::to_string(&request).expect("request serializes")
    };

    if let Some(n) = flood {
        // Forced overload: n concurrent one-shot connections. Every
        // one must get a clean, typed HTTP answer (200s and 503s both
        // count as clean; a hang, refused read, or malformed response
        // is a failure).
        let body = request_json(args.operand("--query").unwrap_or("flood probe"));
        let outcomes: Vec<Result<u16, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        http::post_json(addr, "/expand", &body, timeout)
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
        return Ok(());
    }

    // Workload mode: one query, a file, or the tier's seed query set.
    // Response bodies stream to stdout exactly as received, so the
    // output is byte-identical to `qgx replay --json` on the same
    // workload against the same world.
    let workload: Vec<String> = if let Some(text) = args.operand("--query") {
        vec![text.to_string()]
    } else if let Some(path) = args.operand("--queries") {
        read_query_file(path)
    } else {
        // --seed-queries: regenerate the tier's query set client-side — cheap (no
        // index), and identical to what `replay --seed-queries` serves.
        let config = args.tier().config();
        let wiki = querygraph_wiki::synth::generate(&config.wiki);
        let corpus = querygraph_corpus::synth::generate_corpus(&wiki, &config.corpus);
        corpus
            .queries
            .queries
            .iter()
            .map(|q| q.keywords.clone())
            .collect()
    };
    if workload.is_empty() {
        return Err(CliError("empty workload".into()));
    }
    let stdout = std::io::stdout();
    for _ in 0..repeat {
        for text in &workload {
            match http::post_json(addr, "/expand", &request_json(text), timeout) {
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
    Ok(())
}

// ---------------------------------------------------------------- shard

/// `qgx shard`: parse a fleet child's identity and run
/// [`serving::run_shard`] — one segment served over QGRP until the
/// supervisor's drain signal. A child launched without its identity
/// refuses rather than guesses.
fn run_shard(args: &Args) -> Result<(), CliError> {
    let dir: PathBuf = args.required("--segstore")?;
    let seq = args.required("--seq")?;
    let shard = args.required("--shard")?;
    let Hex(fingerprint) = args.required("--fingerprint")?;
    let listen = args.operand("--listen").unwrap_or("127.0.0.1:0");
    if let Err(e) = serving::run_shard(&dir, seq, shard, fingerprint, listen) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    Ok(())
}

// ------------------------------------------- dump / ingest / compact

/// `qgx dump`: write a tier's synthetic corpus as a Wikipedia-format
/// XML dump. `--skip`/`--docs` slice the corpus in document order, so
/// a world can be dumped in batches and ingested incrementally — the
/// live-swap path's test fixture.
fn run_dump(args: &Args) -> Result<(), CliError> {
    let out: String = args.required("--out")?;
    let skip = args.get("--skip")?.unwrap_or(0);
    let take = args.get("--docs")?.unwrap_or(usize::MAX);

    let config = args.tier().config();
    let t = Instant::now();
    let wiki = querygraph_wiki::synth::generate(&config.wiki);
    let corpus = querygraph_corpus::synth::generate_corpus(&wiki, &config.corpus);
    let total = corpus.corpus.len();
    let mut writer =
        querygraph_corpus::ingest::DumpWriter::create(Path::new(&out)).unwrap_or_else(|e| {
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
    Ok(())
}

/// Open the tier's segment store, pinned to the tier's world
/// fingerprint.
fn open_segstore(config: &ExperimentConfig, dir: &str) -> querygraph_retrieval::segstore::SegStore {
    let fingerprint = querygraph_core::cache::config_fingerprint(config);
    querygraph_retrieval::segstore::SegStore::open(Path::new(dir), fingerprint).unwrap_or_else(
        |e| {
            eprintln!("error: segment store {dir}: {e}");
            std::process::exit(1);
        },
    )
}

/// `qgx ingest`: stream a dump through `DumpStream` in bounded
/// memory, freezing every `--batch-docs` documents into one committed
/// `QGIX` segment. Never materializes the corpus: each document is
/// tokenized into the in-progress batch builder and dropped. With
/// `--compact n` the live set is merged into `n` segments afterwards.
fn run_ingest(args: &Args) -> Result<(), CliError> {
    let dump: String = args.required("--dump")?;
    let dir: String = args.required("--segstore")?;
    let batch_docs = args.get("--batch-docs")?.unwrap_or(10_000).max(1);
    let compact_to = args.get("--compact")?;

    let mut store = open_segstore(&args.tier().config(), &dir);
    let generation_before = store.manifest().generation;
    let mut stream = querygraph_corpus::ingest::DumpStream::from_path(Path::new(&dump))
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

    if let Some(shards) = compact_to {
        let (compaction_seconds, swap_pause_us) = serving::compact_and_measure(&mut store, shards)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
        eprintln!(
            "# qgx: compacted {segments_before_compaction} → {} segment(s) in \
             {compaction_seconds:.3}s (swap pause {swap_pause_us:.0}µs)",
            store.manifest().segments.len()
        );
    }
    Ok(())
}

/// `qgx compact`: merge the store's live segments into `--shards`
/// balanced ones (default 1) and publish the new generation. A live
/// `qgx serve --segstore` on the same store hot-swaps onto it.
fn run_compact(args: &Args) -> Result<(), CliError> {
    let dir: String = args.required("--segstore")?;
    let shards = args.get("--shards")?.unwrap_or(1);

    let mut store = open_segstore(&args.tier().config(), &dir);
    let segments_before = store.manifest().segments.len();
    let (compaction_seconds, swap_pause_us) = serving::compact_and_measure(&mut store, shards)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "# qgx: compacted {segments_before} → {} segment(s) ({} docs) in \
         {compaction_seconds:.3}s (swap pause {swap_pause_us:.0}µs); generation {}",
        store.manifest().segments.len(),
        store.manifest().total_docs(),
        store.manifest().generation
    );
    Ok(())
}
