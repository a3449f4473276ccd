//! # querygraph-bench
//!
//! The reproduction harness: one `repro_*` binary per table and figure
//! of the paper (see DESIGN.md §3 for the index), plus Criterion
//! micro-benchmarks for the performance-critical kernels (`benches/`).
//!
//! All binaries run the same standard experiment
//! ([`standard_report`]) so their numbers are mutually consistent;
//! `repro_all` prints everything at once and is what EXPERIMENTS.md is
//! generated from. Common CLI (parsed by [`CliOptions::from_args`]):
//! `--tiny` / `--quick` / `--stress` select the workload tier and
//! `--index-cache <dir>` persists the inverted index across runs
//! (`core::cache`).

use querygraph_core::cache::{BuildStats, WorldOptions};
use querygraph_core::experiment::{ExperimentConfig, Report};
use querygraph_core::pipeline::RunSummary;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// The timing record `repro_all --bench-out <path>` writes: enough
/// configuration to identify the workload, the build-side breakdown,
/// and the pipeline's per-stage timing summary. The repo benchmark's
/// `repro_batch` trace (`benchmark/src/trace.rs`) reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Record-format version, bumped when fields change meaning.
    pub schema: u32,
    /// Queries in the analyzed workload.
    pub num_queries: usize,
    /// Topics in the synthetic Wikipedia.
    pub num_topics: usize,
    /// Articles per topic (the stress dial).
    pub articles_per_topic: usize,
    /// Synthetic-Wikipedia seed.
    pub wiki_seed: u64,
    /// Synthetic-corpus seed.
    pub corpus_seed: u64,
    /// Total seconds to synthesize and index/load the world.
    pub build_seconds: f64,
    /// Seconds to synthesize the wiki + corpus.
    pub world_seconds: f64,
    /// Seconds to tokenize + index the corpus (0 when loaded).
    pub index_build_seconds: f64,
    /// Seconds to write the index artifact (0 unless written).
    pub index_write_seconds: f64,
    /// Seconds to load the index artifact (0 unless loaded).
    pub index_load_seconds: f64,
    /// `"built"` or `"loaded"`.
    pub index_source: String,
    /// Physical shards behind the engine (1 = monolithic).
    pub shard_count: usize,
    /// Per-shard segment load seconds, in shard order (empty unless a
    /// sharded artifact was loaded).
    pub shard_load_seconds: Vec<f64>,
    /// The pipeline run: mode, threads, wall clock, per-stage seconds.
    pub run: RunSummary,
}

impl BenchRecord {
    /// Assemble a record from a finished run.
    pub fn new(config: &ExperimentConfig, build: &BuildStats, run: RunSummary) -> BenchRecord {
        BenchRecord {
            // One counter shared by every record kind this crate emits.
            schema: 9,
            num_queries: config.corpus.num_queries,
            num_topics: config.wiki.num_topics,
            articles_per_topic: config.wiki.articles_per_topic,
            wiki_seed: config.wiki.seed,
            corpus_seed: config.corpus.seed,
            build_seconds: build.total_seconds(),
            world_seconds: build.world_seconds,
            index_build_seconds: build.index_build_seconds,
            index_write_seconds: build.index_write_seconds,
            index_load_seconds: build.index_load_seconds,
            index_source: build.index_source.name().to_string(),
            shard_count: build.shard_count,
            shard_load_seconds: build.shard_load_seconds.clone(),
            run,
        }
    }
}

/// Latency distribution of one serving run, in microseconds.
/// Percentiles use the nearest-rank method on the sorted samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median per-query latency.
    pub p50_us: f64,
    /// 90th-percentile latency.
    pub p90_us: f64,
    /// 99th-percentile latency (the tail a serving SLO watches).
    pub p99_us: f64,
    /// Worst observed latency.
    pub max_us: f64,
    /// Mean latency.
    pub mean_us: f64,
}

impl LatencySummary {
    /// Summarize raw per-query latencies (microseconds). Returns the
    /// all-zero summary for an empty sample set.
    pub fn of(samples: &[f64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary {
                p50_us: 0.0,
                p90_us: 0.0,
                p99_us: 0.0,
                max_us: 0.0,
                mean_us: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = |p: f64| -> f64 {
            // Nearest rank: ceil(p/100 * n), 1-based.
            let n = sorted.len();
            let r = ((p / 100.0) * n as f64).ceil() as usize;
            sorted[r.clamp(1, n) - 1]
        };
        LatencySummary {
            p50_us: rank(50.0),
            p90_us: rank(90.0),
            p99_us: rank(99.0),
            max_us: sorted[sorted.len() - 1],
            mean_us: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// Summarize a serving-side histogram snapshot (the
    /// constant-memory `latency_mode: "histogram"` path): percentiles
    /// are bucket upper bounds (≤ +9.1% of exact, never below); max
    /// and mean are exact.
    pub fn from_histogram(snap: &querygraph_core::HistogramSnapshot) -> LatencySummary {
        LatencySummary {
            p50_us: snap.percentile_us(50.0),
            p90_us: snap.percentile_us(90.0),
            p99_us: snap.percentile_us(99.0),
            max_us: snap.max_us(),
            mean_us: snap.mean_us(),
        }
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "p50 {:.1}µs  p90 {:.1}µs  p99 {:.1}µs  max {:.1}µs  mean {:.1}µs",
            self.p50_us, self.p90_us, self.p99_us, self.max_us, self.mean_us
        )
    }
}

/// The serving half of a [`ServeRecord`]: what the `qgx` loop measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Expansion strategy served (`cycles`, `direct-links`, …).
    pub strategy: String,
    /// Queries answered successfully.
    pub queries_served: usize,
    /// Requests that returned a typed error (unlinkable text etc.).
    pub failures: usize,
    /// Workload repetitions (`--repeat`).
    pub repeat: usize,
    /// Documents retrieved per query (0 = expansion only).
    pub top_k: usize,
    /// Worker threads (1 = the sequential serve loop).
    pub threads: usize,
    /// Per-query scatter width across shards (`--shard-threads`;
    /// always 1 for the monolithic engine), so records taken at
    /// different scatter settings stay distinguishable.
    pub shard_threads: usize,
    /// Supervised `qgx shard` processes behind the served engine
    /// (`--shard-procs`; 0 = the engine ran in this process), so
    /// records taken across the process boundary stay distinguishable
    /// from in-process ones even though the answers are byte-identical.
    pub shard_procs: usize,
    /// End-to-end seconds spent serving (excludes world/index setup).
    pub total_seconds: f64,
    /// Queries per second over `total_seconds` (errors included — they
    /// are answered requests too).
    pub qps: f64,
    /// `qps / threads`: per-worker throughput, so thread-count scaling
    /// is readable straight off the record trajectory.
    pub qps_per_thread: f64,
    /// Retrieval execution mode served (`exact` or `pruned`), so
    /// records taken at different modes stay distinguishable.
    pub search_mode: String,
    /// Expansion-cache hits over the serve loop (0 without a cache).
    pub cache_hits: u64,
    /// Expansion-cache lookups over the serve loop (0 without a cache).
    pub cache_lookups: u64,
    /// `cache_hits / cache_lookups` (0.0 without a cache or lookups).
    pub cache_hit_rate: f64,
    /// Connections shed at the edge with 503 (always 0 for the
    /// in-process replay path — nothing queues there).
    pub shed: u64,
    /// Requests refused with a typed deadline timeout (408 over HTTP).
    pub timeouts: u64,
    /// Typed failures by wire code (`ServiceError::code` /
    /// `ParseError::code` values; empty when nothing failed).
    pub error_codes: std::collections::BTreeMap<String, u64>,
    /// How `latency` (and `conn_latency`) were computed: `"exact"` —
    /// nearest-rank percentiles over every raw sample (the bounded
    /// replay tiers) — or `"histogram"` — the log-bucketed
    /// constant-memory histogram long `qgx serve` runs record into,
    /// whose percentiles are bucket upper bounds (≤ +9.1% of exact,
    /// never below).
    pub latency_mode: String,
    /// Per-query latency distribution.
    pub latency: LatencySummary,
    /// Per-connection lifetime distribution (networked serving only;
    /// `None` for the in-process replay path).
    pub conn_latency: Option<LatencySummary>,
}

/// The record `qgx serve`/`qgx replay --bench-out <path>` write. The
/// identification and build-side fields keep the names and meaning
/// they have in [`BenchRecord`]; CI's smoke jobs and
/// `crates/bench/tests` assert on the `serve` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRecord {
    /// Record-format version (shared counter with [`BenchRecord`]).
    pub schema: u32,
    /// Record kind discriminator: always `"serve"` (run records have
    /// no `kind` field and read as pipeline runs).
    pub kind: String,
    /// Queries in **one repetition of the actually served workload**
    /// (a `--queries` file can be any size; the tier's configured
    /// count is *not* assumed), so QPS/latency denominators are
    /// interpretable from the record alone.
    pub num_queries: usize,
    /// Topics in the synthetic Wikipedia.
    pub num_topics: usize,
    /// Articles per topic (the stress dial).
    pub articles_per_topic: usize,
    /// Synthetic-Wikipedia seed.
    pub wiki_seed: u64,
    /// Synthetic-corpus seed.
    pub corpus_seed: u64,
    /// Total seconds to synthesize and index/load the world.
    pub build_seconds: f64,
    /// Seconds to synthesize the wiki (+ corpus when needed).
    pub world_seconds: f64,
    /// Seconds to tokenize + index the corpus (0 when loaded).
    pub index_build_seconds: f64,
    /// Seconds to write the index artifact (0 unless written).
    pub index_write_seconds: f64,
    /// Seconds to load the index artifact (0 unless loaded).
    pub index_load_seconds: f64,
    /// `"built"` or `"loaded"`.
    pub index_source: String,
    /// Physical shards behind the engine (1 = monolithic).
    pub shard_count: usize,
    /// Per-shard segment load seconds, in shard order (empty unless a
    /// sharded artifact was loaded).
    pub shard_load_seconds: Vec<f64>,
    /// The socket address served (`None` for the in-process replay
    /// path; the `qgx serve` record carries the actual bound address).
    pub listen_addr: Option<String>,
    /// The serving measurements.
    pub serve: ServeSummary,
}

impl ServeRecord {
    /// Assemble a record from a finished serve loop.
    /// `workload_queries` is the size of one repetition of the served
    /// workload (file line count, seed query count, or stdin queries
    /// answered).
    pub fn new(
        config: &ExperimentConfig,
        build: &BuildStats,
        workload_queries: usize,
        serve: ServeSummary,
    ) -> ServeRecord {
        ServeRecord {
            schema: 9,
            kind: "serve".to_string(),
            num_queries: workload_queries,
            num_topics: config.wiki.num_topics,
            articles_per_topic: config.wiki.articles_per_topic,
            wiki_seed: config.wiki.seed,
            corpus_seed: config.corpus.seed,
            build_seconds: build.total_seconds(),
            world_seconds: build.world_seconds,
            index_build_seconds: build.index_build_seconds,
            index_write_seconds: build.index_write_seconds,
            index_load_seconds: build.index_load_seconds,
            index_source: build.index_source.name().to_string(),
            shard_count: build.shard_count,
            shard_load_seconds: build.shard_load_seconds.clone(),
            listen_addr: None,
            serve,
        }
    }
}

/// The ingest half of an [`IngestRecord`]: what `qgx ingest` /
/// `qgx compact` measured over a segment store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestSummary {
    /// Documents streamed out of the dump and indexed.
    pub docs_ingested: u64,
    /// Ingest batches committed (one segment + one generation each).
    pub batches: usize,
    /// Wall seconds spent streaming + indexing + committing.
    pub ingest_seconds: f64,
    /// `docs_ingested / ingest_seconds` (0.0 for an empty run).
    pub docs_per_second: f64,
    /// High-water mark of the streaming frame buffer, in bytes — the
    /// bounded-memory claim, measured (`DumpStream::peak_buffer_bytes`).
    pub peak_buffer_bytes: usize,
    /// Live segments before compaction (equals after when no
    /// compaction ran).
    pub segments_before_compaction: usize,
    /// Live segments after compaction.
    pub segments_after_compaction: usize,
    /// Wall seconds spent compacting (0.0 when no compaction ran).
    pub compaction_seconds: f64,
    /// Microseconds a live server paused queries while swapping onto a
    /// new generation (0 when the run didn't swap a live engine).
    pub swap_pause_us: f64,
    /// The store generation this run left live.
    pub generation: u64,
}

/// The record `qgx ingest`/`qgx compact --bench-out <path>` write —
/// shares the [`BenchRecord`] schema counter and identification
/// fields; CI's `ingest-smoke` job asserts on the `ingest` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestRecord {
    /// Record-format version (shared counter with [`BenchRecord`]).
    pub schema: u32,
    /// Record kind discriminator: always `"ingest"`.
    pub kind: String,
    /// Queries the workload tier configures (identification only; an
    /// ingest run answers none).
    pub num_queries: usize,
    /// Topics in the synthetic Wikipedia.
    pub num_topics: usize,
    /// Articles per topic (the stress dial).
    pub articles_per_topic: usize,
    /// Synthetic-Wikipedia seed.
    pub wiki_seed: u64,
    /// Synthetic-corpus seed.
    pub corpus_seed: u64,
    /// The ingest measurements.
    pub ingest: IngestSummary,
}

impl IngestRecord {
    /// Assemble a record from a finished ingest/compact run.
    pub fn new(config: &ExperimentConfig, ingest: IngestSummary) -> IngestRecord {
        IngestRecord {
            schema: 9,
            kind: "ingest".to_string(),
            num_queries: config.corpus.num_queries,
            num_topics: config.wiki.num_topics,
            articles_per_topic: config.wiki.articles_per_topic,
            wiki_seed: config.wiki.seed,
            corpus_seed: config.corpus.seed,
            ingest,
        }
    }
}

/// Build the paper-scale experiment and analyze all 50 queries using
/// all available cores. Prints provenance (seeds, sizes, timing) to
/// stderr so stdout stays clean table output.
pub fn standard_report() -> Report {
    report_for(&ExperimentConfig::default_paper())
}

/// Build and run an experiment for an explicit configuration.
pub fn report_for(config: &ExperimentConfig) -> Report {
    report_and_summary(config).0
}

/// [`report_for`], also returning the pipeline's [`RunSummary`] and the
/// build-side [`BuildStats`] — the numbers `repro_all` archives.
pub fn report_and_summary(config: &ExperimentConfig) -> (Report, RunSummary, BuildStats) {
    report_and_summary_cached(config, None)
}

/// [`report_and_summary`] with an optional index-cache directory: the
/// first run builds and persists the inverted index, subsequent runs
/// load it (byte-identical `Report` either way).
pub fn report_and_summary_cached(
    config: &ExperimentConfig,
    index_cache: Option<&std::path::Path>,
) -> (Report, RunSummary, BuildStats) {
    report_and_summary_with(config, index_cache, &WorldOptions::default())
}

/// [`report_and_summary_cached`] with explicit [`WorldOptions`]: the
/// `--shards N` / `--mmap` knobs. The `Report` is byte-identical at any
/// shard count.
pub fn report_and_summary_with(
    config: &ExperimentConfig,
    index_cache: Option<&std::path::Path>,
    options: &WorldOptions,
) -> (Report, RunSummary, BuildStats) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    eprintln!(
        "# querygraph reproduction: wiki seed {:#x}, corpus seed {:#x}, {} queries, {} threads, \
         {} shard(s)",
        config.wiki.seed,
        config.corpus.seed,
        config.corpus.num_queries,
        threads,
        options.shard_count(),
    );
    let t0 = Instant::now();
    let (experiment, build) =
        querygraph_core::cache::build_experiment_with(config, index_cache, options);
    let build_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "# built: {} articles, {} categories, {} docs, {build_seconds:.2}s \
         (world {:.2}s, index {} {:.2}s)",
        experiment.wiki.kb.num_articles(),
        experiment.wiki.kb.num_categories(),
        experiment.corpus.corpus.len(),
        build.world_seconds,
        build.index_source.name(),
        build.index_build_seconds + build.index_write_seconds + build.index_load_seconds,
    );
    let (report, summary) = experiment.run_parallel_with_summary(threads);
    eprint!("{}", indent_hash(&summary.render()));
    (report, summary, build)
}

fn indent_hash(s: &str) -> String {
    s.lines().map(|l| format!("# {l}\n")).collect()
}

/// The test-scale configuration (`--tiny` flag of the repro binaries):
/// the same miniature world the unit tests use.
pub fn tiny_config() -> ExperimentConfig {
    ExperimentConfig::tiny()
}

/// A smaller configuration for quick looks (`--quick` flag of the repro
/// binaries): 12 queries instead of 50.
pub fn quick_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::default_paper();
    cfg.wiki.num_topics = 12;
    cfg.corpus.num_queries = 12;
    cfg.corpus.noise_docs = 300;
    cfg
}

/// The paper-scale stress configuration (`--stress`): a 100k+ article
/// knowledge base and ~31k documents.
pub fn stress_config() -> ExperimentConfig {
    ExperimentConfig::stress()
}

/// `--stress --quick`: the same stress-scale world, but only 8 of the
/// 60 queries analyzed — world synthesis and indexing (what the stress
/// tier measures) are untouched while CI stays fast.
pub fn stress_quick_config() -> ExperimentConfig {
    ExperimentConfig::stress_sampled(8)
}

/// The track-scale configuration (`--track`): the stress knowledge
/// base over a ~237k-document corpus — the ImageCLEF 2011 Wikipedia
/// track's size, and the tier `qgx ingest` exists for.
pub fn track_config() -> ExperimentConfig {
    ExperimentConfig::track()
}

/// `--track --quick`: the same ~237k-document world, but only 6 of the
/// 60 queries analyzed, so CI can build and serve the track tier in its
/// sampled lane.
pub fn track_quick_config() -> ExperimentConfig {
    ExperimentConfig::track_sampled(6)
}

/// Workload tiers selected by the shared CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `--tiny` — the unit-test world.
    Tiny,
    /// `--quick` — 12 queries.
    Quick,
    /// default — the paper-scale seed world.
    Paper,
    /// `--stress` — 100k+ articles.
    Stress,
    /// `--stress --quick` — stress world, sampled queries.
    StressQuick,
    /// `--track` — the ~237k-document ingest tier.
    Track,
    /// `--track --quick` — track world, sampled queries.
    TrackQuick,
}

impl Tier {
    /// The configuration this tier runs.
    pub fn config(self) -> ExperimentConfig {
        match self {
            Tier::Tiny => tiny_config(),
            Tier::Quick => quick_config(),
            Tier::Paper => ExperimentConfig::default_paper(),
            Tier::Stress => stress_config(),
            Tier::StressQuick => stress_quick_config(),
            Tier::Track => track_config(),
            Tier::TrackQuick => track_quick_config(),
        }
    }
}

/// The shared CLI of the repro binaries.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Selected workload tier.
    pub tier: Tier,
    /// `--index-cache <dir>`: persist/load the inverted index there.
    pub index_cache: Option<PathBuf>,
    /// `--bench-out <path>`: write the run's timing record there
    /// (no record is written without it).
    pub bench_out: Option<String>,
    /// `--shards <n>`: doc-partitioned sharded backend + segmented
    /// artifact layout (`None`: monolithic).
    pub shards: Option<usize>,
    /// `--mmap`: memory-map index artifacts instead of reading them.
    pub mmap: bool,
}

/// The operand following `flag` in `args`, when the flag is present.
/// Exits with a message when the flag is last (missing operand) — the
/// shared behaviour of every repro/serve binary's CLI.
pub fn flag_operand(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|pos| {
        args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} requires an operand");
            std::process::exit(2);
        })
    })
}

/// [`flag_operand`] parsed as a number; exits with a message on a
/// non-numeric operand.
pub fn flag_usize(args: &[String], flag: &str) -> Option<usize> {
    flag_operand(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} operand must be a number, got {v:?}");
            std::process::exit(2);
        })
    })
}

/// [`flag_operand`] parsed as a float; exits with a message on a
/// non-numeric operand.
pub fn flag_f64(args: &[String], flag: &str) -> Option<f64> {
    flag_operand(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} operand must be a number, got {v:?}");
            std::process::exit(2);
        })
    })
}

/// Seeded Zipf-distributed index sampler — `qgx replay --zipf <s>`'s
/// head-heavy workload generator. Index `i` (0-based rank) is drawn
/// with probability ∝ 1/(i+1)^s via inverse-CDF over the cumulative
/// weights, so `s = 0` is uniform and larger `s` concentrates mass on
/// the first few queries of the pool — the repeat-heavy distribution a
/// serving cache exists for. Deterministic for a given `(n, s, seed)`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative unnormalized weights; `cum[i]` = Σ_{r≤i} 1/(r+1)^s.
    cum: Vec<f64>,
    rng: rand::rngs::StdRng,
}

impl ZipfSampler {
    /// Sampler over `0..n` with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// If `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfSampler {
        use rand::SeedableRng;
        assert!(n > 0, "ZipfSampler over an empty pool");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be ≥ 0");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cum.push(total);
        }
        ZipfSampler {
            cum,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// Draw one index in `0..n`.
    pub fn sample(&mut self) -> usize {
        use rand::Rng;
        let total = *self.cum.last().expect("nonempty pool");
        let x = self.rng.gen_range(0.0..total);
        // First rank whose cumulative weight exceeds the draw.
        self.cum
            .partition_point(|&c| c <= x)
            .min(self.cum.len() - 1)
    }
}

impl CliOptions {
    /// Parse `std::env::args`. Exits with a message on malformed flags
    /// (missing `--index-cache` / `--bench-out` operand).
    pub fn from_args() -> CliOptions {
        let args: Vec<String> = std::env::args().collect();
        Self::from_vec(&args)
    }

    /// Parse an explicit argument vector (testable).
    pub fn from_vec(args: &[String]) -> CliOptions {
        let has = |flag: &str| args.iter().any(|a| a == flag);
        let operand = |flag: &'static str| flag_operand(args, flag);
        let tier = match (
            has("--track"),
            has("--stress"),
            has("--quick"),
            has("--tiny"),
        ) {
            (true, _, true, _) => Tier::TrackQuick,
            (true, _, false, _) => Tier::Track,
            (false, true, true, _) => Tier::StressQuick,
            (false, true, false, _) => Tier::Stress,
            (false, false, _, true) => Tier::Tiny,
            (false, false, true, false) => Tier::Quick,
            _ => Tier::Paper,
        };
        CliOptions {
            tier,
            index_cache: operand("--index-cache").map(PathBuf::from),
            bench_out: operand("--bench-out"),
            shards: flag_usize(args, "--shards").map(|n| n.max(1)),
            mmap: has("--mmap"),
        }
    }

    /// The [`WorldOptions`] these flags select.
    pub fn world_options(&self) -> WorldOptions {
        WorldOptions {
            shards: self.shards,
            mmap: self.mmap,
        }
    }

    /// The configuration this invocation runs.
    pub fn config(&self) -> ExperimentConfig {
        self.tier.config()
    }
}

/// Parse the common CLI of the repro binaries: `--quick` switches to
/// [`quick_config`], `--tiny` to [`tiny_config`], `--stress` to the
/// stress tier.
pub fn config_from_args() -> ExperimentConfig {
    CliOptions::from_args().config()
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_core::experiment::Experiment;

    fn opts(args: &[&str]) -> CliOptions {
        let v: Vec<String> = std::iter::once("bin".to_string())
            .chain(args.iter().map(|s| s.to_string()))
            .collect();
        CliOptions::from_vec(&v)
    }

    #[test]
    fn quick_config_is_consistent() {
        let cfg = quick_config();
        assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
    }

    #[test]
    fn stress_configs_are_consistent() {
        for cfg in [stress_config(), stress_quick_config()] {
            assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
            assert!(cfg.wiki.num_topics * cfg.wiki.articles_per_topic >= 100_000);
        }
        assert!(stress_quick_config().corpus.num_queries < stress_config().corpus.num_queries);
    }

    #[test]
    fn cli_tier_selection() {
        assert_eq!(opts(&[]).tier, Tier::Paper);
        assert_eq!(opts(&["--tiny"]).tier, Tier::Tiny);
        assert_eq!(opts(&["--quick"]).tier, Tier::Quick);
        assert_eq!(opts(&["--stress"]).tier, Tier::Stress);
        assert_eq!(opts(&["--stress", "--quick"]).tier, Tier::StressQuick);
        assert_eq!(opts(&["--track"]).tier, Tier::Track);
        assert_eq!(opts(&["--track", "--quick"]).tier, Tier::TrackQuick);
    }

    #[test]
    fn track_configs_are_consistent() {
        for cfg in [track_config(), track_quick_config()] {
            assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
            assert!(
                cfg.corpus.noise_docs >= 200_000,
                "track must be track-scale"
            );
        }
        assert!(track_quick_config().corpus.num_queries < track_config().corpus.num_queries);
        assert_eq!(Tier::Track.config(), track_config());
        assert_eq!(Tier::TrackQuick.config(), track_quick_config());
    }

    #[test]
    fn cli_index_cache_path() {
        assert_eq!(opts(&[]).index_cache, None);
        assert_eq!(
            opts(&["--index-cache", "/tmp/cache"]).index_cache,
            Some(PathBuf::from("/tmp/cache"))
        );
    }

    #[test]
    fn cli_shards_and_mmap() {
        let defaults = opts(&[]);
        assert_eq!(defaults.shards, None);
        assert!(!defaults.mmap);
        assert_eq!(defaults.world_options().shard_count(), 1);
        let o = opts(&["--shards", "4", "--mmap"]);
        assert_eq!(o.shards, Some(4));
        assert!(o.mmap);
        let wo = o.world_options();
        assert_eq!(wo.shards, Some(4));
        assert_eq!(wo.shard_count(), 4);
        assert_eq!(
            wo.source(),
            querygraph_retrieval::ondisk::ArtifactSource::Mmap
        );
        // --shards 0 is clamped to 1 shard rather than rejected.
        assert_eq!(opts(&["--shards", "0"]).shards, Some(1));
    }

    #[test]
    fn cli_bench_out_is_unset_by_default() {
        assert_eq!(opts(&["--tiny"]).bench_out, None);
        let o = opts(&["--tiny", "--bench-out", "custom.json"]);
        assert_eq!(o.bench_out.as_deref(), Some("custom.json"));
    }

    #[test]
    fn zipf_sampler_is_seeded_head_heavy_and_in_range() {
        let draws = 4000;
        let mut counts = [0usize; 10];
        let mut a = ZipfSampler::new(10, 1.2, 0xBEEF);
        for _ in 0..draws {
            let i = a.sample();
            assert!(i < 10, "sample out of range: {i}");
            counts[i] += 1;
        }
        // Head-heavy: rank 0 dominates, and the head outweighs the tail.
        assert!(counts[0] > counts[1], "rank 0 must lead: {counts:?}");
        assert!(
            counts[0] + counts[1] > counts[5..].iter().sum::<usize>(),
            "head must outweigh the tail: {counts:?}"
        );
        // Deterministic: the same (n, s, seed) replays the same stream.
        let mut b = ZipfSampler::new(10, 1.2, 0xBEEF);
        let mut c = ZipfSampler::new(10, 1.2, 0xBEEF);
        let replay: Vec<usize> = (0..100).map(|_| b.sample()).collect();
        assert_eq!(replay, (0..100).map(|_| c.sample()).collect::<Vec<_>>());
        // s = 0 degenerates to uniform: every index is reachable.
        let mut u = ZipfSampler::new(4, 0.0, 7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[u.sample()] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn flag_f64_parses() {
        let args: Vec<String> = ["bin", "--zipf", "1.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_f64(&args, "--zipf"), Some(1.5));
        assert_eq!(flag_f64(&args, "--absent"), None);
    }

    #[test]
    fn latency_summary_percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::of(&samples);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p90_us, 90.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
        assert!((s.mean_us - 50.5).abs() < 1e-12);
        // Small sample: nearest rank clamps sanely.
        let one = LatencySummary::of(&[7.0]);
        assert_eq!((one.p50_us, one.p99_us, one.max_us), (7.0, 7.0, 7.0));
        let empty = LatencySummary::of(&[]);
        assert_eq!(empty.max_us, 0.0);
        assert!(one.render().contains("p99 7.0µs"));
    }

    #[test]
    fn serve_record_reports_actual_workload_size() {
        use querygraph_core::cache::IndexSource;
        let build = BuildStats {
            world_seconds: 0.5,
            index_build_seconds: 0.0,
            index_write_seconds: 0.0,
            index_load_seconds: 0.125,
            index_source: IndexSource::Loaded,
            shard_count: 1,
            shard_load_seconds: Vec::new(),
        };
        let mut error_codes = std::collections::BTreeMap::new();
        error_codes.insert("no_linked_entities".to_string(), 1u64);
        let serve = ServeSummary {
            strategy: "cycles".to_string(),
            queries_served: 9,
            failures: 1,
            repeat: 2,
            top_k: 5,
            threads: 2,
            shard_threads: 1,
            shard_procs: 0,
            total_seconds: 0.5,
            qps: 20.0,
            qps_per_thread: 10.0,
            search_mode: "exact".to_string(),
            cache_hits: 4,
            cache_lookups: 10,
            cache_hit_rate: 0.4,
            shed: 3,
            timeouts: 2,
            error_codes,
            latency_mode: "exact".to_string(),
            latency: LatencySummary::of(&[100.0, 200.0]),
            conn_latency: Some(LatencySummary::of(&[150.0, 300.0])),
        };
        // A 5-query file served twice: the record says 5, not the
        // tier's configured count.
        let mut record = ServeRecord::new(&tiny_config(), &build, 5, serve);
        record.listen_addr = Some("127.0.0.1:8080".to_string());
        assert_eq!(record.num_queries, 5, "workload size, not the tier's count");
        assert_eq!(record.kind, "serve");
        assert_eq!(record.index_source, "loaded");
        assert_eq!(record.shard_count, 1);
        let json = serde_json::to_string(&record).expect("record serializes");
        for field in [
            "\"kind\"",
            "\"serve\"",
            "p50_us",
            "qps",
            "qps_per_thread",
            "strategy",
            "shard_count",
            "search_mode",
            "cache_hits",
            "cache_lookups",
            "cache_hit_rate",
            "shard_procs",
            "\"shed\"",
            "\"timeouts\"",
            "error_codes",
            "no_linked_entities",
            "latency_mode",
            "\"exact\"",
            "listen_addr",
            "conn_latency",
        ] {
            assert!(json.contains(field), "record missing {field}");
        }
        let back: ServeRecord = serde_json::from_str(&json).expect("record parses");
        assert_eq!(back, record);
        // The in-process replay shape: no address, no connections.
        let mut plain = record.clone();
        plain.listen_addr = None;
        plain.serve.conn_latency = None;
        let json = serde_json::to_string(&plain).expect("record serializes");
        let back: ServeRecord = serde_json::from_str(&json).expect("record parses");
        assert_eq!(back, plain);
    }

    #[test]
    fn ingest_record_round_trips_and_carries_measurements() {
        let ingest = IngestSummary {
            docs_ingested: 1000,
            batches: 4,
            ingest_seconds: 2.0,
            docs_per_second: 500.0,
            peak_buffer_bytes: 70_000,
            segments_before_compaction: 4,
            segments_after_compaction: 2,
            compaction_seconds: 0.25,
            swap_pause_us: 120.0,
            generation: 5,
        };
        let record = IngestRecord::new(&tiny_config(), ingest);
        assert_eq!(record.schema, 9);
        assert_eq!(record.kind, "ingest");
        let json = serde_json::to_string(&record).expect("record serializes");
        for field in [
            "\"ingest\"",
            "docs_ingested",
            "docs_per_second",
            "peak_buffer_bytes",
            "segments_before_compaction",
            "segments_after_compaction",
            "compaction_seconds",
            "swap_pause_us",
            "generation",
        ] {
            assert!(json.contains(field), "record missing {field}");
        }
        let back: IngestRecord = serde_json::from_str(&json).expect("record parses");
        assert_eq!(back, record);
    }

    #[test]
    fn bench_record_schema_9_carries_build_breakdown() {
        use querygraph_core::cache::IndexSource;
        let build = BuildStats {
            world_seconds: 0.5,
            index_build_seconds: 0.0,
            index_write_seconds: 0.0,
            index_load_seconds: 0.125,
            index_source: IndexSource::Loaded,
            shard_count: 1,
            shard_load_seconds: Vec::new(),
        };
        let exp = Experiment::build(&tiny_config());
        let (_, run) = exp.run_parallel_with_summary(2);
        let record = BenchRecord::new(&tiny_config(), &build, run);
        assert_eq!(record.schema, 9);
        assert_eq!(record.index_source, "loaded");
        assert_eq!(record.shard_count, 1);
        assert!(record.shard_load_seconds.is_empty());
        assert!((record.build_seconds - 0.625).abs() < 1e-12);
        let json = serde_json::to_string(&record).expect("record serializes");
        for field in [
            "world_seconds",
            "index_build_seconds",
            "index_write_seconds",
            "index_load_seconds",
            "index_source",
            "articles_per_topic",
            "shard_count",
            "shard_load_seconds",
        ] {
            assert!(json.contains(field), "record missing {field}");
        }
        let back: BenchRecord = serde_json::from_str(&json).expect("record parses");
        assert_eq!(back, record);
    }
}
