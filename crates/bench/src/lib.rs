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
//! `--tiny` / `--quick` / `--stress` select the workload tier, and a
//! binary that takes more flags lists them (`repro_all`'s
//! `--index-cache <dir>` persists the inverted index across runs,
//! `core::cache`); any flag a binary does not list exits 2. [`serving`]
//! is how `qgx` serves a segment store.
//!
//! The crate writes one machine-readable record, [`BenchRecord`]
//! (`repro_all --bench-out`), because the repo benchmark's
//! `repro_batch` workload reads it. Serving and ingest timing is the
//! benchmark's job (`bash benchmark/run.sh`); `qgx` reports counts on
//! stderr and live counters on `/statz`, never a record file.

pub mod serving;

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
            // Bumped when a field changes meaning.
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
/// `--shards N` knob. The `Report` is byte-identical at any shard
/// count.
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
    /// `--bench-out <path>`: where `repro_all` writes its
    /// [`BenchRecord`] (no record is written without it).
    pub bench_out: Option<String>,
    /// `--shards <n>`: doc-partitioned shards, and the width of the
    /// index cache's segment store (`None`: not given; one shard).
    pub shards: Option<usize>,
}

/// The tier flags every repro binary takes. A flag table lists each
/// flag with whether it takes an operand.
const TIER_FLAGS: [(&str, bool); 4] = [
    ("--tiny", false),
    ("--quick", false),
    ("--stress", false),
    ("--track", false),
];

/// Exit 2 on any argument `known` does not list (operands of known
/// flags are skipped; `args[0]` is the program) — a typo'd flag must
/// not silently fall back to a different workload, such as the paper
/// tier or a query stream on stdin. `program` names the command in the
/// message.
pub fn reject_unknown_flags(args: &[String], known: &[(&str, bool)], program: &str) {
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with("--") {
            match known.iter().find(|(name, _)| name == arg) {
                Some((_, takes_operand)) => i += 1 + usize::from(*takes_operand),
                None => {
                    eprintln!(
                        "error: unknown flag {arg} for {program} (known: {})",
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

impl CliOptions {
    /// Parse `std::env::args`: the tier flags plus the binary's own
    /// `flags` (name, takes an operand). Exits 2 with a message on any
    /// other flag ([`reject_unknown_flags`]) or a missing operand.
    pub fn from_args(flags: &[(&str, bool)]) -> CliOptions {
        let args: Vec<String> = std::env::args().collect();
        let known: Vec<(&str, bool)> = TIER_FLAGS.iter().chain(flags).copied().collect();
        let program = args
            .first()
            .and_then(|arg0| std::path::Path::new(arg0).file_name())
            .map_or_else(|| "this command".into(), |name| name.to_string_lossy());
        reject_unknown_flags(&args, &known, &program);
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
        }
    }

    /// The [`WorldOptions`] these flags select.
    pub fn world_options(&self) -> WorldOptions {
        WorldOptions::sharded(self.shards.unwrap_or(1))
    }

    /// The configuration this invocation runs.
    pub fn config(&self) -> ExperimentConfig {
        self.tier.config()
    }
}

/// Parse the CLI of the repro binaries that take only the tier flags:
/// `--quick` switches to [`quick_config`], `--tiny` to [`tiny_config`],
/// `--stress` to the stress tier. Any other flag exits 2.
pub fn config_from_args() -> ExperimentConfig {
    CliOptions::from_args(&[]).config()
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
    fn cli_shards() {
        let defaults = opts(&[]);
        assert_eq!(defaults.shards, None);
        assert_eq!(defaults.world_options(), WorldOptions::default());
        assert_eq!(defaults.world_options().shard_count(), 1);
        let o = opts(&["--shards", "4"]);
        assert_eq!(o.shards, Some(4));
        let wo = o.world_options();
        assert_eq!(wo.shards, 4);
        assert_eq!(wo.shard_count(), 4);
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
