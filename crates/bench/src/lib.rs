//! # querygraph-bench
//!
//! The reproduction harness: one `repro_*` binary per table and figure
//! of the paper (see DESIGN.md §3 for the index), plus Criterion
//! micro-benchmarks for the performance-critical kernels (`benches/`).
//!
//! All binaries run the same standard experiment
//! ([`report_for`]) so their numbers are mutually consistent;
//! `repro_all` prints everything at once. Every binary parses its argv
//! once, with [`Args::parse`] against its flag table: `--tiny` /
//! `--quick` / `--stress [--quick]` / `--track [--quick]` select the
//! workload tier, and a binary that takes more flags lists them
//! (`repro_all`'s `--index-cache <dir>` persists the inverted index
//! across runs, `core::cache`); any other argument exits 2.
//! [`serving`] is how `qgx` serves a segment store.
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

/// Build and run an experiment for an explicit configuration. Prints
/// provenance (seeds, sizes, timing) to stderr so stdout stays clean
/// table output.
pub fn report_for(config: &ExperimentConfig) -> Report {
    report_and_summary_with(config, None, &WorldOptions::default()).0
}

/// [`report_for`] with an optional index-cache directory (the first run
/// builds and persists the inverted index, later runs load it) and
/// explicit [`WorldOptions`] (the `--shards N` knob), also returning the
/// pipeline's [`RunSummary`] and the build-side [`BuildStats`] — the
/// numbers `repro_all` archives. The `Report` is byte-identical either
/// way and at any shard count.
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

/// Workload tiers selected by the shared CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `--tiny` — the unit-test world.
    Tiny,
    /// `--quick` — the paper world cut to 12 topics and 12 queries.
    Quick,
    /// default — the paper-scale seed world.
    Paper,
    /// `--stress` — a 100k+ article knowledge base and ~31k documents.
    Stress,
    /// `--stress --quick` — the stress world with 8 of its 60 queries
    /// analyzed: world synthesis and indexing (what the stress tier
    /// measures) are untouched while CI stays fast.
    StressQuick,
    /// `--track` — the stress knowledge base over a ~237k-document
    /// corpus, the ImageCLEF 2011 Wikipedia track's size and the tier
    /// `qgx ingest` exists for.
    Track,
    /// `--track --quick` — the track world with 6 of its 60 queries
    /// analyzed, so CI can build and serve it in its sampled lane.
    TrackQuick,
}

impl Tier {
    /// The configuration this tier runs.
    pub fn config(self) -> ExperimentConfig {
        match self {
            Tier::Tiny => ExperimentConfig::tiny(),
            Tier::Quick => {
                let mut cfg = ExperimentConfig::default_paper();
                cfg.wiki.num_topics = 12;
                cfg.corpus.num_queries = 12;
                cfg.corpus.noise_docs = 300;
                cfg
            }
            Tier::Paper => ExperimentConfig::default_paper(),
            Tier::Stress => ExperimentConfig::stress(),
            Tier::StressQuick => ExperimentConfig::stress_sampled(8),
            Tier::Track => ExperimentConfig::track(),
            Tier::TrackQuick => ExperimentConfig::track_sampled(6),
        }
    }
}

/// One flag of a command's table: its name and whether it takes an
/// operand.
pub type Flag = (&'static str, bool);

/// The tier flags of every binary that builds a world.
pub const TIER_FLAGS: [Flag; 4] = [
    ("--tiny", false),
    ("--quick", false),
    ("--stress", false),
    ("--track", false),
];

/// A usage error: the binary prints it and exits 2 before doing any
/// work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl CliError {
    /// Print `error: …` and exit 2 — how every `main` reports a
    /// [`CliError`].
    pub fn exit(self) -> ! {
        eprintln!("error: {}", self.0);
        std::process::exit(2);
    }
}

/// An argument vector parsed once, left to right, against a flag
/// table. Every flag is listed, none repeats, an operand never starts
/// with `--`, the tier flags name one tier, and `--shards` is at least
/// 1; anything else is a [`CliError`].
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
    tier: Tier,
}

impl Args {
    /// Parse `argv` (without the program name) against the flags of
    /// `table`, whose parts together are the command's flag table.
    pub fn parse(argv: &[String], table: &[&[Flag]]) -> Result<Args, CliError> {
        let known = || table.iter().flat_map(|part| part.iter());
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(&(name, takes_operand)) = known().find(|(name, _)| name == arg) else {
                return Err(CliError(if arg.starts_with("--") {
                    let names: Vec<&str> = known().map(|(name, _)| *name).collect();
                    format!("unknown flag {arg} (known: {})", names.join(" "))
                } else {
                    format!("unexpected argument {arg:?}")
                }));
            };
            if given.iter().any(|(seen, _)| *seen == name) {
                return Err(CliError(format!("{name} given twice")));
            }
            let operand = if takes_operand {
                match rest.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => return Err(CliError(format!("{name} requires an operand"))),
                }
            } else {
                None
            };
            given.push((name, operand));
        }
        let mut args = Args {
            given,
            tier: Tier::Paper,
        };
        let tier_flags: Vec<&str> = TIER_FLAGS
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| args.has(name))
            .collect();
        args.tier = match tier_flags[..] {
            [] => Tier::Paper,
            ["--tiny"] => Tier::Tiny,
            ["--quick"] => Tier::Quick,
            ["--stress"] => Tier::Stress,
            ["--quick", "--stress"] => Tier::StressQuick,
            ["--track"] => Tier::Track,
            ["--quick", "--track"] => Tier::TrackQuick,
            _ => {
                return Err(CliError(format!(
                    "conflicting tier flags {} (pick one of --tiny, --quick, \
                     --stress [--quick], --track [--quick])",
                    tier_flags.join(" ")
                )))
            }
        };
        if args.get::<usize>("--shards")? == Some(0) {
            return Err(CliError("--shards must be at least 1".into()));
        }
        Ok(args)
    }

    /// `std::env::args` after the program name, parsed against the
    /// tier flags and `flags`.
    pub fn from_env(flags: &[Flag]) -> Result<Args, CliError> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&argv, &[&TIER_FLAGS, flags])
    }

    /// The tier the tier flags name.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The operand of `flag`, when given.
    pub fn operand(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, operand)| operand.as_deref())
    }

    /// The operand of `flag` parsed as a `T`, when given.
    pub fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.operand(flag)
            .map(|value| {
                value.parse().map_err(|_| {
                    CliError(format!("{flag} operand must be a number, got {value:?}"))
                })
            })
            .transpose()
    }

    /// [`Args::get`] for a flag the command cannot run without.
    pub fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, CliError> {
        self.get(flag)?
            .ok_or_else(|| CliError(format!("this command requires {flag} <value>")))
    }
}

/// A hexadecimal `u64` operand, with or without a `0x` prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex(pub u64);

impl std::str::FromStr for Hex {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Hex, Self::Err> {
        u64::from_str_radix(s.trim_start_matches("0x"), 16).map(Hex)
    }
}

/// The world flags of the repro binaries and `qgx`, read from one
/// [`Args`].
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

impl CliOptions {
    /// The world flags `args` carries.
    pub fn from_args(args: &Args) -> Result<CliOptions, CliError> {
        Ok(CliOptions {
            tier: args.tier(),
            index_cache: args.get("--index-cache")?,
            bench_out: args.get("--bench-out")?,
            shards: args.get("--shards")?,
        })
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

/// The configuration of a repro binary that takes only the tier flags;
/// any other argument exits 2.
pub fn config_from_args() -> ExperimentConfig {
    Args::from_env(&[])
        .map(|args| args.tier().config())
        .unwrap_or_else(|e| e.exit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_core::experiment::Experiment;

    /// `repro_all`'s flags beside the tier flags.
    const FLAGS: [Flag; 3] = [
        ("--index-cache", true),
        ("--shards", true),
        ("--bench-out", true),
    ];

    fn args(argv: &[&str]) -> Result<Args, CliError> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, &[&TIER_FLAGS, &FLAGS])
    }

    fn parse(argv: &[&str]) -> Result<CliOptions, CliError> {
        CliOptions::from_args(&args(argv)?)
    }

    fn opts(argv: &[&str]) -> CliOptions {
        parse(argv).expect("flags parse")
    }

    fn refusal(argv: &[&str]) -> String {
        parse(argv).expect_err("flags are refused").0
    }

    #[test]
    fn quick_config_is_consistent() {
        let cfg = Tier::Quick.config();
        assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
    }

    #[test]
    fn stress_configs_are_consistent() {
        let (stress, stress_quick) = (Tier::Stress.config(), Tier::StressQuick.config());
        for cfg in [&stress, &stress_quick] {
            assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
            assert!(cfg.wiki.num_topics * cfg.wiki.articles_per_topic >= 100_000);
        }
        assert!(stress_quick.corpus.num_queries < stress.corpus.num_queries);
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
        assert_eq!(opts(&["--quick", "--track"]).tier, Tier::TrackQuick);
        for conflict in [
            &["--tiny", "--stress"][..],
            &["--tiny", "--quick"],
            &["--tiny", "--track"],
            &["--stress", "--track"],
            &["--stress", "--track", "--quick"],
        ] {
            assert!(
                refusal(conflict).starts_with("conflicting tier flags"),
                "{conflict:?}"
            );
        }
    }

    #[test]
    fn args_take_each_flag_once_and_no_flag_as_an_operand() {
        assert_eq!(
            refusal(&["--index-cache", "--tiny"]),
            "--index-cache requires an operand"
        );
        assert_eq!(
            refusal(&["--tiny", "--bench-out"]),
            "--bench-out requires an operand"
        );
        assert_eq!(
            refusal(&["--shards", "2", "--shards", "3"]),
            "--shards given twice"
        );
        assert_eq!(refusal(&["--tiny", "--tiny"]), "--tiny given twice");
        assert!(refusal(&["--stres"]).starts_with("unknown flag --stres (known: --tiny"));
        assert_eq!(refusal(&["--tiny", "2"]), "unexpected argument \"2\"");
        assert_eq!(
            refusal(&["--shards", "two"]),
            "--shards operand must be a number, got \"two\""
        );
        let parsed = args(&["--bench-out", "out.json"]).expect("flags parse");
        assert!(parsed.has("--bench-out") && !parsed.has("--tiny"));
        assert_eq!(parsed.operand("--bench-out"), Some("out.json"));
        assert_eq!(
            parsed.required::<String>("--bench-out").as_deref(),
            Ok("out.json")
        );
        assert_eq!(
            parsed.required::<usize>("--shards"),
            Err(CliError("this command requires --shards <value>".into()))
        );
        assert_eq!("0xff".parse::<Hex>(), Ok(Hex(255)));
    }

    #[test]
    fn track_configs_are_consistent() {
        let (track, track_quick) = (Tier::Track.config(), Tier::TrackQuick.config());
        for cfg in [&track, &track_quick] {
            assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
            assert!(
                cfg.corpus.noise_docs >= 200_000,
                "track must be track-scale"
            );
        }
        assert!(track_quick.corpus.num_queries < track.corpus.num_queries);
        assert_eq!(track, ExperimentConfig::track());
        assert_eq!(track_quick, ExperimentConfig::track_sampled(6));
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
        // --shards 0 names no world: it is refused, not clamped.
        assert_eq!(refusal(&["--shards", "0"]), "--shards must be at least 1");
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
        let exp = Experiment::build(&Tier::Tiny.config());
        let (_, run) = exp.run_parallel_with_summary(2);
        let record = BenchRecord::new(&Tier::Tiny.config(), &build, run);
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
