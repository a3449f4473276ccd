//! The query-analysis pipeline: shared context, per-stage timing, and a
//! deterministic work-stealing runner.
//!
//! [`Experiment::run`](crate::Experiment::run) and
//! [`Experiment::run_parallel`](crate::Experiment::run_parallel) are thin
//! wrappers over this module. The pieces:
//!
//! * [`PipelineCtx`] — the read-only world shared by every worker: the
//!   search engine, the entity linker, the knowledge base, the corpus,
//!   and the configuration. Building one constructs the linker's title
//!   dictionary once; analyzing a query never mutates it (the engine's
//!   phrase cache is interior-mutable behind a lock but only memoizes).
//! * [`analyze_timed`](PipelineCtx::analyze_timed) — the paper's §2–§3
//!   per-query pipeline, instrumented per [`Stage`].
//! * [`parallel_map`] — the deterministic work-stealing runner,
//!   re-exported from `querygraph_retrieval::par` (it moved down so the
//!   sharded engine can scatter per-shard work on it too): map `0..n`
//!   through a pure function over `std::thread::scope` workers with
//!   chunked work stealing, results reassembled in index order.
//!   [`run_queries`], the serving facade's
//!   [`crate::service::QueryExpander::expand_batch`], per-shard
//!   retrieval, and parallel segment loading are all clients.
//! * [`run_queries`] — distributes queries over [`parallel_map`].
//!   Output is **deterministic**: each analysis depends only on the
//!   read-only context and its query index, and results are
//!   reassembled in query order, so the `Report` is byte-identical to
//!   a sequential run no matter how the steal schedule interleaves
//!   (the experiment tests assert this via `serde_json`).
//! * [`RunSummary`] — the machine-readable timing record (wall clock +
//!   per-stage CPU seconds) that `repro_all --bench-out` serializes
//!   and the repo benchmark's `repro_batch` workload reads. Timings
//!   live here, *outside* [`Report`](crate::Report), exactly so that
//!   reports stay byte-stable across runs and thread counts.

use crate::config::ExperimentConfig;
use crate::cycle_analysis::{article_frequency_correlation, enumerate_cycles, fill_contributions};
use crate::experiment::{Experiment, QueryAnalysis, TABLE4_CONFIGS};
use crate::ground_truth::{find_ground_truth, QualityEvaluator};
use crate::query_graph::assemble;
use crate::service::QueryExpander;
use querygraph_corpus::imageclef::linking_text;
use querygraph_corpus::synth::SynthCorpus;
use querygraph_link::EntityLinker;
use querygraph_retrieval::backend::RetrievalBackend;
use querygraph_wiki::{ArticleId, KnowledgeBase};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

pub use querygraph_retrieval::par::parallel_map;

/// The instrumented stages of one query's analysis, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// §2.1 entity linking: L(q.k) and the L(q.D) mention pool.
    Link,
    /// §2.2 ground-truth hill climb.
    GroundTruth,
    /// §2.3 query-graph assembly + largest-component statistics.
    GraphAssembly,
    /// §3 cycle enumeration.
    CycleEnum,
    /// §3 per-cycle retrieval contributions.
    Contributions,
    /// Table 4 cycle-length configurations.
    Table4,
    /// §4 article-frequency correlation (optional).
    Correlation,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Link,
        Stage::GroundTruth,
        Stage::GraphAssembly,
        Stage::CycleEnum,
        Stage::Contributions,
        Stage::Table4,
        Stage::Correlation,
    ];

    /// Snake-case stage name, as written to `run.stage_seconds`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Link => "link",
            Stage::GroundTruth => "ground_truth",
            Stage::GraphAssembly => "graph_assembly",
            Stage::CycleEnum => "cycle_enum",
            Stage::Contributions => "contributions",
            Stage::Table4 => "table4",
            Stage::Correlation => "correlation",
        }
    }

    fn index(self) -> usize {
        Stage::ALL
            .iter()
            .position(|s| *s == self)
            .expect("stage listed in Stage::ALL")
    }
}

/// Wall-clock seconds per [`Stage`] for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Seconds per stage, indexed like [`Stage::ALL`].
    pub seconds: [f64; Stage::ALL.len()],
}

impl StageTimings {
    /// Total seconds across all stages.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Seconds spent in `stage`.
    pub fn get(&self, stage: Stage) -> f64 {
        self.seconds[stage.index()]
    }

    fn add(&mut self, stage: Stage, seconds: f64) {
        self.seconds[stage.index()] += seconds;
    }

    fn accumulate(&mut self, other: &StageTimings) {
        for (a, b) in self.seconds.iter_mut().zip(&other.seconds) {
            *a += b;
        }
    }
}

/// The read-only world shared by every pipeline worker.
///
/// The reproduction pipeline is a consumer of the serving facade: the
/// entity linker lives inside a [`QueryExpander`], so the same
/// amortized state (linker dictionary, engine, knowledge base) serves
/// both ad-hoc queries and the batch experiment.
pub struct PipelineCtx<'a> {
    /// Run configuration.
    pub config: &'a ExperimentConfig,
    /// The corpus and query set under analysis.
    pub corpus: &'a SynthCorpus,
    /// The retrieval backend over the documents' linking text —
    /// monolithic or sharded, byte-identical either way.
    pub engine: &'a dyn RetrievalBackend,
    /// The knowledge base the query graphs are induced from.
    pub kb: &'a KnowledgeBase,
    /// The serving facade over the same world (entity linker built
    /// once at construction).
    pub expander: QueryExpander<'a>,
}

impl<'a> PipelineCtx<'a> {
    /// Borrow the experiment's world and build the serving facade
    /// (including the entity linker's title dictionary).
    pub fn new(experiment: &'a Experiment) -> PipelineCtx<'a> {
        PipelineCtx {
            config: &experiment.config,
            corpus: &experiment.corpus,
            engine: experiment.engine.backend(),
            kb: &experiment.wiki.kb,
            expander: QueryExpander::new(&experiment.wiki.kb, experiment.engine.backend()),
        }
    }

    /// The entity linker (owned by the serving facade).
    pub fn linker(&self) -> &EntityLinker<'a> {
        self.expander.linker()
    }

    /// Analyze query `qi` (untimed convenience).
    pub fn analyze(&self, qi: usize) -> QueryAnalysis {
        self.analyze_timed(qi).0
    }

    /// Analyze query `qi`, reporting per-stage wall-clock timings.
    pub fn analyze_timed(&self, qi: usize) -> (QueryAnalysis, StageTimings) {
        analyze_one(
            self.config,
            self.corpus,
            self.engine,
            self.kb,
            self.expander.linker(),
            qi,
        )
    }
}

/// Machine-readable summary of one pipeline run: configuration scale,
/// wall clock, and per-stage CPU seconds summed over queries. This is
/// the `run` section of the record `repro_all --bench-out` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// `"sequential"` or `"work_stealing"`.
    pub mode: String,
    /// Worker threads used.
    pub threads: usize,
    /// Queries analyzed.
    pub queries: usize,
    /// End-to-end wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// `(stage name, summed seconds across queries)`, in stage order.
    /// Summed per-stage time is CPU time: with N workers it can exceed
    /// `wall_seconds`.
    pub stage_seconds: Vec<(String, f64)>,
    /// Mean per-query seconds across **all** stages.
    pub per_query_mean_seconds: f64,
    /// Mean per-query seconds of the §3 cycle analysis alone
    /// (enumeration + contributions) — the quantity the paper's §4
    /// "≈6 minutes per query" refers to.
    pub cycle_analysis_mean_seconds: f64,
    /// Quality evaluations requested by the §2.2 hill climbs (summed
    /// over queries; memo hits included, so the count is comparable
    /// across fast-path on/off).
    pub ground_truth_evaluations: usize,
    /// Hill-climb evaluations answered from the subset memo.
    pub ground_truth_cached: usize,
    /// Hill-climb evaluations that ran a workspace search.
    pub ground_truth_computed: usize,
    /// `ground_truth_cached / ground_truth_evaluations` (0 when none).
    pub ground_truth_cache_hit_rate: f64,
}

impl RunSummary {
    fn new(
        mode: &str,
        threads: usize,
        wall_seconds: f64,
        totals: &StageTimings,
        per_query: &[QueryAnalysis],
    ) -> RunSummary {
        let queries = per_query.len();
        let gt_evaluations: usize = per_query.iter().map(|q| q.ground_truth.evaluations).sum();
        let gt_cached: usize = per_query
            .iter()
            .map(|q| q.ground_truth.cached_evaluations)
            .sum();
        let gt_computed: usize = per_query
            .iter()
            .map(|q| q.ground_truth.computed_evaluations)
            .sum();
        RunSummary {
            mode: mode.to_string(),
            threads,
            queries,
            wall_seconds,
            stage_seconds: Stage::ALL
                .iter()
                .map(|s| (s.name().to_string(), totals.get(*s)))
                .collect(),
            per_query_mean_seconds: totals.total() / queries.max(1) as f64,
            cycle_analysis_mean_seconds: (totals.get(Stage::CycleEnum)
                + totals.get(Stage::Contributions))
                / queries.max(1) as f64,
            ground_truth_evaluations: gt_evaluations,
            ground_truth_cached: gt_cached,
            ground_truth_computed: gt_computed,
            ground_truth_cache_hit_rate: if gt_evaluations > 0 {
                gt_cached as f64 / gt_evaluations as f64
            } else {
                0.0
            },
        }
    }

    /// Human-readable rendering for run logs.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "pipeline run: {} queries, {} thread(s) [{}], {:.3}s wall",
            self.queries, self.threads, self.mode, self.wall_seconds
        );
        for (name, secs) in &self.stage_seconds {
            let _ = writeln!(s, "  {name:<14} {secs:>9.4} s");
        }
        let _ = writeln!(
            s,
            "  ground-truth evaluations: {} ({} cached / {} computed, {:.1}% hit rate)",
            self.ground_truth_evaluations,
            self.ground_truth_cached,
            self.ground_truth_computed,
            100.0 * self.ground_truth_cache_hit_rate
        );
        let _ = writeln!(
            s,
            "  per-query mean {:>9.4} s (cycle analysis {:.4} s; paper ≈360 s \
             for cycle analysis on their graph DB)",
            self.per_query_mean_seconds, self.cycle_analysis_mean_seconds
        );
        s
    }
}

/// Analyze every query of `ctx` over `threads` workers and reassemble
/// results in query order.
///
/// `threads <= 1` runs inline on the calling thread. Otherwise each
/// worker owns one contiguous chunk of the query range and, when its
/// chunk is drained, steals from the remaining chunks round-robin —
/// cheap load balancing for the heavy-tailed per-query cost the paper's
/// §4 describes, with no locks on the work path (one `fetch_add` per
/// claimed query).
pub fn run_queries(ctx: &PipelineCtx<'_>, threads: usize) -> (Vec<QueryAnalysis>, RunSummary) {
    let n = ctx.corpus.queries.len();
    let start = Instant::now();
    let (mode, workers) = if threads <= 1 {
        ("sequential", 1)
    } else {
        ("work_stealing", threads.min(n.max(1)))
    };
    let results = parallel_map(n, workers, |qi| ctx.analyze_timed(qi));
    let mut totals = StageTimings::default();
    let per_query: Vec<QueryAnalysis> = results
        .into_iter()
        .map(|(analysis, timings)| {
            totals.accumulate(&timings);
            analysis
        })
        .collect();
    let summary = RunSummary::new(
        mode,
        workers,
        start.elapsed().as_secs_f64(),
        &totals,
        &per_query,
    );
    (per_query, summary)
}

/// The §2–§3 pipeline for one query, instrumented per stage.
pub(crate) fn analyze_one(
    config: &ExperimentConfig,
    corpus: &SynthCorpus,
    engine: &dyn RetrievalBackend,
    kb: &KnowledgeBase,
    linker: &EntityLinker<'_>,
    qi: usize,
) -> (QueryAnalysis, StageTimings) {
    let mut timings = StageTimings::default();
    let query = &corpus.queries.queries[qi];
    let relevant: Vec<u32> = query.relevant.iter().map(|d| d.0).collect();

    // §2.1 entity linking: keywords and relevant documents.
    let t = Instant::now();
    let lqk = linker.link_articles(&query.keywords);
    let mut mention_freq: HashMap<ArticleId, usize> = HashMap::new();
    for &d in &query.relevant {
        let text = linking_text(corpus.corpus.doc(d));
        for a in linker.link_articles(&text) {
            *mention_freq.entry(a).or_insert(0) += 1;
        }
    }
    let lqd_size = mention_freq.len();
    let mut pool: Vec<(ArticleId, usize)> = mention_freq.into_iter().collect();
    pool.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pool.truncate(config.max_pool);
    let pool: Vec<ArticleId> = pool.into_iter().map(|(a, _)| a).collect();
    timings.add(Stage::Link, t.elapsed().as_secs_f64());

    // §2.2 ground truth.
    let t = Instant::now();
    let evaluator = QualityEvaluator::new(kb, engine, &relevant, config.ground_truth.search_depth);
    let ground_truth = find_ground_truth(&evaluator, &config.ground_truth, query.id, &lqk, &pool);
    timings.add(Stage::GroundTruth, t.elapsed().as_secs_f64());

    // §2.3 query graph.
    let t = Instant::now();
    let qg = assemble(kb, &lqk, &ground_truth.expansion);
    let lcc = qg.lcc_stats();
    timings.add(Stage::GraphAssembly, t.elapsed().as_secs_f64());

    // §3 cycle enumeration …
    let t = Instant::now();
    let mut cycles = enumerate_cycles(&qg, kb, config.max_cycle_len, config.cycle_limit);
    timings.add(Stage::CycleEnum, t.elapsed().as_secs_f64());

    // … and per-cycle retrieval contributions.
    let t = Instant::now();
    fill_contributions(&mut cycles, &evaluator, &lqk, ground_truth.baseline_quality);
    timings.add(Stage::Contributions, t.elapsed().as_secs_f64());

    // Table 4 cycle-length configurations.
    let t = Instant::now();
    let table4_rows = TABLE4_CONFIGS
        .iter()
        .map(|(label, lengths)| {
            let mut features: Vec<ArticleId> = Vec::new();
            for rec in cycles.iter().filter(|r| lengths.contains(&r.len)) {
                for &a in &rec.articles {
                    if !features.contains(&a) {
                        features.push(a);
                    }
                }
            }
            let mut set = lqk.clone();
            for a in features {
                if !set.contains(&a) {
                    set.push(a);
                }
            }
            (label.to_string(), evaluator.precisions(&set))
        })
        .collect();
    timings.add(Stage::Table4, t.elapsed().as_secs_f64());

    // §4 article-frequency correlation.
    let t = Instant::now();
    let correlation = if config.compute_correlation {
        article_frequency_correlation(&cycles, &evaluator, &lqk, ground_truth.baseline_quality)
    } else {
        None
    };
    timings.add(Stage::Correlation, t.elapsed().as_secs_f64());

    let analysis = QueryAnalysis {
        query_id: query.id,
        keywords: query.keywords.clone(),
        lqk,
        lqd_size,
        ground_truth,
        lcc,
        cycles,
        table4_rows,
        correlation,
    };
    (analysis, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;

    #[test]
    fn stage_timings_accumulate_and_total() {
        let mut a = StageTimings::default();
        a.add(Stage::Link, 0.5);
        a.add(Stage::CycleEnum, 0.25);
        let mut b = StageTimings::default();
        b.add(Stage::Link, 0.5);
        b.accumulate(&a);
        assert!((b.get(Stage::Link) - 1.0).abs() < 1e-12);
        assert!((b.total() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn run_summary_covers_every_stage() {
        let exp = Experiment::build(&ExperimentConfig::tiny());
        let ctx = PipelineCtx::new(&exp);
        let (per_query, summary) = run_queries(&ctx, 2);
        assert_eq!(per_query.len(), exp.corpus.queries.len());
        assert_eq!(summary.stage_seconds.len(), Stage::ALL.len());
        assert_eq!(summary.queries, per_query.len());
        assert!(summary.wall_seconds > 0.0);
        assert!(summary.per_query_mean_seconds > 0.0);
        assert!(summary.ground_truth_evaluations > 0);
        assert_eq!(
            summary.ground_truth_cached + summary.ground_truth_computed,
            summary.ground_truth_evaluations,
            "cached/computed must partition the evaluation count"
        );
        assert!((0.0..=1.0).contains(&summary.ground_truth_cache_hit_rate));
        let names: Vec<&str> = summary
            .stage_seconds
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "link",
                "ground_truth",
                "graph_assembly",
                "cycle_enum",
                "contributions",
                "table4",
                "correlation"
            ]
        );
    }

    #[test]
    fn summary_serializes_with_stage_names() {
        let exp = Experiment::build(&ExperimentConfig::tiny());
        let (_, summary) = run_queries(&PipelineCtx::new(&exp), 1);
        let json = serde_json::to_string(&summary).expect("summary serializes");
        assert!(json.contains("\"ground_truth\""));
        let back: RunSummary = serde_json::from_str(&json).expect("summary parses");
        assert_eq!(back, summary);
    }
}
