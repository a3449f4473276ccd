//! The end-to-end reproduction pipeline.
//!
//! [`Experiment::build`] synthesizes the Wikipedia and the corpus, and
//! indexes every document's linking text (the Fig. 2 extraction).
//! [`Experiment::run`] then executes, per query, the paper's §2–§3
//! pipeline:
//!
//! 1. entity-link the keywords → L(q.k) and the relevant documents →
//!    L(q.D);
//! 2. hill-climb the ground truth X(q) (§2.2);
//! 3. assemble the query graph G(q) (§2.3);
//! 4. enumerate and measure its cycles (§3), including per-cycle
//!    retrieval contributions;
//! 5. evaluate the Table 4 cycle-length configurations.
//!
//! [`Report`] aggregates everything into the paper's tables and
//! figures. The per-query pipeline itself — shared context, per-stage
//! timing, and the deterministic work-stealing runner behind
//! [`Experiment::run_parallel`] — lives in [`crate::pipeline`]; the
//! paper's §4 closes on precisely this performance challenge.

pub use crate::config::ExperimentConfig;

use crate::cycle_analysis::{mean_by_length, CycleRecord};
use crate::ground_truth::GroundTruth;
use crate::pipeline::{self, PipelineCtx, RunSummary};
use crate::query_graph::LccStats;
use crate::tables::{
    Fig9, LengthSeries, ScalarStats, Table2, Table3, Table4, PAPER_FIG5, PAPER_FIG6, PAPER_FIG7A,
    PAPER_FIG7B,
};
use querygraph_corpus::synth::SynthCorpus;
use querygraph_link::EntityLinker;
use querygraph_retrieval::backend::AnyEngine;
use querygraph_retrieval::stats::{five_number, ols, FiveNumber};
use querygraph_wiki::stats::{kb_stats, KbStats};
use querygraph_wiki::synth::SynthWiki;
use querygraph_wiki::ArticleId;
use serde::{Deserialize, Serialize};

/// The built world: knowledge base, corpus, and search engine.
pub struct Experiment {
    /// The synthetic Wikipedia.
    pub wiki: SynthWiki,
    /// The synthetic ImageCLEF-like corpus and query set.
    pub corpus: SynthCorpus,
    /// The INDRI-like retrieval backend over the documents' linking
    /// text — monolithic or sharded ([`AnyEngine`]); the analysis is
    /// byte-identical either way.
    pub engine: AnyEngine,
    /// The configuration used to build this experiment.
    pub config: ExperimentConfig,
}

/// Everything measured for one query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryAnalysis {
    /// Query id (1-based).
    pub query_id: u32,
    /// The raw keywords.
    pub keywords: String,
    /// L(q.k): articles linked from the keywords.
    pub lqk: Vec<ArticleId>,
    /// |L(q.D)| before pool capping.
    pub(crate) lqd_size: usize,
    /// Ground-truth result (§2.2).
    pub ground_truth: GroundTruth,
    /// Largest-component statistics of G(q) (Table 3).
    pub(crate) lcc: LccStats,
    /// Measured cycles with contributions (§3).
    pub cycles: Vec<CycleRecord>,
    /// Per-configuration precisions for Table 4.
    pub(crate) table4_rows: Vec<(String, [f64; 4])>,
    /// §4 article-frequency correlation `(pearson, spearman)`.
    pub(crate) correlation: Option<(f64, f64)>,
}

/// The aggregated reproduction results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Configuration of the run.
    pub config: ExperimentConfig,
    /// One analysis per query, in query order.
    pub per_query: Vec<QueryAnalysis>,
    /// Knowledge-base statistics (reciprocity etc.).
    pub(crate) kb: KbStats,
}

/// The Table 4 cycle-length configurations, in paper order.
pub(crate) const TABLE4_CONFIGS: [(&str, &[usize]); 7] = [
    ("2", &[2]),
    ("3", &[3]),
    ("4", &[4]),
    ("5", &[5]),
    ("2&3", &[2, 3]),
    ("2&3&4", &[2, 3, 4]),
    ("2&3&4&5", &[2, 3, 4, 5]),
];

impl Experiment {
    /// Generate the world and index it.
    ///
    /// Cache-backed and in-memory construction share one internal
    /// constructor path (`cache::build_world`), so the two can never
    /// drift: this is exactly [`Experiment::build_with_cache`] with no
    /// cache directory.
    pub fn build(config: &ExperimentConfig) -> Experiment {
        Self::build_with_cache(config, None).0
    }

    /// [`Experiment::build`] with an optional on-disk index cache: when
    /// `cache_dir` holds a valid store for this configuration, the
    /// index (and warm phrase dictionary) is loaded instead of rebuilt;
    /// otherwise it is built and published for the next run. See
    /// [`crate::cache`] for the store/fingerprint story.
    pub fn build_with_cache(
        config: &ExperimentConfig,
        cache_dir: Option<&std::path::Path>,
    ) -> (Experiment, crate::cache::BuildStats) {
        crate::cache::build_experiment(config, cache_dir)
    }

    /// [`Experiment::build`] over a sharded backend: `shards`
    /// doc-partitioned shards behind deterministic scatter-gather. The
    /// `Report` is byte-identical to the monolithic build at any shard
    /// count (golden-pinned and property-tested in
    /// `tests/sharded_equivalence.rs`).
    pub fn build_sharded(config: &ExperimentConfig, shards: usize) -> Experiment {
        crate::cache::build_experiment_with(
            config,
            None,
            &crate::cache::WorldOptions::sharded(shards),
        )
        .0
    }

    /// Analyze every query sequentially.
    pub fn run(&self) -> Report {
        self.run_with_summary().0
    }

    /// Analyze every query sequentially, also returning the per-stage
    /// timing summary.
    pub fn run_with_summary(&self) -> (Report, RunSummary) {
        self.execute(1)
    }

    /// Analyze queries across `threads` scoped worker threads using the
    /// [`crate::pipeline`] work-stealing runner. The engine (phrase
    /// cache behind a mutex), linker and knowledge base are shared;
    /// results land in query order and the `Report` is byte-identical
    /// to [`Experiment::run`]'s. `threads == 0` is treated as 1.
    pub fn run_parallel(&self, threads: usize) -> Report {
        self.run_parallel_with_summary(threads).0
    }

    /// [`Experiment::run_parallel`], also returning the per-stage
    /// timing summary.
    pub fn run_parallel_with_summary(&self, threads: usize) -> (Report, RunSummary) {
        self.execute(threads.max(1))
    }

    fn execute(&self, threads: usize) -> (Report, RunSummary) {
        let ctx = PipelineCtx::new(self);
        let (per_query, summary) = pipeline::run_queries(&ctx, threads);
        let report = Report {
            config: self.config.clone(),
            per_query,
            kb: kb_stats(&self.wiki.kb),
        };
        (report, summary)
    }

    /// The §2–§3 pipeline for one query (untimed; see
    /// `PipelineCtx::analyze_timed` for the instrumented variant).
    pub fn analyze_query(&self, linker: &EntityLinker<'_>, qi: usize) -> QueryAnalysis {
        pipeline::analyze_one(
            &self.config,
            &self.corpus,
            self.engine.backend(),
            &self.wiki.kb,
            linker,
            qi,
        )
        .0
    }
}

impl Report {
    /// Table 2: ground-truth precision summary.
    pub fn table2(&self) -> Table2 {
        let mut rows = Vec::with_capacity(4);
        for cut in 0..4 {
            let values: Vec<f64> = self
                .per_query
                .iter()
                .map(|q| q.ground_truth.precisions[cut])
                .collect();
            rows.push(summary(&values));
        }
        Table2 {
            rows: [rows[0], rows[1], rows[2], rows[3]],
        }
    }

    /// Table 3: largest-component statistics.
    pub fn table3(&self) -> Table3 {
        let collect = |f: fn(&LccStats) -> f64| -> Vec<f64> {
            self.per_query.iter().map(|q| f(&q.lcc)).collect()
        };
        Table3 {
            size: summary(&collect(|l| l.size_ratio)),
            query_nodes: summary(&collect(|l| l.query_node_ratio)),
            articles: summary(&collect(|l| l.article_ratio)),
            categories: summary(&collect(|l| l.category_ratio)),
            expansion_ratio: summary(&collect(|l| l.expansion_ratio)),
        }
    }

    /// Table 4: mean precision per cycle-length configuration.
    pub fn table4(&self) -> Table4 {
        let mut rows = Vec::new();
        for (label, _) in TABLE4_CONFIGS {
            let mut sums = [0.0f64; 4];
            let mut n = 0usize;
            for q in &self.per_query {
                if let Some((_, p)) = q.table4_rows.iter().find(|(l, _)| l == label) {
                    for i in 0..4 {
                        sums[i] += p[i];
                    }
                    n += 1;
                }
            }
            if n > 0 {
                for s in &mut sums {
                    *s /= n as f64;
                }
            }
            rows.push((label.to_string(), sums));
        }
        Table4 { rows }
    }

    fn all_cycles(&self) -> impl Iterator<Item = &CycleRecord> {
        self.per_query.iter().flat_map(|q| q.cycles.iter())
    }

    /// Fig. 5: mean contribution (%) per cycle length.
    pub fn fig5(&self) -> LengthSeries {
        let records: Vec<CycleRecord> = self.all_cycles().cloned().collect();
        LengthSeries {
            label: "Fig. 5 — average contribution (%) vs cycle length".into(),
            values: mean_by_length(&records, self.config.max_cycle_len, |r| r.contribution),
            paper: PAPER_FIG5.to_vec(),
            first_len: 2,
        }
    }

    /// Fig. 6: mean number of cycles per length, averaged over queries.
    pub fn fig6(&self) -> LengthSeries {
        let max_len = self.config.max_cycle_len;
        let nq = self.per_query.len().max(1);
        let mut counts = vec![0usize; max_len + 1];
        for q in &self.per_query {
            for rec in &q.cycles {
                if rec.len <= max_len {
                    counts[rec.len] += 1;
                }
            }
        }
        LengthSeries {
            label: "Fig. 6 — average number of cycles vs cycle length".into(),
            values: counts
                .iter()
                .enumerate()
                .map(|(l, &c)| (l >= 2).then(|| c as f64 / nq as f64))
                .collect(),
            paper: PAPER_FIG6.to_vec(),
            first_len: 2,
        }
    }

    /// Fig. 7a: mean category ratio per cycle length (3..=5).
    pub fn fig7a(&self) -> LengthSeries {
        let records: Vec<CycleRecord> = self.all_cycles().cloned().collect();
        let mut values = mean_by_length(&records, self.config.max_cycle_len, |r| {
            Some(r.category_ratio)
        });
        // The paper's Fig. 7a starts at length 3 (2-cycles cannot hold
        // categories).
        if values.len() > 2 {
            values[2] = None;
        }
        LengthSeries {
            label: "Fig. 7a — average category ratio vs cycle length".into(),
            values,
            paper: PAPER_FIG7A.to_vec(),
            first_len: 3,
        }
    }

    /// Fig. 7b: mean density of extra edges per cycle length (3..=5).
    pub fn fig7b(&self) -> LengthSeries {
        let records: Vec<CycleRecord> = self.all_cycles().cloned().collect();
        LengthSeries {
            label: "Fig. 7b — average density of extra edges vs cycle length".into(),
            values: mean_by_length(&records, self.config.max_cycle_len, |r| {
                r.extra_edge_density
            }),
            paper: PAPER_FIG7B.to_vec(),
            first_len: 3,
        }
    }

    /// Fig. 9: density of extra edges vs contribution (binned + OLS
    /// trend).
    pub fn fig9(&self) -> Fig9 {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for rec in self.all_cycles() {
            if let (Some(d), Some(c)) = (rec.extra_edge_density, rec.contribution) {
                xs.push(d);
                ys.push(c);
            }
        }
        let trend = ols(&xs, &ys);
        const BINS: usize = 10;
        let mut sums = [0.0; BINS];
        let mut counts = [0usize; BINS];
        for (&x, &y) in xs.iter().zip(&ys) {
            let b = ((x * BINS as f64) as usize).min(BINS - 1);
            sums[b] += y;
            counts[b] += 1;
        }
        let bins = (0..BINS)
            .filter(|&b| counts[b] > 0)
            .map(|b| {
                (
                    (b as f64 + 0.5) / BINS as f64,
                    sums[b] / counts[b] as f64,
                    counts[b],
                )
            })
            .collect();
        Fig9 {
            bins,
            trend,
            points: xs.len(),
        }
    }

    /// §3 scalar statistics.
    pub fn scalar_stats(&self) -> ScalarStats {
        let nq = self.per_query.len().max(1) as f64;
        ScalarStats {
            tpr_mean: self.per_query.iter().map(|q| q.lcc.tpr).sum::<f64>() / nq,
            link_reciprocity: self.kb.link_reciprocity.unwrap_or(0.0),
            avg_query_graph_nodes: self
                .per_query
                .iter()
                .map(|q| q.lcc.total_nodes as f64)
                .sum::<f64>()
                / nq,
            avg_cycles_per_query: self
                .per_query
                .iter()
                .map(|q| q.cycles.len() as f64)
                .sum::<f64>()
                / nq,
        }
    }

    /// Mean §4 correlation over queries where it is defined.
    pub fn mean_correlation(&self) -> Option<(f64, f64)> {
        let pairs: Vec<(f64, f64)> = self
            .per_query
            .iter()
            .filter_map(|q| q.correlation)
            .collect();
        if pairs.is_empty() {
            return None;
        }
        let n = pairs.len() as f64;
        Some((
            pairs.iter().map(|p| p.0).sum::<f64>() / n,
            pairs.iter().map(|p| p.1).sum::<f64>() / n,
        ))
    }

    /// Render every table and figure, paper-vs-measured.
    pub fn render_all(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.table2().render());
        s.push('\n');
        s.push_str(&self.table3().render());
        s.push('\n');
        s.push_str(&self.table4().render());
        s.push('\n');
        s.push_str(&self.fig5().render());
        s.push('\n');
        s.push_str(&self.fig6().render());
        s.push('\n');
        s.push_str(&self.fig7a().render());
        s.push('\n');
        s.push_str(&self.fig7b().render());
        s.push('\n');
        s.push_str(&self.fig9().render());
        s.push('\n');
        s.push_str(&self.scalar_stats().render());
        if let Some((p, sp)) = self.mean_correlation() {
            s.push_str(&format!(
                "\n§4 article frequency↔goodness correlation: pearson {p:.3}, spearman {sp:.3}\n"
            ));
        }
        s
    }
}

/// Five-number summary with an all-zero fallback for empty input (keeps
/// report rendering total).
fn summary(values: &[f64]) -> FiveNumber {
    five_number(values).unwrap_or(FiveNumber {
        min: 0.0,
        q1: 0.0,
        median: 0.0,
        q3: 0.0,
        max: 0.0,
        mean: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> Report {
        let exp = Experiment::build(&ExperimentConfig::tiny());
        exp.run()
    }

    #[test]
    fn builds_and_runs_tiny() {
        let report = tiny_report();
        assert_eq!(
            report.per_query.len(),
            ExperimentConfig::tiny().corpus.num_queries
        );
        for q in &report.per_query {
            assert!(!q.lqk.is_empty(), "keywords must link: {:?}", q.keywords);
            assert!(q.lqd_size > 0, "relevant docs must mention articles");
        }
    }

    #[test]
    fn ground_truth_beats_or_equals_baseline() {
        let report = tiny_report();
        for q in &report.per_query {
            assert!(
                q.ground_truth.quality >= q.ground_truth.baseline_quality - 1e-9,
                "query {}: gt {} < baseline {}",
                q.query_id,
                q.ground_truth.quality,
                q.ground_truth.baseline_quality
            );
        }
    }

    #[test]
    fn expansion_improves_some_query() {
        let report = tiny_report();
        let improved = report
            .per_query
            .iter()
            .filter(|q| q.ground_truth.quality > q.ground_truth.baseline_quality + 1e-9)
            .count();
        assert!(
            improved > 0,
            "vocabulary mismatch must make expansion profitable somewhere"
        );
    }

    #[test]
    fn tables_render() {
        let report = tiny_report();
        let out = report.render_all();
        assert!(out.contains("Table 2"));
        assert!(out.contains("Table 3"));
        assert!(out.contains("Table 4"));
        assert!(out.contains("Fig. 5"));
        assert!(out.contains("Fig. 9"));
    }

    #[test]
    fn parallel_matches_sequential() {
        let exp = Experiment::build(&ExperimentConfig::tiny());
        let seq = exp.run();
        let par = exp.run_parallel(4);
        assert_eq!(seq.per_query.len(), par.per_query.len());
        for (a, b) in seq.per_query.iter().zip(&par.per_query) {
            assert_eq!(a.query_id, b.query_id);
            assert_eq!(a.ground_truth.expansion, b.ground_truth.expansion);
            assert_eq!(a.cycles.len(), b.cycles.len());
            assert_eq!(a.table4_rows, b.table4_rows);
        }
    }

    #[test]
    fn cycles_have_contributions() {
        let report = tiny_report();
        for q in &report.per_query {
            for c in &q.cycles {
                assert!(c.contribution.is_some());
            }
        }
    }

    #[test]
    fn report_serializes() {
        let report = tiny_report();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("per_query"));
    }

    #[test]
    fn table4_rows_complete() {
        let report = tiny_report();
        let t4 = report.table4();
        assert_eq!(t4.rows.len(), 7);
        for (_, p) in &t4.rows {
            for v in p {
                assert!((0.0..=1.0).contains(v));
            }
        }
    }
}
