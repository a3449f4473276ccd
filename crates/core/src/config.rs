//! Experiment configuration: one serializable struct driving the whole
//! reproduction.

use crate::ground_truth::GroundTruthConfig;
use querygraph_corpus::synth::SynthCorpusConfig;
use querygraph_wiki::synth::SynthWikiConfig;
use serde::{Deserialize, Serialize};

/// Everything a reproduction run needs. Serializable so runs can be
/// archived next to their results (DESIGN.md §8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Synthetic-Wikipedia parameters.
    pub wiki: SynthWikiConfig,
    /// Synthetic-corpus parameters.
    pub corpus: SynthCorpusConfig,
    /// Ground-truth search parameters.
    pub ground_truth: GroundTruthConfig,
    /// Maximum cycle length analyzed (the paper stops at 5).
    pub(crate) max_cycle_len: usize,
    /// Per-query cap on enumerated cycles (safety valve; the paper's §4
    /// names unbounded cycle enumeration as the open challenge).
    pub(crate) cycle_limit: usize,
    /// Cap on |L(q.D)| fed to the hill climb (candidates are kept in
    /// descending relevant-document frequency).
    pub(crate) max_pool: usize,
    /// Also compute the §4 article-frequency correlation (extra
    /// retrieval evaluations per query).
    pub(crate) compute_correlation: bool,
}

impl ExperimentConfig {
    /// The paper-scale configuration: 50 topics / 50 queries, cycle
    /// lengths ≤ 5.
    pub fn default_paper() -> Self {
        ExperimentConfig {
            wiki: SynthWikiConfig::default_experiment(),
            corpus: SynthCorpusConfig::default_experiment(),
            ground_truth: GroundTruthConfig::default(),
            max_cycle_len: 5,
            cycle_limit: 30_000,
            max_pool: 40,
            compute_correlation: true,
        }
    }

    /// The paper-scale stress configuration: a 100k+ article knowledge
    /// base and a ~31k document corpus (ROADMAP "Paper-scale growth
    /// knobs"). One query per topic; correlation off — the point is
    /// scale, not the §4 extras.
    pub fn stress() -> Self {
        ExperimentConfig {
            wiki: SynthWikiConfig::stress(),
            corpus: SynthCorpusConfig::stress(),
            ground_truth: GroundTruthConfig::default(),
            max_cycle_len: 5,
            cycle_limit: 30_000,
            max_pool: 40,
            compute_correlation: false,
        }
    }

    /// [`ExperimentConfig::stress`] with `--quick`-style sampling: the
    /// same 100k+ article world, but only `queries` of the 60 queries
    /// analyzed — world synthesis and indexing (what the stress tier
    /// exists to measure) are untouched; only the per-query pipeline is
    /// sampled so CI stays under a few minutes.
    pub fn stress_sampled(queries: usize) -> Self {
        let mut cfg = Self::stress();
        cfg.corpus.num_queries = queries.min(cfg.wiki.num_topics);
        cfg
    }

    /// The **track**-scale configuration: the stress knowledge base
    /// (100k+ articles) over a corpus the size of the real ImageCLEF
    /// 2011 Wikipedia track — ~237k documents (the stress tier stops
    /// at ~31k). This is the ingest tier: big enough that streaming,
    /// segmented indexing is the only reasonable way to build it.
    pub fn track() -> Self {
        let mut cfg = Self::stress();
        cfg.corpus.seed = 0x7AC4_0237;
        // ≈ 235k noise docs + ~1.5k relevant/distractor docs ≈ the
        // track's 237,434 images.
        cfg.corpus.noise_docs = 235_000;
        cfg
    }

    /// [`ExperimentConfig::track`] with `--quick`-style sampling: the
    /// same ~237k-document world, only `queries` of the 60 queries
    /// analyzed.
    pub fn track_sampled(queries: usize) -> Self {
        let mut cfg = Self::track();
        cfg.corpus.num_queries = queries.min(cfg.wiki.num_topics);
        cfg
    }

    /// A miniature configuration for tests and doctests (< 1 s).
    pub fn tiny() -> Self {
        ExperimentConfig {
            wiki: SynthWikiConfig::small(),
            corpus: SynthCorpusConfig::small(),
            ground_truth: GroundTruthConfig {
                max_iterations: 20,
                ..GroundTruthConfig::default()
            },
            max_cycle_len: 5,
            cycle_limit: 5_000,
            max_pool: 20,
            compute_correlation: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trip() {
        let cfg = ExperimentConfig::default_paper();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn tiny_is_smaller_than_paper() {
        let tiny = ExperimentConfig::tiny();
        let paper = ExperimentConfig::default_paper();
        assert!(tiny.corpus.num_queries < paper.corpus.num_queries);
        assert!(tiny.wiki.num_topics < paper.wiki.num_topics);
    }

    #[test]
    fn paper_config_respects_wiki_capacity() {
        let cfg = ExperimentConfig::default_paper();
        assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
    }

    #[test]
    fn stress_config_reaches_paper_scale() {
        let cfg = ExperimentConfig::stress();
        assert!(cfg.wiki.num_topics * cfg.wiki.articles_per_topic >= 100_000);
        assert!(cfg.corpus.num_queries <= cfg.wiki.num_topics);
        let sampled = ExperimentConfig::stress_sampled(8);
        assert_eq!(sampled.corpus.num_queries, 8);
        assert_eq!(sampled.wiki, cfg.wiki, "sampling must not shrink the world");
    }

    #[test]
    fn track_config_reaches_track_scale() {
        let cfg = ExperimentConfig::track();
        // The real track has ~237k documents; the tier must clear 200k
        // even before relevant/distractor docs are counted.
        assert!(cfg.corpus.noise_docs >= 200_000);
        assert_eq!(cfg.wiki, ExperimentConfig::stress().wiki);
        assert_ne!(
            cfg.corpus.seed,
            ExperimentConfig::stress().corpus.seed,
            "track and stress artifacts must never satisfy each other's caches"
        );
        let sampled = ExperimentConfig::track_sampled(6);
        assert_eq!(sampled.corpus.num_queries, 6);
        assert_eq!(sampled.wiki, cfg.wiki, "sampling must not shrink the world");
        assert_eq!(sampled.corpus.noise_docs, cfg.corpus.noise_docs);
    }

    #[test]
    fn stress_serde_round_trip() {
        let cfg = ExperimentConfig::stress();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
