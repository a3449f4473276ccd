//! The §2.2 evaluation fast path must be invisible in the science.
//!
//! Two layers of protection:
//!
//! * **Golden pins** — the serialized `Report` for the tiny, seed
//!   (paper) and stress configurations is pinned by length + FNV-1a
//!   fingerprint, tiny and seed captured from the pre-workspace
//!   implementation. Any change
//!   to what the pipeline *computes* — as opposed to how fast — moves
//!   the fingerprint and fails here. If a PR intends to change results,
//!   it must re-pin these constants and say so.
//! * **Memo equivalence** — property tests drive memoized and
//!   unmemoized climbs over randomized worlds and assert identical
//!   serialized `GroundTruth`.

use querygraph::core::experiment::{Experiment, ExperimentConfig};
use querygraph::core::ground_truth::{find_ground_truth, GroundTruthConfig, QualityEvaluator};
use querygraph::retrieval::engine::SearchEngine;
use querygraph::retrieval::index::IndexBuilder;
use querygraph::wiki::{ArticleId, KbBuilder, KnowledgeBase};

// The canonical FNV-1a (stable across platforms and rust versions,
// unlike `DefaultHasher`) — one implementation for every fingerprint
// in the workspace.
use querygraph::retrieval::ondisk::fnv1a;

/// Pinned pre-fast-path fingerprints (captured at PR 1's HEAD).
const TINY_LEN: usize = 62268;
const TINY_FNV: u64 = 0xef86_f006_77e1_7e07;
const PAPER_LEN: usize = 593_029;
const PAPER_FNV: u64 = 0xc91c_7675_c461_6d91;
/// Stress-tier pin, captured before the prefix-shared workspace and the
/// position-lazy phrase matcher landed — the tier where phrase matching
/// dominates ground truth, so it guards that rewrite's science.
const STRESS_LEN: usize = 396_726;
const STRESS_FNV: u64 = 0x6241_abda_d1bb_ef3e;

fn report_json(config: &ExperimentConfig) -> String {
    let experiment = Experiment::build(config);
    // Parallel is byte-identical to sequential (pipeline_determinism.rs
    // proves it separately); use it to keep the paper-scale pin fast.
    serde_json::to_string(&experiment.run_parallel(4)).expect("report serializes")
}

#[test]
fn golden_report_tiny_config() {
    let json = report_json(&ExperimentConfig::tiny());
    assert_eq!(json.len(), TINY_LEN, "tiny Report length moved");
    assert_eq!(
        fnv1a(json.as_bytes()),
        TINY_FNV,
        "tiny Report bytes diverged from the pre-fast-path pin"
    );
}

#[test]
fn golden_report_seed_config() {
    let json = report_json(&ExperimentConfig::default_paper());
    assert_eq!(json.len(), PAPER_LEN, "seed Report length moved");
    assert_eq!(
        fnv1a(json.as_bytes()),
        PAPER_FNV,
        "seed Report bytes diverged from the pre-fast-path pin"
    );
}

#[test]
fn golden_report_stress_config() {
    let json = report_json(&ExperimentConfig::stress());
    assert_eq!(json.len(), STRESS_LEN, "stress Report length moved");
    assert_eq!(
        fnv1a(json.as_bytes()),
        STRESS_FNV,
        "stress Report bytes diverged from the pin"
    );
}

/// The on-disk index cache must be invisible in the science: a run
/// whose index was **loaded** from a persisted artifact (warm phrase
/// dictionary included) must reproduce the same pinned fingerprints as
/// the in-memory build — for both the tiny and the seed configuration.
#[test]
fn golden_report_via_loaded_index() {
    let dir = std::env::temp_dir().join(format!("querygraph-golden-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cache dir");
    for (config, len, fnv) in [
        (ExperimentConfig::tiny(), TINY_LEN, TINY_FNV),
        (ExperimentConfig::default_paper(), PAPER_LEN, PAPER_FNV),
    ] {
        // Cold: build + persist. Warm: load from the artifact.
        let (_, cold) = Experiment::build_with_cache(&config, Some(&dir));
        assert_eq!(
            cold.index_source,
            querygraph::core::cache::IndexSource::Built
        );
        let (experiment, warm) = Experiment::build_with_cache(&config, Some(&dir));
        assert_eq!(
            warm.index_source,
            querygraph::core::cache::IndexSource::Loaded,
            "second build must hit the cache"
        );
        let json = serde_json::to_string(&experiment.run_parallel(4)).expect("report serializes");
        assert_eq!(json.len(), len, "loaded-index Report length moved");
        assert_eq!(
            fnv1a(json.as_bytes()),
            fnv,
            "loaded-index Report diverged from the golden pin"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ── memo ≡ no-memo on random worlds ─────────────────────────────────

/// The articles of [`random_world`], one per vocabulary word.
const ARTICLES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// Build a small world from sampled document word streams: one article
/// per vocabulary word, docs over the same vocabulary.
fn random_world(docs: &[Vec<u8>]) -> (KnowledgeBase, SearchEngine) {
    let mut kb = KbBuilder::new();
    let mut articles = Vec::new();
    for w in ARTICLES {
        articles.push(kb.add_article(w));
    }
    let c = kb.add_category("everything");
    for &a in &articles {
        kb.belongs(a, c);
    }
    let kb = kb.build().expect("kb builds");

    let mut ib = IndexBuilder::new();
    for d in docs {
        let text: Vec<&str> = d.iter().map(|&x| ARTICLES[x as usize]).collect();
        ib.add_document(&text.join(" "));
    }
    (kb, SearchEngine::new(ib.build()))
}

proptest::proptest! {
    /// `find_ground_truth` must return an identical (serialized)
    /// `GroundTruth` whether or not the subset memo is active, for
    /// arbitrary worlds, query articles, pools, and seeds. Query sets
    /// of zero to three articles and pools of up to seven let the climb
    /// SWAP and REMOVE at every position of the evaluated set: with an
    /// empty prefix, an empty suffix and both non-empty. Repeated picks
    /// put duplicate leaves in the mix.
    #[test]
    fn memoized_climb_equals_unmemoized(
        docs in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 1..14),
            2..12,
        ),
        query_picks in proptest::collection::vec(0u8..6, 0..4),
        pool_picks in proptest::collection::vec(0u8..6, 1..8),
        relevant_count in 1usize..4,
        query_id in 0u32..50,
    ) {
        let (kb, engine) = random_world(&docs);
        let relevant: Vec<u32> =
            (0..docs.len().min(relevant_count) as u32).collect();
        let ids: Vec<ArticleId> = ARTICLES
            .iter()
            .map(|t| kb.article_by_title(t).expect("article exists"))
            .collect();
        let query_articles: Vec<ArticleId> =
            query_picks.iter().map(|&p| ids[p as usize]).collect();
        let mut pool: Vec<ArticleId> = pool_picks
            .iter()
            .map(|&p| ids[p as usize])
            .collect();
        pool.dedup();

        let config = GroundTruthConfig {
            max_iterations: 12,
            ..GroundTruthConfig::default()
        };
        let memo = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let raw = QualityEvaluator::without_memo(&kb, &engine, &relevant, 15);
        let a = find_ground_truth(&memo, &config, query_id, &query_articles, &pool);
        let b = find_ground_truth(&raw, &config, query_id, &query_articles, &pool);
        proptest::prop_assert_eq!(
            serde_json::to_string(&a).expect("serializes"),
            serde_json::to_string(&b).expect("serializes")
        );
        // The request count is part of the contract: memo hits still
        // count, so `evaluations` is identical either way.
        proptest::prop_assert_eq!(a.evaluations, b.evaluations);
        proptest::prop_assert_eq!(b.cached_evaluations, 0);
        proptest::prop_assert_eq!(
            a.cached_evaluations + a.computed_evaluations,
            a.evaluations
        );
    }
}
