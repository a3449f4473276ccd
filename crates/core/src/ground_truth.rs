//! Ground-truth construction — the hill-climbing search of §2.2.
//!
//! Exhaustively evaluating every subset of L(q.D) is infeasible (the
//! paper notes the `Σ (|L(q.D)| choose i)` blow-up), so the paper uses a
//! local search: start from one random article, then repeatedly apply
//! the best of
//!
//! * **ADD** an article of L(q.D) to A′,
//! * **REMOVE** an article from A′,
//! * **SWAP** an article of A′ for one of L(q.D),
//!
//! "as long as they improve Equation 1 … Note that if after removing an
//! article the quality remains the same, the article is removed as we
//! want the minimum set of articles with the maximum quality."
//!
//! The implementation is faithful with one formal tightening: the loop
//! strictly increases the pair `(quality, −|A′|)` lexicographically, so
//! termination is guaranteed; a `max_iterations` cap guards degenerate
//! configurations anyway.

use querygraph_retrieval::backend::RetrievalBackend;
use querygraph_retrieval::metrics::{average_quality, precisions};
use querygraph_retrieval::workspace::{LeafId, ScoreWorkspace};
use querygraph_wiki::{ArticleId, KnowledgeBase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;

/// Tuning of the ground-truth search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthConfig {
    /// Base RNG seed; combined with the query id for the random start.
    pub seed: u64,
    /// Hard cap on hill-climbing iterations.
    pub max_iterations: usize,
    /// Retrieval depth (the largest cutoff of Eq. 1).
    pub search_depth: usize,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            seed: 0x5EED_CAFE,
            max_iterations: 60,
            search_depth: 15,
        }
    }
}

/// Result of the ground-truth search for one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// The expansion articles A′ (sorted by id).
    pub expansion: Vec<ArticleId>,
    /// O(L(q.k) ∪ A′, q.D) — the achieved quality.
    pub quality: f64,
    /// O(L(q.k), q.D) — the unexpanded baseline.
    pub baseline_quality: f64,
    /// Top-{1,5,10,15} precision of the final X(q) (Table 2 rows).
    pub precisions: [f64; 4],
    /// Number of quality evaluations *requested* by the hill climb
    /// (observability). Counts memo hits too, so the value is identical
    /// with and without the fast path.
    pub evaluations: usize,
    /// Evaluations answered from the subset memo. Not serialized: the
    /// `Report` byte-identity contract pins the pre-fast-path JSON.
    #[serde(skip)]
    pub cached_evaluations: usize,
    /// Evaluations that actually ran a workspace search. Not serialized
    /// (see `cached_evaluations`).
    #[serde(skip)]
    pub computed_evaluations: usize,
}

/// Running totals of one evaluator's quality evaluations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EvalCounts {
    /// Quality evaluations requested.
    pub(crate) evaluations: usize,
    /// Requests answered from the subset memo.
    pub(crate) cached: usize,
    /// Requests that ran a workspace search.
    pub(crate) computed: usize,
}

impl EvalCounts {
    /// Counts accumulated since `earlier` (which must be a prefix of
    /// this history).
    pub(crate) fn since(self, earlier: EvalCounts) -> EvalCounts {
        EvalCounts {
            evaluations: self.evaluations - earlier.evaluations,
            cached: self.cached - earlier.cached,
            computed: self.computed - earlier.computed,
        }
    }
}

/// Reusable evaluator: measures O of an article set against the
/// relevant set, through a per-query [`ScoreWorkspace`].
///
/// Each distinct article title is resolved into a workspace leaf
/// exactly **once** per evaluator (the old implementation rebuilt
/// `QueryNode::phrases_of_titles` — and with it every phrase lookup —
/// on every call). Qualities are additionally memoized by the sorted
/// article-id multiset, so the hill climb's revisited neighbors
/// (ubiquitous across REMOVE→SWAP passes) cost a hash lookup.
/// A computed neighbor is split for the workspace as
/// `prefix ++ [middle] ++ suffix` around the edited position, so the
/// neighbors of one ADD pass, and of one SWAP position, share a cached
/// prefix of partial scores.
///
/// Interior mutability: the workspace, leaf map, and memo live behind a
/// `RefCell`, keeping the `&self` call surface the pipeline and the
/// cycle analysis already use. The pipeline builds one evaluator per
/// query on the worker that owns it, so the cell is never contended.
pub struct QualityEvaluator<'a> {
    kb: &'a KnowledgeBase,
    relevant: Vec<u32>,
    search_depth: usize,
    state: RefCell<EvalState<'a>>,
}

struct EvalState<'a> {
    workspace: ScoreWorkspace<'a, dyn RetrievalBackend + 'a>,
    /// Article → resolved leaf (`None`: title normalizes to nothing).
    leaf_of: HashMap<ArticleId, Option<LeafId>>,
    /// Sorted article-id multiset → quality.
    ///
    /// Scores are summed in evaluation-sequence order, so two orderings
    /// of the same multiset can differ in the last ulp — but *quality*
    /// cannot: it is a ratio of relevant-hit counts at fixed cutoffs,
    /// and a count flip would need two documents with different
    /// `(tf, len)` statistics whose scores agree to ~1 ulp. Documents
    /// with *identical* statistics stay bitwise-tied under any leaf
    /// permutation (same op sequence applied to both) and resolve by
    /// doc id either way. The memoized-vs-raw property tests in
    /// `tests/ground_truth_fastpath.rs` and the golden pins exercise
    /// exactly this assumption.
    memo: HashMap<Vec<ArticleId>, f64>,
    memo_enabled: bool,
    counts: EvalCounts,
    /// Reused buffers — the climb evaluates thousands of candidate sets
    /// per query and must not allocate per candidate.
    scratch_sorted: Vec<ArticleId>,
    scratch_prefix: Vec<LeafId>,
    scratch_suffix: Vec<LeafId>,
}

impl<'a> QualityEvaluator<'a> {
    /// Evaluator for one query's relevant set (doc ids in any order).
    pub fn new(
        kb: &'a KnowledgeBase,
        engine: &'a dyn RetrievalBackend,
        relevant: &[u32],
        search_depth: usize,
    ) -> Self {
        Self::with_memo(kb, engine, relevant, search_depth, true)
    }

    /// Evaluator with the subset memo disabled — every evaluation runs a
    /// workspace search. Exists so the equivalence tests can compare
    /// memoized and unmemoized climbs.
    pub fn without_memo(
        kb: &'a KnowledgeBase,
        engine: &'a dyn RetrievalBackend,
        relevant: &[u32],
        search_depth: usize,
    ) -> Self {
        Self::with_memo(kb, engine, relevant, search_depth, false)
    }

    fn with_memo(
        kb: &'a KnowledgeBase,
        engine: &'a dyn RetrievalBackend,
        relevant: &[u32],
        search_depth: usize,
        memo_enabled: bool,
    ) -> Self {
        let mut relevant = relevant.to_vec();
        relevant.sort_unstable();
        relevant.dedup();
        QualityEvaluator {
            kb,
            relevant,
            search_depth,
            state: RefCell::new(EvalState {
                workspace: ScoreWorkspace::new(engine),
                leaf_of: HashMap::new(),
                memo: HashMap::new(),
                memo_enabled,
                counts: EvalCounts::default(),
                scratch_sorted: Vec::new(),
                scratch_prefix: Vec::new(),
                scratch_suffix: Vec::new(),
            }),
        }
    }

    /// O(articles, D) of Eq. 1 (memoized; counts one evaluation).
    pub(crate) fn quality(&self, articles: &[ArticleId]) -> f64 {
        self.quality_of(articles, None, &[])
    }

    /// O(set ∪ {extra}, D): quality with `extra` appended — the climb's
    /// ADD neighbor. Every ADD neighbor of `set` shares `set` as the
    /// workspace's cached prefix.
    pub(crate) fn with_article(&self, set: &[ArticleId], extra: ArticleId) -> f64 {
        self.quality_of(set, Some(extra), &[])
    }

    /// O(set \ set\[index\], D): quality with one position dropped — the
    /// climb's REMOVE neighbor.
    pub(crate) fn without_article(&self, set: &[ArticleId], index: usize) -> f64 {
        self.quality_of(&set[..index], None, &set[index + 1..])
    }

    /// O with `set[index]` replaced by `replacement` — the climb's SWAP
    /// neighbor. Every SWAP at one `index` shares `set[..index]` as the
    /// workspace's cached prefix.
    pub(crate) fn with_swap(&self, set: &[ArticleId], index: usize, replacement: ArticleId) -> f64 {
        self.quality_of(&set[..index], Some(replacement), &set[index + 1..])
    }

    /// Per-cutoff precisions of the article set (never memoized — the
    /// ranked list is needed, not just the quality).
    pub(crate) fn precisions(&self, articles: &[ArticleId]) -> [f64; 4] {
        let state = &mut *self.state.borrow_mut();
        let hits = self.search(state, articles, None, &[]);
        precisions(&hits, &self.relevant)
    }

    /// Evaluation counters so far (total / memo hits / computed).
    pub(crate) fn counts(&self) -> EvalCounts {
        self.state.borrow().counts
    }

    /// Distinct phrase resolutions performed by the workspace — exactly
    /// one per distinct article title evaluated through this evaluator.
    #[cfg(test)]
    pub(crate) fn resolutions(&self) -> usize {
        self.state.borrow().workspace.resolutions()
    }

    /// The quality core: the evaluated article sequence is
    /// `prefix ++ [middle] ++ suffix` — `set` order, an edit in place,
    /// an appended article last. Leaf order is float-summation order, so
    /// this order is part of the byte-identity contract.
    fn quality_of(
        &self,
        prefix: &[ArticleId],
        middle: Option<ArticleId>,
        suffix: &[ArticleId],
    ) -> f64 {
        let state = &mut *self.state.borrow_mut();
        state.counts.evaluations += 1;

        if state.memo_enabled {
            let sorted = &mut state.scratch_sorted;
            sorted.clear();
            sorted.extend_from_slice(prefix);
            sorted.extend(middle);
            sorted.extend_from_slice(suffix);
            sorted.sort_unstable();
            // `Vec<ArticleId>: Borrow<[ArticleId]>` lets the lookup run
            // without materializing an owned key.
            if let Some(&q) = state.memo.get(sorted.as_slice()) {
                state.counts.cached += 1;
                return q;
            }
        }

        state.counts.computed += 1;
        let hits = self.search(state, prefix, middle, suffix);
        let q = average_quality(&hits, &self.relevant);
        if state.memo_enabled {
            let key = state.scratch_sorted.clone();
            state.memo.insert(key, q);
        }
        q
    }

    /// Resolve the articles to leaves (titles that normalize to nothing
    /// drop out) and run the split workspace search.
    fn search(
        &self,
        state: &mut EvalState<'_>,
        prefix: &[ArticleId],
        middle: Option<ArticleId>,
        suffix: &[ArticleId],
    ) -> Vec<querygraph_retrieval::SearchHit> {
        let EvalState {
            workspace,
            leaf_of,
            scratch_prefix,
            scratch_suffix,
            ..
        } = state;
        let mut leaf = |a: ArticleId| {
            *leaf_of
                .entry(a)
                .or_insert_with(|| workspace.add_title(self.kb.title(a)))
        };
        scratch_prefix.clear();
        scratch_prefix.extend(prefix.iter().filter_map(|&a| leaf(a)));
        let middle = middle.and_then(&mut leaf);
        scratch_suffix.clear();
        scratch_suffix.extend(suffix.iter().filter_map(|&a| leaf(a)));
        workspace.search_split(scratch_prefix, middle, scratch_suffix, self.search_depth)
    }
}

/// Run the §2.2 hill climb.
///
/// * `query_articles` — L(q.k), always part of the evaluated set.
/// * `pool` — L(q.D), the candidate expansion articles.
///
/// Returns the best A′ found. With an empty pool the result is the
/// baseline itself (empty expansion).
pub fn find_ground_truth(
    evaluator: &QualityEvaluator<'_>,
    config: &GroundTruthConfig,
    query_id: u32,
    query_articles: &[ArticleId],
    pool: &[ArticleId],
) -> GroundTruth {
    /// The climb's best ADD/SWAP move of one pass.
    enum Move {
        Add(ArticleId),
        Swap(usize, ArticleId),
    }

    let counts_at_entry = evaluator.counts();

    // `current` is the evaluated set L(q.k) ++ A′: query articles in
    // their given order, then the expansion in climb order. Neighbor
    // evaluations edit it positionally through the evaluator instead of
    // materializing a candidate `Vec` each (the pre-workspace
    // implementation cloned A′ per neighbor).
    let mut current: Vec<ArticleId> = query_articles.to_vec();
    let base_len = current.len();

    let baseline_quality = evaluator.quality(&current);

    // Candidate pool without the query articles themselves (adding them
    // is a no-op for the evaluated set).
    let pool: Vec<ArticleId> = pool
        .iter()
        .copied()
        .filter(|a| !query_articles.contains(a))
        .collect();

    let mut quality = baseline_quality;

    if !pool.is_empty() {
        // Random start, seeded per query.
        let mut rng = StdRng::seed_from_u64(config.seed ^ (query_id as u64).wrapping_mul(0x9E37));
        current.push(pool[rng.gen_range(0..pool.len())]);
        quality = evaluator.quality(&current);
        // A start below baseline is still kept — the climb can recover
        // via REMOVE (quality ties favour smaller sets anyway).

        const EPS: f64 = 1e-12;
        for _ in 0..config.max_iterations {
            // Pass 1 — REMOVE whenever quality does not degrade
            // (strictly shrinks the set on ties: minimality rule).
            let mut removed = false;
            let mut best_remove: Option<(usize, f64)> = None;
            for i in base_len..current.len() {
                let q = evaluator.without_article(&current, i);
                if q + EPS >= quality && best_remove.is_none_or(|(_, bq)| q > bq) {
                    best_remove = Some((i, q));
                }
            }
            if let Some((i, q)) = best_remove {
                current.remove(i);
                quality = q;
                removed = true;
            }

            // Pass 2 — best strict improvement among ADD and SWAP.
            let in_a_prime = |current: &[ArticleId], a: ArticleId| current[base_len..].contains(&a);
            let mut best: Option<(Move, f64)> = None;
            for &a in &pool {
                if in_a_prime(&current, a) {
                    continue;
                }
                let q = evaluator.with_article(&current, a);
                if q > quality + EPS && best.as_ref().is_none_or(|(_, bq)| q > *bq) {
                    best = Some((Move::Add(a), q));
                }
            }
            for i in base_len..current.len() {
                for &a in &pool {
                    if in_a_prime(&current, a) {
                        continue;
                    }
                    let q = evaluator.with_swap(&current, i, a);
                    if q > quality + EPS && best.as_ref().is_none_or(|(_, bq)| q > *bq) {
                        best = Some((Move::Swap(i, a), q));
                    }
                }
            }
            match best {
                Some((Move::Add(a), q)) => {
                    current.push(a);
                    quality = q;
                }
                Some((Move::Swap(i, a), q)) => {
                    current[i] = a;
                    quality = q;
                }
                None if !removed => break, // local optimum
                None => {}                 // only shrank; try again
            }
        }
    }

    let mut a_prime: Vec<ArticleId> = current[base_len..].to_vec();
    a_prime.sort_unstable();
    let mut final_set: Vec<ArticleId> = query_articles.to_vec();
    for &a in &a_prime {
        if !final_set.contains(&a) {
            final_set.push(a);
        }
    }
    let counts = evaluator.counts().since(counts_at_entry);
    GroundTruth {
        expansion: a_prime,
        quality,
        baseline_quality,
        precisions: evaluator.precisions(&final_set),
        evaluations: counts.evaluations,
        cached_evaluations: counts.cached,
        computed_evaluations: counts.computed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_retrieval::engine::SearchEngine;
    use querygraph_retrieval::index::IndexBuilder;
    use querygraph_wiki::KbBuilder;

    /// A tiny controlled world: 3 articles, docs engineered so that
    /// expanding with "beta" is the unique win and "gamma" is harmful.
    fn world() -> (KnowledgeBase, SearchEngine, Vec<u32>) {
        let mut b = KbBuilder::new();
        let alpha = b.add_article("alpha");
        let beta = b.add_article("beta");
        let gamma = b.add_article("gamma");
        let c = b.add_category("things");
        for a in [alpha, beta, gamma] {
            b.belongs(a, c);
        }
        let kb = b.build().unwrap();

        let mut ib = IndexBuilder::new();
        // Relevant docs (0..4): mention beta, rarely alpha.
        ib.add_document("beta item one");
        ib.add_document("beta item two");
        ib.add_document("alpha beta item three");
        ib.add_document("beta item four");
        // Distractors mentioning gamma and alpha.
        for i in 0..8 {
            ib.add_document(&format!("gamma distractor number {i}"));
        }
        ib.add_document("alpha alone here");
        let engine = SearchEngine::new(ib.build());
        (kb, engine, vec![0, 1, 2, 3])
    }

    #[test]
    fn finds_the_good_expansion() {
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gamma = kb.article_by_title("gamma").unwrap();
        let gt = find_ground_truth(
            &evaluator,
            &GroundTruthConfig::default(),
            1,
            &[alpha],
            &[beta, gamma],
        );
        assert_eq!(gt.expansion, vec![beta], "beta retrieves all relevant docs");
        assert!(gt.quality > gt.baseline_quality);
        assert!(gt.evaluations > 0);
    }

    #[test]
    fn empty_pool_returns_baseline() {
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let gt = find_ground_truth(&evaluator, &GroundTruthConfig::default(), 1, &[alpha], &[]);
        assert!(gt.expansion.is_empty());
        assert_eq!(gt.quality, gt.baseline_quality);
    }

    #[test]
    fn harmful_start_is_recovered() {
        // Force the random start onto gamma (only candidate) — REMOVE
        // must fire if gamma hurts; here pool = {gamma} only.
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gamma = kb.article_by_title("gamma").unwrap();
        let gt = find_ground_truth(
            &evaluator,
            &GroundTruthConfig::default(),
            2,
            &[alpha, beta],
            &[gamma],
        );
        // With alpha+beta already strong, gamma (matching only noise)
        // must not survive in A′.
        assert!(
            gt.expansion.is_empty(),
            "gamma should be removed, got {:?}",
            gt.expansion
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gamma = kb.article_by_title("gamma").unwrap();
        let cfg = GroundTruthConfig::default();
        let a = find_ground_truth(&evaluator, &cfg, 7, &[alpha], &[beta, gamma]);
        let b = find_ground_truth(&evaluator, &cfg, 7, &[alpha], &[beta, gamma]);
        // The second climb reuses the first's memo, so the cached vs
        // computed split differs — but every serialized (scientific)
        // field must be identical.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(a.evaluations, b.evaluations, "memo hits still count");
        assert_eq!(b.computed_evaluations, 0, "rerun is fully memo-served");
        assert_eq!(b.cached_evaluations, b.evaluations);
    }

    #[test]
    fn memoized_and_unmemoized_climbs_agree() {
        let (kb, engine, relevant) = world();
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gamma = kb.article_by_title("gamma").unwrap();
        let cfg = GroundTruthConfig::default();
        for qid in [1, 2, 5, 9] {
            let memo = QualityEvaluator::new(&kb, &engine, &relevant, 15);
            let raw = QualityEvaluator::without_memo(&kb, &engine, &relevant, 15);
            let a = find_ground_truth(&memo, &cfg, qid, &[alpha], &[beta, gamma]);
            let b = find_ground_truth(&raw, &cfg, qid, &[alpha], &[beta, gamma]);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "memoization changed the climb for query {qid}"
            );
            assert_eq!(b.cached_evaluations, 0, "memo disabled");
            assert_eq!(b.computed_evaluations, b.evaluations);
            assert_eq!(
                a.cached_evaluations + a.computed_evaluations,
                a.evaluations,
                "counter split must partition the total"
            );
        }
    }

    #[test]
    fn one_phrase_resolution_per_distinct_title() {
        // The pre-workspace evaluator rebuilt `phrases_of_titles` — and
        // re-resolved every title phrase — on every quality call. The
        // workspace resolves each distinct title once per query.
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gamma = kb.article_by_title("gamma").unwrap();
        let gt = find_ground_truth(
            &evaluator,
            &GroundTruthConfig::default(),
            1,
            &[alpha],
            &[beta, gamma],
        );
        assert!(gt.evaluations > 3, "the climb evaluated many neighbors");
        assert_eq!(
            evaluator.resolutions(),
            3,
            "exactly one resolution per distinct title (3 articles)"
        );
        // More evaluations never resolve more phrases.
        evaluator.quality(&[alpha, beta, gamma]);
        assert_eq!(evaluator.resolutions(), 3);
    }

    #[test]
    fn revisited_neighbors_hit_the_memo() {
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gamma = kb.article_by_title("gamma").unwrap();
        let gt = find_ground_truth(
            &evaluator,
            &GroundTruthConfig::default(),
            1,
            &[alpha],
            &[beta, gamma],
        );
        assert!(
            gt.cached_evaluations > 0,
            "REMOVE/SWAP passes revisit subsets: {gt:?}"
        );
    }

    #[test]
    fn quality_never_below_baseline_when_pool_useful() {
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gt = find_ground_truth(
            &evaluator,
            &GroundTruthConfig::default(),
            3,
            &[alpha],
            &[beta],
        );
        assert!(gt.quality >= gt.baseline_quality);
    }

    #[test]
    fn precisions_match_quality() {
        let (kb, engine, relevant) = world();
        let evaluator = QualityEvaluator::new(&kb, &engine, &relevant, 15);
        let alpha = kb.article_by_title("alpha").unwrap();
        let beta = kb.article_by_title("beta").unwrap();
        let gt = find_ground_truth(
            &evaluator,
            &GroundTruthConfig::default(),
            4,
            &[alpha],
            &[beta],
        );
        let mean = gt.precisions.iter().sum::<f64>() / 4.0;
        assert!((mean - gt.quality).abs() < 1e-9);
    }
}
