//! Per-query score workspace — the §2.2 hill climb's fast path.
//!
//! [`crate::engine::SearchEngine::search`] re-flattens the query AST,
//! re-matches every title phrase against the cache, and rebuilds a
//! `HashMap<doc, tf>` per leaf on **every** call. The hill climb calls
//! it thousands of times per query over candidate sets drawn from a
//! small, fixed pool of article titles, so almost all of that work is
//! identical between calls.
//!
//! [`ScoreWorkspace`] hoists it out of the loop: each distinct title is
//! resolved **once** into a [`LeafId`] — phrase postings, collection
//! probability, and a dense vector of per-document log-beliefs over the
//! workspace's document universe (the union of every added leaf's
//! matching documents). Evaluating a candidate set then reduces to
//! summing precomputed per-leaf contributions over the union of the
//! chosen leaves' documents: no phrase matching, no hashing, no
//! allocation proportional to the index.
//!
//! The output contract is exact: [`ScoreWorkspace::search`] returns
//! bit-identical hits to running the engine on
//! [`QueryNode::phrases_of_titles`] of the same titles, because it
//! performs the same floating-point operations in the same order —
//! `score += weight · log_belief(tf, len, p)` per leaf, leaves in title
//! order, candidates in ascending document order, the same [`TopK`].
//! The pipeline's byte-identical-`Report` contract rests on this.

use crate::backend::RetrievalBackend;
use crate::engine::{SearchEngine, SearchHit};
use crate::lm::log_belief_with_floor;
use crate::query_lang::QueryNode;
use crate::topk::TopK;
use querygraph_text::tokenize;
use std::collections::HashMap;

/// Handle to one resolved title phrase inside a [`ScoreWorkspace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafId(u32);

/// One resolved phrase leaf: where it matches and what each document of
/// the universe scores against it.
struct WsLeaf {
    /// `(doc, slot)` of every document the phrase occurs in, ascending
    /// by doc id.
    matches: Vec<(u32, u32)>,
    /// `tf` per entry of `matches` (parallel vector), kept so lazily
    /// grown universes can recompute beliefs exactly.
    match_tfs: Vec<u32>,
    /// Exact phrase collection probability.
    collection_prob: f64,
    /// Log-belief per universe slot (lazily extended as the universe
    /// grows): `log_belief(tf, len, collection_prob)` with `tf = 0` for
    /// non-matching documents.
    beliefs: Vec<f64>,
}

/// Per-query scoring workspace over a shared
/// [`RetrievalBackend`] (defaulting to the monolithic
/// [`SearchEngine`]; the sharded engine plugs in through the same
/// trait, with bit-identical output by the backend contract).
///
/// Single-threaded by design: the pipeline builds one per query on the
/// worker that owns it. The backend's phrase cache still de-duplicates
/// resolution work *across* workspaces.
pub struct ScoreWorkspace<'a, B: RetrievalBackend + ?Sized = SearchEngine> {
    engine: &'a B,
    leaves: Vec<WsLeaf>,
    /// Tokenized title → leaf, so a title is resolved exactly once.
    leaf_by_words: HashMap<Vec<String>, LeafId>,
    /// Document universe: `(doc, len)` per slot, in first-seen order.
    docs: Vec<(u32, u32)>,
    slot_by_doc: HashMap<u32, u32>,
    /// Distinct phrase resolutions performed (observability; the unit
    /// tests assert one per distinct title).
    resolutions: usize,
    /// Reused per-search buffers (the hill climb searches thousands of
    /// times per query; nothing here may allocate per call).
    scratch: Scratch,
}

/// Reusable buffers for [`ScoreWorkspace::search`].
#[derive(Default)]
struct Scratch {
    /// Candidate `(doc, slot)` pairs of the current search.
    cand: Vec<(u32, u32)>,
    /// Score accumulator parallel to `cand`.
    scores: Vec<f64>,
    /// Per-slot visit stamp: `stamps[slot] == epoch` ⇔ slot already a
    /// candidate this search (O(1) dedup without hashing or a
    /// multiset sort).
    stamps: Vec<u64>,
    epoch: u64,
}

impl<'a, B: RetrievalBackend + ?Sized> ScoreWorkspace<'a, B> {
    /// Empty workspace over `engine`.
    pub fn new(engine: &'a B) -> Self {
        ScoreWorkspace {
            engine,
            leaves: Vec::new(),
            leaf_by_words: HashMap::new(),
            docs: Vec::new(),
            slot_by_doc: HashMap::new(),
            resolutions: 0,
            scratch: Scratch::default(),
        }
    }

    /// Resolve `title` into a leaf, reusing an existing one when the
    /// tokenized words match. Returns `None` when the title normalizes
    /// to nothing (mirroring [`QueryNode::phrases_of_titles`], which
    /// skips such titles).
    pub fn add_title(&mut self, title: &str) -> Option<LeafId> {
        let words = tokenize(title);
        if words.is_empty() {
            return None;
        }
        if let Some(&id) = self.leaf_by_words.get(&words) {
            return Some(id);
        }
        let info = self.engine.resolve_phrase(&words);
        self.resolutions += 1;

        let mut matches = Vec::with_capacity(info.hits.len());
        let mut match_tfs = Vec::with_capacity(info.hits.len());
        for hit in &info.hits {
            let slot = match self.slot_by_doc.get(&hit.doc) {
                Some(&s) => s,
                None => {
                    let s = self.docs.len() as u32;
                    self.docs.push((hit.doc, self.engine.doc_len(hit.doc)));
                    self.slot_by_doc.insert(hit.doc, s);
                    s
                }
            };
            matches.push((hit.doc, slot));
            match_tfs.push(hit.tf);
        }

        let id = LeafId(self.leaves.len() as u32);
        self.leaves.push(WsLeaf {
            matches,
            match_tfs,
            collection_prob: info.collection_prob,
            beliefs: Vec::new(),
        });
        self.leaf_by_words.insert(words, id);
        Some(id)
    }

    /// Extend `leaf`'s belief vector to cover the current universe.
    fn ensure_beliefs(&mut self, leaf: LeafId) {
        let params = self.engine.params();
        let epsilon = self.engine.epsilon_prob();
        let l = &mut self.leaves[leaf.0 as usize];
        let from = l.beliefs.len();
        if from == self.docs.len() {
            return;
        }
        // Background beliefs for every new slot…
        l.beliefs.extend(
            self.docs[from..]
                .iter()
                .map(|&(_, len)| log_belief_with_floor(params, epsilon, 0, len, l.collection_prob)),
        );
        // …then overwrite the slots this leaf actually matches.
        for (i, &(_, slot)) in l.matches.iter().enumerate() {
            if slot as usize >= from {
                let (_, len) = self.docs[slot as usize];
                l.beliefs[slot as usize] =
                    log_belief_with_floor(params, epsilon, l.match_tfs[i], len, l.collection_prob);
            }
        }
    }

    /// Score the `#combine` of the given leaves' phrases, returning the
    /// best `k` documents — bit-identical to
    /// `engine.search(&QueryNode::phrases_of_titles(titles), k)` for the
    /// titles the leaves were created from (duplicate leaves count
    /// twice, exactly like duplicate phrases in the AST).
    pub fn search(&mut self, leaf_ids: &[LeafId], k: usize) -> Vec<SearchHit> {
        if leaf_ids.is_empty() {
            return Vec::new();
        }
        for &id in leaf_ids {
            self.ensure_beliefs(id);
        }
        let Self {
            leaves, scratch, ..
        } = self;

        // Candidates: union of the chosen leaves' documents, ascending
        // by doc id (the engine sorts + dedups the same union). Stamps
        // dedup in O(1) per match so the sort runs over the union, not
        // the multiset.
        scratch.stamps.resize(self.docs.len(), 0);
        scratch.epoch += 1;
        scratch.cand.clear();
        for &id in leaf_ids {
            for &(doc, slot) in &leaves[id.0 as usize].matches {
                let stamp = &mut scratch.stamps[slot as usize];
                if *stamp != scratch.epoch {
                    *stamp = scratch.epoch;
                    scratch.cand.push((doc, slot));
                }
            }
        }
        scratch.cand.sort_unstable();

        // Leaf-outer accumulation: each candidate's score still sums in
        // leaf order (scores[ci] gathers one `weight · belief` term per
        // leaf pass, in `leaf_ids` order), so the floating-point result
        // is bit-identical to the engine's doc-outer loop — but each
        // pass streams one dense belief vector instead of hopping
        // between leaves per document.
        let weight = 1.0 / leaf_ids.len() as f64;
        scratch.scores.clear();
        scratch.scores.resize(scratch.cand.len(), 0.0);
        for &id in leaf_ids {
            let beliefs = &leaves[id.0 as usize].beliefs;
            accumulate_chunked(&scratch.cand, beliefs, weight, &mut scratch.scores);
        }

        let mut topk = TopK::new(k);
        for (&(doc, _), &score) in scratch.cand.iter().zip(scratch.scores.iter()) {
            topk.push(doc, score);
        }
        topk.into_sorted()
    }

    /// Number of distinct phrase resolutions performed so far.
    pub fn resolutions(&self) -> usize {
        self.resolutions
    }

    /// Number of resolved leaves (≤ titles added; duplicates collapse).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Size of the document universe covered so far.
    pub fn universe_size(&self) -> usize {
        self.docs.len()
    }

    /// The reference query the engine would run for `titles` — used by
    /// the equivalence tests.
    pub fn reference_query<S: AsRef<str>>(titles: &[S]) -> QueryNode {
        QueryNode::phrases_of_titles(titles)
    }
}

/// Lane width of the dense accumulation loop: eight f64 = one cache
/// line, and a width LLVM turns into packed mul/add on every SIMD ISA
/// the repro targets.
const LANES: usize = 8;

/// The dominant inner loop of the hill climb:
/// `scores[i] += weight · beliefs[slot(cand[i])]` for every candidate.
///
/// Split into fixed-width `[f64; LANES]` chunks — gather the lane's
/// beliefs, then one multiply-add per element — so the compiler can
/// autovectorize the arithmetic even though the belief access is a
/// gather. Each element is touched by exactly one multiply and one add,
/// just like the straight-line loop, and elements are independent, so
/// the result is **bit-identical** for any chunking; the byte-identity
/// golden pins hold (the equivalence proptests below run through this
/// path).
fn accumulate_chunked(cand: &[(u32, u32)], beliefs: &[f64], weight: f64, scores: &mut [f64]) {
    debug_assert_eq!(cand.len(), scores.len());
    let whole = cand.len() - cand.len() % LANES;
    let (cand_head, cand_tail) = cand.split_at(whole);
    let (scores_head, scores_tail) = scores.split_at_mut(whole);
    for (c, s) in cand_head
        .chunks_exact(LANES)
        .zip(scores_head.chunks_exact_mut(LANES))
    {
        let mut lane = [0.0f64; LANES];
        for i in 0..LANES {
            lane[i] = beliefs[c[i].1 as usize];
        }
        for i in 0..LANES {
            s[i] += weight * lane[i];
        }
    }
    for (&(_, slot), score) in cand_tail.iter().zip(scores_tail.iter_mut()) {
        *score += weight * beliefs[slot as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;

    #[test]
    fn chunked_accumulation_matches_scalar_loop() {
        // Lengths straddling every remainder class around the lane
        // width, including the empty and sub-lane cases.
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 64, 100] {
            let beliefs: Vec<f64> = (0..n).map(|i| -((i + 1) as f64).ln()).collect();
            // Slots deliberately permuted: the gather must not assume
            // cand order matches slot order.
            let cand: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (n as u32 - 1 - i))).collect();
            let weight = 1.0 / 3.0;
            let mut chunked = vec![0.125f64; n];
            accumulate_chunked(&cand, &beliefs, weight, &mut chunked);
            let mut scalar = vec![0.125f64; n];
            for (&(_, slot), score) in cand.iter().zip(scalar.iter_mut()) {
                *score += weight * beliefs[slot as usize];
            }
            let chunked_bits: Vec<u64> = chunked.iter().map(|f| f.to_bits()).collect();
            let scalar_bits: Vec<u64> = scalar.iter().map(|f| f.to_bits()).collect();
            assert_eq!(chunked_bits, scalar_bits, "n={n}");
        }
    }

    fn engine() -> SearchEngine {
        let mut b = IndexBuilder::new();
        b.add_document("a gondola on the grand canal of venice"); // 0
        b.add_document("the grand hotel beside a small canal"); // 1
        b.add_document("venice has many bridges and one grand canal"); // 2
        b.add_document("completely unrelated text about mountains"); // 3
        b.add_document("gondola gondola gondola"); // 4
        SearchEngine::new(b.build())
    }

    fn ws_search(e: &SearchEngine, titles: &[&str], k: usize) -> Vec<SearchHit> {
        let mut ws = ScoreWorkspace::new(e);
        let leaves: Vec<LeafId> = titles.iter().filter_map(|t| ws.add_title(t)).collect();
        ws.search(&leaves, k)
    }

    #[test]
    fn matches_engine_on_single_title() {
        let e = engine();
        let fast = ws_search(&e, &["Grand Canal"], 10);
        let slow = e.search(&QueryNode::phrases_of_titles(&["Grand Canal"]), 10);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matches_engine_on_title_combinations() {
        let e = engine();
        let title_sets: &[&[&str]] = &[
            &["Grand Canal", "Gondola"],
            &["Gondola", "Grand Canal"],
            &["Venice", "Grand Canal", "Gondola"],
            &["Venice"],
            &["Nonexistent Phrase", "Gondola"],
        ];
        for titles in title_sets {
            let fast = ws_search(&e, titles, 15);
            let slow = e.search(&QueryNode::phrases_of_titles(titles), 15);
            assert_eq!(fast, slow, "diverged for {titles:?}");
        }
    }

    #[test]
    fn empty_and_unmatchable_titles() {
        let e = engine();
        let mut ws = ScoreWorkspace::new(&e);
        assert_eq!(ws.add_title("!!!"), None, "normalizes to nothing");
        assert!(ws.search(&[], 5).is_empty());
        // A title whose words are unknown still becomes a leaf (it
        // contributes background mass, like the engine's empty leaf)…
        let ghost = ws.add_title("zzzz qqqq").unwrap();
        // …but alone it matches no documents.
        assert!(ws.search(&[ghost], 5).is_empty());
    }

    #[test]
    fn unknown_leaf_drags_scores_like_engine() {
        let e = engine();
        let fast = ws_search(&e, &["Gondola", "zzzz qqqq"], 10);
        let slow = e.search(&QueryNode::phrases_of_titles(&["Gondola", "zzzz qqqq"]), 10);
        assert_eq!(fast, slow);
        assert!(!fast.is_empty(), "gondola docs still retrieved");
    }

    #[test]
    fn one_resolution_per_distinct_title() {
        let e = engine();
        let mut ws = ScoreWorkspace::new(&e);
        let a = ws.add_title("Grand Canal").unwrap();
        let b = ws.add_title("grand canal").unwrap(); // same after tokenize
        let c = ws.add_title("Gondola").unwrap();
        assert_eq!(a, b, "equal tokenizations share a leaf");
        assert_ne!(a, c);
        assert_eq!(ws.resolutions(), 2);
        assert_eq!(ws.leaf_count(), 2);
        // Re-searching never resolves again.
        ws.search(&[a, c], 10);
        ws.search(&[c], 10);
        assert_eq!(ws.resolutions(), 2);
    }

    #[test]
    fn universe_grows_lazily_and_backfills() {
        let e = engine();
        let mut ws = ScoreWorkspace::new(&e);
        let gondola = ws.add_title("Gondola").unwrap();
        let first = ws.search(&[gondola], 10);
        let before = ws.universe_size();
        // New leaf brings new docs into the universe…
        let canal = ws.add_title("Grand Canal").unwrap();
        assert!(ws.universe_size() >= before);
        // …and combined scoring still matches the engine exactly.
        let fast = ws.search(&[gondola, canal], 10);
        let slow = e.search(
            &QueryNode::phrases_of_titles(&["Gondola", "Grand Canal"]),
            10,
        );
        assert_eq!(fast, slow);
        // The original single-leaf result is unchanged by growth.
        assert_eq!(ws.search(&[gondola], 10), first);
    }

    #[test]
    fn duplicate_leaves_count_twice() {
        let e = engine();
        let mut ws = ScoreWorkspace::new(&e);
        let g = ws.add_title("Gondola").unwrap();
        let v = ws.add_title("Venice").unwrap();
        let fast = ws.search(&[g, g, v], 10);
        let slow = e.search(
            &QueryNode::phrases_of_titles(&["Gondola", "Gondola", "Venice"]),
            10,
        );
        assert_eq!(fast, slow);
    }

    proptest::proptest! {
        /// Workspace scoring must agree with the engine on arbitrary
        /// small worlds and title subsets, in any order.
        #[test]
        fn equivalent_to_engine_on_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..5, 1..12),
                1..10,
            ),
            picks in proptest::collection::vec(0u8..5, 1..6),
        ) {
            let word = |b: u8| ["alpha", "beta", "gamma", "delta", "beta gamma"][b as usize];
            let mut b = IndexBuilder::new();
            for d in &docs {
                let text: Vec<&str> = d.iter().map(|&x| word(x)).collect();
                b.add_document(&text.join(" "));
            }
            let e = SearchEngine::new(b.build());
            let titles: Vec<&str> = picks.iter().map(|&x| word(x)).collect();
            let mut ws = ScoreWorkspace::new(&e);
            let leaves: Vec<LeafId> =
                titles.iter().filter_map(|t| ws.add_title(t)).collect();
            let fast = ws.search(&leaves, 15);
            let slow = e.search(&QueryNode::phrases_of_titles(&titles), 15);
            proptest::prop_assert_eq!(fast, slow);
        }
    }
}
