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
//! summing precomputed per-leaf contributions over the chosen leaves'
//! documents: no phrase matching, no hashing, no allocation
//! proportional to the index.
//!
//! A climb's neighbours share most of their leaves, so a search takes
//! its leaf sequence split as `prefix ++ [middle] ++ suffix`
//! ([`ScoreWorkspace::search_split`]) and the workspace caches one
//! prefix: its candidate documents and each candidate's partial sum
//! over the prefix leaves, keyed by the prefix leaves and the weight
//! `1/n`. Every ADD neighbour of one climb pass shares the current set
//! as its prefix; every SWAP at one position shares the leaves before
//! it. A call then pays only for the middle and suffix leaves, plus a
//! fresh prefix sum for each document only they match.
//!
//! The output contract is exact: the workspace returns bit-identical
//! hits to running the engine on `QueryNode::phrases_of_titles` of
//! the same titles. Every document's score is the engine's sequence of
//! `score += weight · log_belief(tf, len, p)` from `0.0`, leaves in
//! title order — a cached partial sum is that sequence stopped after
//! the prefix. Candidates reach the `TopK` in no particular order,
//! which cannot matter: it keeps the best `k` under a total order
//! (score descending, doc id ascending). The pipeline's
//! byte-identical-`Report` contract rests on this.

use crate::backend::RetrievalBackend;
use crate::engine::{SearchEngine, SearchHit};
use crate::lm::log_belief_with_floor;
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

/// The cached prefix of the last [`ScoreWorkspace::search_split`].
/// Its candidates and sums stay valid while the universe grows: a
/// leaf's matches are fixed when it is added, and beliefs of existing
/// slots never change.
#[derive(Default)]
struct Prefix {
    /// The prefix leaves, in order.
    leaves: Vec<LeafId>,
    /// Bits of the weight `1/n` the sums were taken with; `0` (no real
    /// weight: `n ≥ 1`) until a prefix is cached.
    weight_bits: u64,
    /// `marks[slot] == tag` ⇔ the slot is a prefix candidate.
    tag: u64,
    /// `(doc, slot)` of every document a prefix leaf matches, each once.
    cand: Vec<(u32, u32)>,
    /// `Σ weight · belief` over the prefix leaves in order, from `0.0`,
    /// parallel to `cand`.
    sums: Vec<f64>,
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
    prefix: Prefix,
    /// Per-slot mark: the cached prefix's tag for its candidates, the
    /// current call's tag for documents only the middle or suffix
    /// match (O(1) dedup without hashing or sorting).
    marks: Vec<u64>,
    /// Last tag handed out; every prefix and every call takes a new one.
    tag: u64,
    /// `(doc, slot)` of the current call's documents outside the
    /// prefix candidates (reused across calls).
    extra: Vec<(u32, u32)>,
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
            prefix: Prefix::default(),
            marks: Vec::new(),
            tag: 0,
            extra: Vec::new(),
        }
    }

    /// Resolve `title` into a leaf, reusing an existing one when the
    /// tokenized words match. Returns `None` when the title normalizes
    /// to nothing (mirroring `QueryNode::phrases_of_titles`, which
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

    /// [`ScoreWorkspace::search_split`] of one leaf sequence, with no
    /// middle leaf and no suffix.
    #[cfg(test)]
    pub(crate) fn search(&mut self, leaf_ids: &[LeafId], k: usize) -> Vec<SearchHit> {
        self.search_split(leaf_ids, None, &[], k)
    }

    /// Score the `#combine` of the phrases of the leaf sequence
    /// `prefix ++ [middle] ++ suffix`, returning the best `k` documents —
    /// bit-identical to
    /// `engine.search(&QueryNode::phrases_of_titles(titles), k)` for the
    /// titles the leaves were created from (duplicate leaves count
    /// twice, exactly like duplicate phrases in the AST). Reuses the
    /// cached prefix when `prefix` and the sequence length match the last
    /// call that cached one, and caches `prefix` otherwise.
    pub fn search_split(
        &mut self,
        prefix: &[LeafId],
        middle: Option<LeafId>,
        suffix: &[LeafId],
        k: usize,
    ) -> Vec<SearchHit> {
        let n = prefix.len() + usize::from(middle.is_some()) + suffix.len();
        if n == 0 {
            return Vec::new();
        }
        for &id in prefix.iter().chain(&middle).chain(suffix) {
            self.ensure_beliefs(id);
        }
        let weight = 1.0 / n as f64;
        self.marks.resize(self.docs.len(), 0);
        if self.prefix.weight_bits != weight.to_bits() || self.prefix.leaves != prefix {
            self.cache_prefix(prefix, weight);
        }
        let Self {
            leaves,
            prefix: cached,
            marks,
            tag,
            extra,
            ..
        } = self;
        let beliefs = |id: &LeafId| leaves[id.0 as usize].beliefs.as_slice();
        let tail: Vec<&[f64]> = middle.iter().chain(suffix).map(beliefs).collect();
        let mut topk = TopK::new(k);

        // Prefix candidates resume from their cached partial sums.
        for (&(doc, slot), &sum) in cached.cand.iter().zip(&cached.sums) {
            let mut score = sum;
            for b in &tail {
                score += weight * b[slot as usize];
            }
            topk.push(doc, score);
        }

        // Documents only the middle or suffix match: the whole sum,
        // prefix leaves first.
        *tag += 1;
        extra.clear();
        for &id in middle.iter().chain(suffix) {
            for &(doc, slot) in &leaves[id.0 as usize].matches {
                let mark = &mut marks[slot as usize];
                if *mark != cached.tag && *mark != *tag {
                    *mark = *tag;
                    extra.push((doc, slot));
                }
            }
        }
        let head: Vec<&[f64]> = prefix.iter().map(beliefs).collect();
        for &(doc, slot) in extra.iter() {
            let mut score = 0.0;
            for b in head.iter().chain(&tail) {
                score += weight * b[slot as usize];
            }
            topk.push(doc, score);
        }
        topk.into_sorted()
    }

    /// Cache `prefix` under `weight`: its candidates (each document a
    /// prefix leaf matches, once) and their partial sums.
    fn cache_prefix(&mut self, prefix: &[LeafId], weight: f64) {
        self.tag += 1;
        let Self {
            leaves,
            prefix: cached,
            marks,
            tag,
            ..
        } = self;
        cached.leaves.clear();
        cached.leaves.extend_from_slice(prefix);
        cached.weight_bits = weight.to_bits();
        cached.tag = *tag;
        cached.cand.clear();
        for &id in prefix {
            for &(doc, slot) in &leaves[id.0 as usize].matches {
                let mark = &mut marks[slot as usize];
                if *mark != *tag {
                    *mark = *tag;
                    cached.cand.push((doc, slot));
                }
            }
        }
        cached.sums.clear();
        cached.sums.extend(cached.cand.iter().map(|&(_, slot)| {
            let mut sum = 0.0;
            for &id in prefix {
                sum += weight * leaves[id.0 as usize].beliefs[slot as usize];
            }
            sum
        }));
    }

    /// Number of distinct phrase resolutions performed so far.
    pub fn resolutions(&self) -> usize {
        self.resolutions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::query_lang::QueryNode;

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
        assert_eq!(ws.leaves.len(), 2);
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
        let before = ws.docs.len();
        // New leaf brings new docs into the universe…
        let canal = ws.add_title("Grand Canal").unwrap();
        assert!(ws.docs.len() >= before);
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

        /// The split search must equal the engine on the concatenated
        /// sequence across call sequences that reuse a cached prefix,
        /// keep the prefix under a new weight, grow the universe under
        /// it, and use an empty prefix or no middle. Picks may repeat,
        /// so duplicate leaves occur throughout.
        #[test]
        fn split_search_equivalent_to_engine_on_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 1..12),
                1..10,
            ),
            prefix in proptest::collection::vec(0u8..5, 0..4),
            middles in proptest::collection::vec(0u8..5, 2..3),
            suffixes in proptest::collection::vec(
                proptest::collection::vec(0u8..5, 0..3),
                2..3,
            ),
            late in 5u8..7,
        ) {
            // Titles 0..5 are added as the calls first use them; title 5
            // or 6 only once a prefix is cached. Both can match
            // documents no earlier title matched, so new universe slots
            // appear under the cached prefix.
            const TITLES: [&str; 7] =
                ["alpha", "beta", "gamma", "delta", "beta gamma", "epsilon", "zeta alpha"];
            let word = |b: u8| ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"][b as usize];
            let mut b = IndexBuilder::new();
            for d in &docs {
                let text: Vec<&str> = d.iter().map(|&x| word(x)).collect();
                b.add_document(&text.join(" "));
            }
            let e = SearchEngine::new(b.build());
            let mut ws = ScoreWorkspace::new(&e);

            let mut check = |prefix: &[u8], middle: Option<u8>, suffix: &[u8]| {
                let mut leaves = |picks: &[u8]| -> Vec<LeafId> {
                    picks.iter().filter_map(|&p| ws.add_title(TITLES[p as usize])).collect()
                };
                let (p, s) = (leaves(prefix), leaves(suffix));
                let m = middle.and_then(|m| ws.add_title(TITLES[m as usize]));
                let fast = ws.search_split(&p, m, &s, 15);
                let titles: Vec<&str> = prefix
                    .iter()
                    .chain(&middle)
                    .chain(suffix)
                    .map(|&t| TITLES[t as usize])
                    .collect();
                let slow = e.search(&QueryNode::phrases_of_titles(&titles), 15);
                assert_eq!(fast, slow, "{prefix:?} {middle:?} {suffix:?}");
            };
            // Cache the prefix, then reuse it with another middle and
            // another suffix.
            check(&prefix, Some(middles[0]), &suffixes[0]);
            check(&prefix, Some(middles[1]), &suffixes[0]);
            check(&prefix, Some(middles[0]), &suffixes[1]);
            // Same prefix, one leaf fewer: the weight key changes.
            check(&prefix, None, &suffixes[0]);
            // Back to the first length, then a title added since grows
            // the universe under the cached prefix.
            check(&prefix, Some(middles[1]), &suffixes[0]);
            check(&prefix, Some(late), &suffixes[0]);
            // Prefix-only, empty-prefix and middle-only calls.
            check(&prefix, None, &[]);
            check(&[], Some(middles[1]), &suffixes[1]);
            check(&[], None, &suffixes[0]);
            check(&[], Some(late), &[]);
        }
    }
}
