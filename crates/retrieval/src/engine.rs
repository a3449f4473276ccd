//! Query execution: the search engine the ground-truth pipeline talks
//! to.
//!
//! [`SearchEngine`] owns the index, flattens a parsed [`QueryNode`] into
//! weighted leaves (terms and exact phrases), resolves each against its
//! index, and hands them to the one scoring kernel
//! ([`crate::sharded`]'s `shard_topk`) to score the union of candidate
//! documents under the Dirichlet LM into deterministic top-k hits — it
//! is also what a shard *is*, in process or behind a socket. Phrase
//! postings (and their exact collection frequencies) are cached behind
//! a `parking_lot::Mutex`: the hill-climbing search of §2.2
//! re-evaluates the same title phrases thousands of times per query, so
//! this cache dominates end-to-end ground-truth time.

use crate::index::InvertedIndex;
use crate::lm::LmParams;
use crate::phrase::{match_phrase, resolve_terms, PhraseHit};
use crate::query_lang::QueryNode;
use crate::sharded::{shard_topk, ShardLeafView};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Number of phrase-cache shards. Sixteen is comfortably above the
/// worker counts the pipeline runs with (8–12 threads), so two hill
/// climbs rarely contend on the same shard lock, while the per-shard
/// `HashMap` overhead stays negligible (16 empty maps ≈ 1 KiB).
const PHRASE_CACHE_SHARDS: usize = 16;

/// Pruned search tracks per-document leaf membership in a `u64`
/// bitmask; queries with more leaves than bits fall back to the exact
/// loop (the expansion pipeline tops out far below this).
pub(crate) const MAX_PRUNED_LEAVES: usize = 64;

/// How the top-k loop executes. Serving always runs [`SearchMode::Pruned`];
/// [`SearchMode::Exact`] is the reference the oracle tests compare
/// against and the kernel's fallback where pruning cannot pay off (more
/// than 64 leaves, or no more than `k` candidates).
/// QGRP carries the mode as one byte, so both stay nameable on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Score every candidate. The repro default: `Report` bytes and
    /// golden fingerprints are pinned against this mode's float-op
    /// sequence.
    #[default]
    Exact,
    /// WAND/MaxScore-style pruning: candidates whose score upper bound
    /// cannot beat the current heap floor are skipped unscored. Returns
    /// hits bit-equal to [`SearchMode::Exact`]: pruning only ever
    /// *skips* documents, never reorders the float ops of the ones it
    /// scores.
    Pruned,
}

/// One retrieval result — the one `{doc, score}` type, from the top-k
/// heap through the QGRP wire to a served `/expand` response.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SearchHit {
    /// Document id.
    pub doc: u32,
    /// Query-likelihood score (log domain, higher is better).
    pub score: f64,
}

/// Each hit as `(doc, score bits)`, so comparing two lists asserts
/// bit-equal scores (`f64 ==` would let `0.0` equal `-0.0`).
#[cfg(test)]
pub(crate) fn hit_bits(hits: &[SearchHit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

/// Cached evaluation of one phrase: exact hits (ascending doc id) plus
/// the exact phrase collection probability. This is what
/// [`crate::backend::RetrievalBackend::resolve_phrase`] hands the score
/// workspace — for the monolithic engine straight out of the phrase
/// cache, for the sharded engine assembled from per-shard hits with
/// globally aggregated statistics.
#[derive(Debug)]
pub struct PhraseInfo {
    /// Exact hits in (global) doc-id order.
    pub hits: Vec<PhraseHit>,
    /// Exact phrase collection probability over the whole collection.
    pub collection_prob: f64,
}

/// One exported phrase-dictionary entry: a phrase's words and its full
/// cached evaluation. This is what [`crate::ondisk`] persists so a
/// loaded engine starts with a warm phrase dictionary instead of
/// re-matching every title phrase on first use.
#[derive(Debug, Clone, PartialEq)]
pub struct PhraseCacheEntry {
    /// The normalized phrase words (the cache key).
    pub(crate) words: Vec<String>,
    /// Exact hits in doc-id order.
    pub(crate) hits: Vec<PhraseHit>,
    /// Exact phrase collection probability.
    pub(crate) collection_prob: f64,
}

/// One unresolved leaf of a flattened query AST: what the query asks
/// for, before any index lookup.
pub(crate) enum LeafSpec<'q> {
    /// A bare term.
    Term(&'q str),
    /// An exact `#1(...)` phrase.
    Phrase(&'q [String]),
}

/// The phrase-cache slot for `words` among `slots` locks — shared by
/// the engine's cache and the coordinator's global cache.
pub(crate) fn phrase_cache_slot(words: &[String], slots: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    words.hash(&mut h);
    h.finish() as usize % slots
}

/// Flatten the AST into weighted leaf specs. `#combine` distributes its
/// weight uniformly; `#weight` distributes proportionally (normalized
/// by the sum of child weights, INDRI-style).
///
/// The weight arithmetic here is the *only* place query weights are
/// computed — the coordinator, every shard and the monolithic engine
/// flatten through it, so per-leaf weights are bit-identical by
/// construction.
pub(crate) fn flatten_specs<'q>(
    node: &'q QueryNode,
    weight: f64,
    out: &mut Vec<(f64, LeafSpec<'q>)>,
) {
    match node {
        QueryNode::Term(t) => out.push((weight, LeafSpec::Term(t))),
        QueryNode::Phrase(words) => out.push((weight, LeafSpec::Phrase(words))),
        QueryNode::Combine(children) => {
            if children.is_empty() {
                return;
            }
            let w = weight / children.len() as f64;
            for c in children {
                flatten_specs(c, w, out);
            }
        }
        QueryNode::Weight(children) => {
            let total: f64 = children.iter().map(|(w, _)| w.max(0.0)).sum();
            if total <= 0.0 {
                return;
            }
            for (w, c) in children {
                if *w > 0.0 {
                    flatten_specs(c, weight * w / total, out);
                }
            }
        }
    }
}

/// The search engine. Cheap to share behind `Arc`; `search` takes
/// `&self`.
pub struct SearchEngine {
    index: InvertedIndex,
    params: LmParams,
    /// Phrase cache, sharded by a hash of the phrase words so parallel
    /// hill climbs (each phrase-heavy) don't serialize on one mutex.
    phrase_cache: Vec<Mutex<HashMap<Vec<String>, Arc<PhraseInfo>>>>,
}

impl SearchEngine {
    /// Engine with default LM parameters (μ = 2500).
    pub fn new(index: InvertedIndex) -> Self {
        Self::with_params(index, LmParams::default())
    }

    /// Engine with explicit parameters.
    pub fn with_params(index: InvertedIndex, params: LmParams) -> Self {
        SearchEngine {
            index,
            params,
            phrase_cache: (0..PHRASE_CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The scoring parameters (shared with [`crate::workspace`] and the
    /// backend trait).
    pub(crate) fn params(&self) -> LmParams {
        self.params
    }

    /// Execute `query`, returning the best `k` documents (descending
    /// score, ties by ascending doc id). Only documents matching at
    /// least one leaf are candidates; an all-background document can
    /// never enter the top-k.
    pub fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.search_with(query, k, SearchMode::Exact)
    }

    /// [`SearchEngine::search`] with an explicit execution mode; see
    /// [`SearchMode`] for the equivalence contract between them.
    ///
    /// The monolithic engine is the one-shard case of the scoring
    /// kernel (`sharded::shard_topk`): doc-id base 0, its own
    /// `cf / tokens` probabilities and its own index's epsilon floor.
    pub fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        let mut specs = Vec::new();
        flatten_specs(query, 1.0, &mut specs);
        let tokens = self.index.total_tokens().max(1) as f64;
        let views: Vec<ShardLeafView> = specs
            .iter()
            .map(|(weight, spec)| {
                let mut tf = HashMap::new();
                let cf = self.local_leaf(spec, Some(&mut tf));
                ShardLeafView {
                    weight: *weight,
                    collection_prob: cf as f64 / tokens,
                    tf,
                }
            })
            .collect();
        let epsilon = self.index.epsilon_prob();
        shard_topk(self, 0, &specs, &views, self.params, epsilon, k, mode).into_sorted()
    }

    /// This segment's view of one flattened leaf: returns its local
    /// collection frequency (an exact integer count — one dictionary or
    /// phrase-cache lookup) and, when the caller is going to score,
    /// fills `tf` with its local `doc → tf` pairs. The single leaf
    /// resolution behind the monolithic search, both scatter phases and
    /// the shard server's ops.
    pub(crate) fn local_leaf(
        &self,
        spec: &LeafSpec<'_>,
        tf: Option<&mut HashMap<u32, u32>>,
    ) -> u64 {
        match spec {
            LeafSpec::Term(t) => {
                let Some(list) = self.index.postings_for(t) else {
                    return 0;
                };
                if let Some(tf) = tf {
                    tf.reserve(list.doc_count() as usize);
                    let mut cursor = list.cursor();
                    while let Some((doc, term_tf)) = cursor.next_entry() {
                        tf.insert(doc, term_tf);
                    }
                }
                list.collection_freq()
            }
            LeafSpec::Phrase(words) => {
                let info = self.phrase_info(words);
                if let Some(tf) = tf {
                    tf.extend(info.hits.iter().map(|h| (h.doc, h.tf)));
                }
                info.hits.iter().map(|h| h.tf as u64).sum()
            }
        }
    }

    /// The shard responsible for `words`.
    fn shard(&self, words: &[String]) -> &Mutex<HashMap<Vec<String>, Arc<PhraseInfo>>> {
        &self.phrase_cache[phrase_cache_slot(words, self.phrase_cache.len())]
    }

    /// Cached phrase evaluation: exact hits plus the exact phrase
    /// collection probability (total phrase occurrences / total tokens).
    /// Two threads racing on the same uncached phrase both compute it;
    /// the second insert overwrites with an identical value, so the race
    /// is benign.
    pub(crate) fn phrase_info(&self, words: &[String]) -> Arc<PhraseInfo> {
        let shard = self.shard(words);
        if let Some(hit) = shard.lock().get(words) {
            return hit.clone();
        }
        let hits = match resolve_terms(&self.index, words) {
            Some(terms) => match_phrase(&self.index, &terms),
            None => Vec::new(),
        };
        let cf: u64 = hits.iter().map(|h| h.tf as u64).sum();
        let info = Arc::new(PhraseInfo {
            hits,
            collection_prob: cf as f64 / self.index.total_tokens().max(1) as f64,
        });
        shard.lock().insert(words.to_vec(), info.clone());
        info
    }

    /// Number of cached phrases (observability for benches).
    pub fn phrase_cache_len(&self) -> usize {
        self.phrase_cache.iter().map(|s| s.lock().len()).sum()
    }

    /// Evaluate (and cache) one phrase — warming loops call this per
    /// title so only one tokenization is alive at a time (at stress
    /// scale there are 100k+ titles). Empty phrases are skipped.
    pub fn warm_phrase(&self, words: &[String]) {
        if !words.is_empty() {
            self.phrase_info(words);
        }
    }

    /// Evaluate (and cache) every phrase in `phrases` — used to warm
    /// the phrase dictionary before persisting it. Duplicates and empty
    /// phrases are skipped.
    pub fn warm_phrases<'a>(&self, phrases: impl IntoIterator<Item = &'a [String]>) {
        for words in phrases {
            self.warm_phrase(words);
        }
    }

    /// Export the phrase dictionary, sorted by phrase words so the
    /// serialized artifact is deterministic regardless of evaluation
    /// order or sharding.
    pub fn export_phrase_cache(&self) -> Vec<PhraseCacheEntry> {
        let mut out: Vec<PhraseCacheEntry> = self
            .phrase_cache
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .iter()
                    .map(|(words, info)| PhraseCacheEntry {
                        words: words.clone(),
                        hits: info.hits.clone(),
                        collection_prob: info.collection_prob,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.words.cmp(&b.words));
        out
    }

    /// Seed the phrase dictionary with previously exported entries
    /// (e.g. loaded from an on-disk artifact). Entries are memoization
    /// values — pure functions of the index — so seeding never changes
    /// search results, only skips re-matching.
    pub fn seed_phrase_cache(&self, entries: Vec<PhraseCacheEntry>) {
        for e in entries {
            let info = Arc::new(PhraseInfo {
                hits: e.hits,
                collection_prob: e.collection_prob,
            });
            self.shard(&e.words).lock().insert(e.words, info);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::query_lang::parse;

    fn engine() -> SearchEngine {
        let mut b = IndexBuilder::new();
        b.add_document("a gondola on the grand canal of venice"); // 0
        b.add_document("the grand hotel beside a small canal"); // 1
        b.add_document("venice has many bridges and one grand canal"); // 2
        b.add_document("completely unrelated text about mountains"); // 3
        SearchEngine::new(b.build())
    }

    #[test]
    fn phrase_query_prefers_exact_match() {
        let e = engine();
        let hits = e.search(&parse("#1(grand canal)").unwrap(), 10);
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        // Docs 0 and 2 contain the exact phrase; doc 1 has both words
        // but not adjacent — it may appear via background only if it
        // matched a leaf, which it does not for a pure phrase query.
        assert_eq!(docs, vec![0, 2]);
    }

    #[test]
    fn combine_blends_phrase_and_term() {
        let e = engine();
        let hits = e.search(&parse("#combine(#1(grand canal) venice)").unwrap(), 10);
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        // Docs 0 and 2 match both leaves. Doc 1 matches neither (its
        // "grand" and "canal" are not adjacent) so it is no candidate.
        assert_eq!(docs.len(), 2);
        assert!(docs.contains(&0) && docs.contains(&2));
    }

    #[test]
    fn unrelated_doc_never_retrieved() {
        let e = engine();
        let hits = e.search(&parse("#combine(gondola venice)").unwrap(), 10);
        assert!(hits.iter().all(|h| h.doc != 3));
    }

    #[test]
    fn k_limits_results() {
        let e = engine();
        let hits = e.search(&parse("the").unwrap(), 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scores_descend() {
        let e = engine();
        let hits = e.search(&parse("#combine(grand canal venice)").unwrap(), 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn weight_shifts_ranking() {
        let mut b = IndexBuilder::new();
        b.add_document("apple apple banana"); // 0: apple-heavy
        b.add_document("banana banana apple"); // 1: banana-heavy
        let e = SearchEngine::new(b.build());
        let apple_heavy = e.search(&parse("#weight(0.9 apple 0.1 banana)").unwrap(), 2);
        assert_eq!(apple_heavy[0].doc, 0);
        let banana_heavy = e.search(&parse("#weight(0.1 apple 0.9 banana)").unwrap(), 2);
        assert_eq!(banana_heavy[0].doc, 1);
    }

    #[test]
    fn unknown_terms_yield_empty() {
        let e = engine();
        assert!(e.search(&parse("zzzzz").unwrap(), 5).is_empty());
        assert!(e.search(&parse("#1(zz yy)").unwrap(), 5).is_empty());
    }

    #[test]
    fn phrase_cache_fills_and_hits() {
        let e = engine();
        let q = parse("#1(grand canal)").unwrap();
        assert_eq!(e.phrase_cache_len(), 0);
        let first = e.search(&q, 5);
        assert_eq!(e.phrase_cache_len(), 1);
        let second = e.search(&q, 5);
        assert_eq!(e.phrase_cache_len(), 1);
        assert_eq!(first, second);
    }

    #[test]
    fn sharded_cache_counts_across_shards() {
        let e = engine();
        // Distinct phrases hash to assorted shards; the aggregate count
        // must still see every one exactly once.
        for (i, q) in [
            "#1(grand canal)",
            "#1(venice)",
            "#1(small canal)",
            "#1(the grand)",
        ]
        .iter()
        .enumerate()
        {
            let q = parse(q).unwrap();
            e.search(&q, 5);
            e.search(&q, 5); // second run hits the cache
            assert_eq!(e.phrase_cache_len(), i + 1);
        }
    }

    #[test]
    fn deterministic_tie_break() {
        let mut b = IndexBuilder::new();
        b.add_document("same words here");
        b.add_document("same words here");
        let e = SearchEngine::new(b.build());
        let hits = e.search(&parse("#1(same words)").unwrap(), 2);
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs, vec![0, 1]);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let e = SearchEngine::new(IndexBuilder::new().build());
        assert!(e.search(&parse("anything").unwrap(), 5).is_empty());
    }

    #[test]
    fn phrase_cache_exports_sorted_and_reseeds() {
        let e = engine();
        for q in ["#1(grand canal)", "#1(venice)", "#1(small canal)"] {
            e.search(&parse(q).unwrap(), 5);
        }
        let exported = e.export_phrase_cache();
        assert_eq!(exported.len(), 3);
        let words: Vec<&Vec<String>> = exported.iter().map(|p| &p.words).collect();
        let mut sorted = words.clone();
        sorted.sort();
        assert_eq!(words, sorted, "export must be sorted for determinism");

        // A fresh engine seeded with the export answers identically
        // without growing the cache.
        let fresh = engine();
        fresh.seed_phrase_cache(exported.clone());
        assert_eq!(fresh.phrase_cache_len(), 3);
        let q = parse("#1(grand canal)").unwrap();
        assert_eq!(fresh.search(&q, 10), e.search(&q, 10));
        assert_eq!(fresh.phrase_cache_len(), 3, "seeded entry must be a hit");
        assert_eq!(fresh.export_phrase_cache(), exported);
    }

    #[test]
    fn pruned_mode_matches_exact_on_fixture() {
        let e = engine();
        for q in [
            "#1(grand canal)",
            "#combine(#1(grand canal) venice)",
            "#combine(gondola venice #1(small canal))",
            "#weight(0.9 venice 0.1 canal)",
            "the",
            "#combine(zzzz gondola)",
            "#combine(grand canal venice the a mountains)",
        ] {
            let q = parse(q).unwrap();
            for k in [0, 1, 2, 10] {
                assert_eq!(
                    e.search_with(&q, k, SearchMode::Pruned),
                    e.search_with(&q, k, SearchMode::Exact),
                    "{q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn pruned_mode_falls_back_beyond_mask_width() {
        // 70 leaves exceed the 64-bit membership mask: pruned mode must
        // fall back to the exact loop rather than truncate the mask.
        let mut b = IndexBuilder::new();
        for i in 0..30 {
            b.add_document(&format!("t{} t{} filler", i, (i + 1) % 30));
        }
        let e = SearchEngine::new(b.build());
        let terms: Vec<String> = (0..70).map(|i| format!("t{}", i % 30)).collect();
        let q = parse(&format!("#combine({})", terms.join(" "))).unwrap();
        assert!(!e.search(&q, 5).is_empty());
        assert_eq!(e.search_with(&q, 5, SearchMode::Pruned), e.search(&q, 5));
    }

    #[test]
    fn pruned_mode_keeps_floor_ties() {
        // Identical documents produce exact score ties at the heap
        // floor; pruning must not drop the tied doc the doc-id
        // tiebreak keeps.
        let mut b = IndexBuilder::new();
        b.add_document("same words here");
        b.add_document("same words here");
        b.add_document("same words here");
        let e = SearchEngine::new(b.build());
        for q in ["#combine(same words)", "#1(same words)"] {
            let q = parse(q).unwrap();
            for k in [1, 2, 3, 5] {
                assert_eq!(
                    e.search_with(&q, k, SearchMode::Pruned),
                    e.search(&q, k),
                    "{q:?} k={k}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Pruned search must return exactly the exact search's hits on
        /// arbitrary worlds — same documents, bit-equal scores — because
        /// serving answers every request with it.
        #[test]
        fn pruned_rank_equivalent_on_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 0..20),
                1..16,
            ),
            qpick in 0u8..6,
            k in 0usize..12,
        ) {
            const VOCAB: [&str; 6] =
                ["alpha", "beta", "gamma", "delta", "beta gamma", "alpha beta"];
            let mut b = IndexBuilder::new();
            for d in &docs {
                let text = d
                    .iter()
                    .map(|&x| VOCAB[x as usize])
                    .collect::<Vec<_>>()
                    .join(" ");
                b.add_document(&text);
            }
            let e = SearchEngine::new(b.build());
            let queries = [
                "#combine(alpha beta)",
                "#1(beta gamma)",
                "#weight(0.7 alpha 0.3 #1(alpha beta))",
                "#combine(#1(gamma delta) delta)",
                "delta",
                "#combine(alpha #1(beta gamma) zeta)",
            ];
            let q = parse(queries[qpick as usize % queries.len()]).unwrap();
            let exact = e.search_with(&q, k, SearchMode::Exact);
            let pruned = e.search_with(&q, k, SearchMode::Pruned);
            proptest::prop_assert_eq!(hit_bits(&pruned), hit_bits(&exact));
        }
    }

    #[test]
    fn warm_phrases_fills_cache() {
        let e = engine();
        let phrases: Vec<Vec<String>> = vec![
            vec!["grand".into(), "canal".into()],
            vec!["venice".into()],
            vec![],                               // skipped
            vec!["grand".into(), "canal".into()], // duplicate
        ];
        e.warm_phrases(phrases.iter().map(|p| p.as_slice()));
        assert_eq!(e.phrase_cache_len(), 2);
    }
}
