//! Doc-partitioned sharded retrieval with deterministic scatter-gather.
//!
//! The paper targets full-Wikipedia scale (millions of articles); one
//! monolithic index caps that at whatever a single load/build can hold.
//! [`ShardedEngine`] owns N document-partitioned shards — shard *i*
//! holds the contiguous global doc-id range [`doc_ranges`]`(n, N)[i]`,
//! re-based to local ids — and answers the full
//! [`RetrievalBackend`](crate::backend::RetrievalBackend) surface with
//! results **byte-identical** to the monolithic [`SearchEngine`] at any
//! shard count:
//!
//! * **Global statistics, aggregated once.** Dirichlet smoothing reads
//!   the collection probability (cf / total tokens) and the epsilon
//!   floor (0.5 / total tokens). Both are ratios of exact integer
//!   counts, and integer sums are associative — so summing per-shard
//!   counts reproduces the monolithic values *bit for bit*. Per-shard
//!   *local* statistics are never used for scoring.
//! * **Shared flattening.** Query weights come from the one
//!   `flatten_specs` pass both engines use, so per-leaf weights are
//!   identical by construction.
//! * **Same per-document float sequence.** Each shard scores its own
//!   candidates with the same leaf-order accumulation the monolithic
//!   engine uses (`score += weight · log_belief`), with the same global
//!   inputs — identical doc ⇒ identical f64 ops ⇒ identical score.
//! * **Total-order merge.** Each shard returns its top-k under the
//!   total order (score desc, then *global* doc id asc); the union of
//!   per-shard top-k's is a superset of the global top-k, so sorting
//!   the union under the same order and truncating to k yields exactly
//!   the monolithic result.
//!
//! Per-shard scatter runs on [`crate::par::parallel_map`] (inline at
//! one thread), the same deterministic runner as the rest of the
//! workspace.

use crate::engine::SearchHit;
use crate::engine::{
    flatten_specs, phrase_cache_slot, LeafSpec, PhraseInfo, SearchEngine, SearchMode,
    MAX_PRUNED_LEAVES,
};
use crate::index::{epsilon_for, InvertedIndex, TermBound};
use crate::lm::{log_belief_with_floor, LmParams};
use crate::ondisk::OndiskError;
use crate::par::parallel_map;
use crate::phrase::PhraseHit;
use crate::query_lang::QueryNode;
use crate::topk::{BoundHeap, Scored, TopK};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Number of global phrase-cache locks (same rationale as the engine's
/// own sharded cache: comfortably above worker counts).
const PHRASE_CACHE_LOCKS: usize = 16;

/// Typed query-time scatter failure. Always names the failing shard,
/// so an operator knows exactly which shard process (or segment) to
/// replace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardedError {
    /// One shard failed to answer or didn't match what the coordinator
    /// expected of its slot.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// The typed failure.
        source: OndiskError,
    },
}

impl fmt::Display for ShardedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardedError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
        }
    }
}

impl std::error::Error for ShardedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedError::Shard { source, .. } => Some(source),
        }
    }
}

/// Contiguous doc-id partition of `num_docs` documents into `shards`
/// ranges: shard *i* owns `[i·n/N, (i+1)·n/N)`. Deterministic, covers
/// every document exactly once, and balanced to within one document.
pub fn doc_ranges(num_docs: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1);
    (0..shards)
        .map(|i| (i * num_docs / shards)..((i + 1) * num_docs / shards))
        .collect()
}

/// One resolved leaf of a sharded query: the global collection
/// probability plus each shard's local `doc → tf` map.
struct GlobalLeaf {
    weight: f64,
    collection_prob: f64,
    per_shard_tf: Vec<HashMap<u32, u32>>,
}

/// One query leaf as a single shard sees it: the flattened weight, the
/// **global** collection probability, and this shard's local `doc → tf`
/// map. Both the in-process [`ShardedEngine`] scatter and the
/// shard-process RPC server ([`crate::remote`]) score through the same
/// [`shard_topk`] over these views — there is exactly one per-shard
/// scoring implementation, so the two physical layouts are
/// bit-identical by construction rather than by parallel maintenance.
pub(crate) struct ShardLeafView<'a> {
    /// Flattened query weight (from the shared `flatten_specs` pass).
    pub(crate) weight: f64,
    /// Global collection probability (global cf / global tokens).
    pub(crate) collection_prob: f64,
    /// This shard's local-doc-id → tf map for the leaf.
    pub(crate) tf: &'a HashMap<u32, u32>,
}

/// Score one shard's candidates into a top-k heap keyed by global doc
/// id (`base` + local doc). Holds the single mode gate both physical
/// layouts share: `Pruned` applies only while the leaf count fits the
/// pruning bitmask, otherwise exact scoring runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shard_topk(
    engine: &SearchEngine,
    base: u32,
    specs: &[(f64, LeafSpec<'_>)],
    views: &[ShardLeafView<'_>],
    params: LmParams,
    epsilon: f64,
    k: usize,
    mode: SearchMode,
) -> TopK {
    match mode {
        SearchMode::Pruned if views.len() <= MAX_PRUNED_LEAVES => {
            shard_pruned_topk(engine, base, specs, views, params, epsilon, k)
        }
        _ => shard_exact_topk(engine, base, views, params, epsilon, k),
    }
}

/// One shard's exhaustive candidate scoring — the float-op sequence the
/// byte-identity contract pins (global smoothing inputs, local
/// candidates, heap keyed by global doc id).
fn shard_exact_topk(
    engine: &SearchEngine,
    base: u32,
    views: &[ShardLeafView<'_>],
    params: LmParams,
    epsilon: f64,
    k: usize,
) -> TopK {
    let mut candidates: Vec<u32> = views.iter().flat_map(|v| v.tf.keys().copied()).collect();
    candidates.sort_unstable();
    candidates.dedup();
    let mut topk = TopK::new(k);
    for doc in candidates {
        let len = engine.index().doc_len(doc);
        let mut score = 0.0;
        for view in views {
            let tf = view.tf.get(&doc).copied().unwrap_or(0);
            score +=
                view.weight * log_belief_with_floor(params, epsilon, tf, len, view.collection_prob);
        }
        topk.push(base + doc, score);
    }
    topk
}

/// One shard's MaxScore-style top-k: the monolithic engine's pruned
/// loop with shard-local bounds and global smoothing inputs. Candidates
/// are visited in descending upper-bound order and the loop stops once
/// the heap is full and the next bound falls below the floor; the bound
/// is bitwise-conservative (see `SearchEngine::pruned_topk`), so the
/// shard's heap — and hence any merge over it — is bit-identical to
/// exact mode.
fn shard_pruned_topk(
    engine: &SearchEngine,
    base: u32,
    specs: &[(f64, LeafSpec<'_>)],
    views: &[ShardLeafView<'_>],
    params: LmParams,
    epsilon: f64,
    k: usize,
) -> TopK {
    let bounds: Vec<(f64, f64)> = specs
        .iter()
        .zip(views)
        .map(|((_, spec), view)| shard_leaf_bounds(engine.index(), spec, view, params, epsilon))
        .collect();
    let mut masks: HashMap<u32, u64> = HashMap::new();
    for (i, view) in views.iter().enumerate() {
        for &doc in view.tf.keys() {
            *masks.entry(doc).or_insert(0) |= 1u64 << i;
        }
    }
    let candidates: Vec<(f64, u32)> = masks
        .iter()
        .map(|(&doc, &mask)| {
            let mut ub = 0.0;
            for (i, &(matched, background)) in bounds.iter().enumerate() {
                ub += if mask & (1u64 << i) != 0 {
                    matched
                } else {
                    background
                };
            }
            (ub, doc)
        })
        .collect();
    // Heapify instead of sorting: same visit order, O(n) up front
    // (see `SearchEngine::pruned_topk`).
    let mut heap = BoundHeap::from_candidates(candidates);
    let mut topk = TopK::new(k);
    while let Some((ub, doc)) = heap.pop() {
        if let Some(floor) = topk.floor() {
            if ub < floor.score {
                break; // bounds descend: nothing later can qualify
            }
        }
        let len = engine.index().doc_len(doc);
        let mut score = 0.0;
        for view in views {
            let tf = view.tf.get(&doc).copied().unwrap_or(0);
            score +=
                view.weight * log_belief_with_floor(params, epsilon, tf, len, view.collection_prob);
        }
        topk.push(base + doc, score);
    }
    topk
}

/// Per-leaf `(matched, background)` bounds valid for one shard's
/// documents: term leaves read the shard index's [`TermBound`] (from
/// its segment's BOUNDS section), phrase leaves derive theirs from the
/// shard's resolved hits; the collection probability and epsilon stay
/// global, exactly as in scoring.
fn shard_leaf_bounds(
    index: &InvertedIndex,
    spec: &LeafSpec<'_>,
    view: &ShardLeafView<'_>,
    params: LmParams,
    epsilon: f64,
) -> (f64, f64) {
    let background = view.weight
        * log_belief_with_floor(
            params,
            epsilon,
            0,
            index.min_doc_len(),
            view.collection_prob,
        );
    let bound = match spec {
        LeafSpec::Term(t) => index.term_id(t).map(|tid| index.term_bound(tid)),
        LeafSpec::Phrase(_) => {
            let mut b = TermBound::EMPTY;
            for (&doc, &tf) in view.tf {
                b.max_tf = b.max_tf.max(tf);
                b.min_len = b.min_len.min(index.doc_len(doc));
            }
            Some(b.normalized())
        }
    };
    let matched = match bound {
        Some(b) if b.max_tf > 0 => {
            view.weight
                * log_belief_with_floor(params, epsilon, b.max_tf, b.min_len, view.collection_prob)
        }
        _ => background,
    };
    (matched, background)
}

/// N doc-partitioned shards behind one
/// [`RetrievalBackend`](crate::backend::RetrievalBackend) surface.
///
/// Construction aggregates the global collection statistics (doc
/// bases, total docs, total tokens) **once**; every query then scores
/// with the global values, so results are byte-identical to the
/// monolithic engine (see the module docs for the argument).
pub struct ShardedEngine {
    shards: Vec<SearchEngine>,
    /// Global doc id of each shard's first document (prefix sums).
    doc_bases: Vec<u32>,
    num_docs: usize,
    total_tokens: u64,
    params: LmParams,
    /// Workers for per-query scatter (1 = inline; serving batches
    /// usually parallelize across *queries* instead).
    search_threads: usize,
    /// Globally assembled phrase resolutions (hits re-based to global
    /// doc ids), sharded by phrase-word hash like the engine's cache.
    phrase_cache: Vec<Mutex<HashMap<Vec<String>, Arc<PhraseInfo>>>>,
}

impl ShardedEngine {
    /// Assemble from per-shard engines (shard order = ascending global
    /// doc ranges). Aggregates global statistics once.
    ///
    /// # Panics
    /// If `shards` is empty.
    pub fn from_shards(shards: Vec<SearchEngine>, params: LmParams) -> ShardedEngine {
        assert!(!shards.is_empty(), "sharded engine needs >= 1 shard");
        let mut doc_bases = Vec::with_capacity(shards.len());
        let mut next = 0u64;
        let mut total_tokens = 0u64;
        for s in &shards {
            doc_bases.push(u32::try_from(next).expect("doc ids fit u32"));
            next += s.index().num_docs() as u64;
            total_tokens += s.index().total_tokens();
        }
        ShardedEngine {
            shards,
            doc_bases,
            num_docs: next as usize,
            total_tokens,
            params,
            search_threads: 1,
            phrase_cache: (0..PHRASE_CACHE_LOCKS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Set the per-query scatter width (capped at the shard count by
    /// the runner; 1 = inline). Scatter parallelism never changes
    /// results — only who computes them.
    ///
    /// Tradeoff: the runner spawns scoped workers *per search call*
    /// (no persistent pool yet), costing tens of microseconds per
    /// query — worthwhile for large shard counts / deep candidate
    /// sets, a tax for sub-millisecond queries. Batch workloads
    /// usually prefer parallelizing across queries
    /// (`expand_batch` / `qgx --threads`) and leaving this at 1.
    pub fn with_search_threads(mut self, threads: usize) -> ShardedEngine {
        self.set_search_threads(threads);
        self
    }

    /// In-place form of [`ShardedEngine::with_search_threads`].
    pub fn set_search_threads(&mut self, threads: usize) {
        self.search_threads = threads.max(1);
    }

    /// The per-shard engines, in shard order (used by warming and
    /// persistence).
    pub fn shards(&self) -> &[SearchEngine] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of documents in the global collection.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Total token count of the global collection.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Global doc id of each shard's first document.
    pub fn doc_bases(&self) -> &[u32] {
        &self.doc_bases
    }

    /// Evaluate (and cache) one phrase on every shard — the warming
    /// loop the cache builder runs per article title. Empty phrases are
    /// skipped.
    pub fn warm_phrase(&self, words: &[String]) {
        if words.is_empty() {
            return;
        }
        for shard in &self.shards {
            shard.warm_phrase(words);
        }
    }

    /// The shard owning global doc `doc`.
    fn shard_of(&self, doc: u32) -> usize {
        self.doc_bases.partition_point(|&base| base <= doc) - 1
    }

    /// The global phrase-cache lock responsible for `words`.
    fn cache_lock(&self, words: &[String]) -> &Mutex<HashMap<Vec<String>, Arc<PhraseInfo>>> {
        &self.phrase_cache[phrase_cache_slot(words, self.phrase_cache.len())]
    }

    /// Global smoothing floor — [`epsilon_for`] (the exact formula
    /// behind [`crate::index::InvertedIndex::epsilon_prob`]) over the
    /// global token total.
    pub fn epsilon_prob(&self) -> f64 {
        epsilon_for(self.total_tokens)
    }

    /// Execute `query` with deterministic scatter-gather (see the
    /// module docs for the byte-identity argument).
    pub fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.search_with(query, k, SearchMode::Exact)
    }

    /// [`ShardedEngine::search`] with an explicit execution mode. In
    /// [`SearchMode::Pruned`] each shard prunes against its own local
    /// heap floor using shard-local bounds (its segment's BOUNDS
    /// section). Per-shard pruned top-k equals per-shard exact top-k
    /// bitwise — the monolithic conservativeness argument, applied
    /// shard by shard with the same global smoothing inputs — so the
    /// merged result is unchanged too.
    pub fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        let mut specs = Vec::new();
        flatten_specs(query, 1.0, &mut specs);
        if specs.is_empty() {
            return Vec::new();
        }
        let leaves: Vec<GlobalLeaf> = specs
            .iter()
            .map(|(weight, spec)| self.resolve_global_leaf(*weight, spec))
            .collect();
        let epsilon = self.epsilon_prob();

        // Scatter: each shard scores its own candidate union into a
        // local top-k heap under the (score, global doc id) total order,
        // through the one shared per-shard scorer ([`shard_topk`]).
        let per_shard: Vec<Vec<Scored>> =
            parallel_map(self.shards.len(), self.search_threads, |si| {
                let views: Vec<ShardLeafView<'_>> = leaves
                    .iter()
                    .map(|l| ShardLeafView {
                        weight: l.weight,
                        collection_prob: l.collection_prob,
                        tf: &l.per_shard_tf[si],
                    })
                    .collect();
                shard_topk(
                    &self.shards[si],
                    self.doc_bases[si],
                    &specs,
                    &views,
                    self.params,
                    epsilon,
                    k,
                    mode,
                )
                .into_sorted()
            });

        // Gather: merge under the same total order and keep k. Every
        // global top-k document survives its own shard's heap, so this
        // is exactly the monolithic result.
        let mut merged: Vec<Scored> = per_shard.into_iter().flatten().collect();
        merged.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        merged.truncate(k);
        merged
            .into_iter()
            .map(|s| SearchHit {
                doc: s.doc,
                score: s.score,
            })
            .collect()
    }

    /// Resolve one leaf spec: per-shard tf maps (local doc ids) plus
    /// the globally aggregated collection probability.
    fn resolve_global_leaf(&self, weight: f64, spec: &LeafSpec<'_>) -> GlobalLeaf {
        match spec {
            LeafSpec::Term(t) => {
                let mut per_shard_tf = Vec::with_capacity(self.shards.len());
                let mut cf = 0u64;
                for shard in &self.shards {
                    match shard.index().postings_for(t) {
                        Some(list) => {
                            cf += list.collection_freq();
                            per_shard_tf.push(list.iter().map(|p| (p.doc, p.tf())).collect());
                        }
                        None => per_shard_tf.push(HashMap::new()),
                    }
                }
                GlobalLeaf {
                    weight,
                    collection_prob: cf as f64 / self.total_tokens.max(1) as f64,
                    per_shard_tf,
                }
            }
            LeafSpec::Phrase(words) => {
                let infos: Vec<Arc<PhraseInfo>> =
                    self.shards.iter().map(|s| s.phrase_info(words)).collect();
                let cf: u64 = infos
                    .iter()
                    .flat_map(|i| i.hits.iter())
                    .map(|h| h.tf as u64)
                    .sum();
                GlobalLeaf {
                    weight,
                    collection_prob: cf as f64 / self.total_tokens.max(1) as f64,
                    per_shard_tf: infos
                        .iter()
                        .map(|i| i.hits.iter().map(|h| (h.doc, h.tf)).collect())
                        .collect(),
                }
            }
        }
    }

    /// Resolve (and cache) one phrase globally: per-shard hits re-based
    /// to global doc ids (shard order = ascending global order), with
    /// the collection probability over the global token total.
    pub fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        let lock = self.cache_lock(words);
        if let Some(hit) = lock.lock().get(words) {
            return hit.clone();
        }
        let mut hits = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let info = shard.phrase_info(words);
            let base = self.doc_bases[si];
            hits.extend(info.hits.iter().map(|h| PhraseHit {
                doc: base + h.doc,
                tf: h.tf,
            }));
        }
        let cf: u64 = hits.iter().map(|h| h.tf as u64).sum();
        let info = Arc::new(PhraseInfo {
            hits,
            collection_prob: cf as f64 / self.total_tokens.max(1) as f64,
        });
        lock.lock().insert(words.to_vec(), info.clone());
        info
    }
}

impl crate::backend::RetrievalBackend for ShardedEngine {
    fn params(&self) -> LmParams {
        self.params
    }

    fn epsilon_prob(&self) -> f64 {
        ShardedEngine::epsilon_prob(self)
    }

    fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    fn num_docs(&self) -> usize {
        self.num_docs
    }

    fn doc_len(&self, doc: u32) -> u32 {
        let si = self.shard_of(doc);
        self.shards[si].index().doc_len(doc - self.doc_bases[si])
    }

    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        ShardedEngine::resolve_phrase(self, words)
    }

    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        ShardedEngine::search(self, query, k)
    }

    fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        ShardedEngine::search_with(self, query, k, mode)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn phrase_cache_len(&self) -> usize {
        self.shards.iter().map(|s| s.phrase_cache_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RetrievalBackend;
    use crate::index::IndexBuilder;
    use crate::query_lang::parse;

    const DOCS: [&str; 7] = [
        "a gondola on the grand canal of venice",
        "the grand hotel beside a small canal",
        "",
        "venice has many bridges and one grand canal",
        "completely unrelated text about mountains",
        "gondola gondola gondola",
        "the grand canal venice gondola rides",
    ];

    fn mono(docs: &[&str]) -> SearchEngine {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        SearchEngine::new(b.build())
    }

    fn sharded(docs: &[&str], n: usize) -> ShardedEngine {
        let shards = doc_ranges(docs.len(), n)
            .into_iter()
            .map(|range| {
                let mut b = IndexBuilder::new();
                for d in &docs[range] {
                    b.add_document(d);
                }
                SearchEngine::new(b.build())
            })
            .collect();
        ShardedEngine::from_shards(shards, LmParams::default())
    }

    const QUERIES: [&str; 7] = [
        "#1(grand canal)",
        "#combine(#1(grand canal) venice)",
        "#combine(gondola venice #1(small canal))",
        "#weight(0.9 venice 0.1 canal)",
        "the",
        "#combine(zzzz gondola)",
        "#1(zz yy)",
    ];

    #[test]
    fn doc_ranges_cover_everything_contiguously() {
        for (n, shards) in [(0, 3), (1, 1), (7, 3), (7, 7), (7, 9), (100, 8)] {
            let ranges = doc_ranges(n, shards);
            assert_eq!(ranges.len(), shards.max(1));
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous");
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover every doc");
            let (min, max) = ranges
                .iter()
                .map(|r| r.len())
                .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
            assert!(max - min <= 1, "balanced to within one doc");
        }
    }

    #[test]
    fn sharded_search_is_bit_identical_to_monolithic() {
        let m = mono(&DOCS);
        for n in [1, 2, 3, 7] {
            let s = sharded(&DOCS, n);
            for q in QUERIES {
                let q = parse(q).unwrap();
                for k in [0, 1, 3, 20] {
                    assert_eq!(
                        s.search(&q, k),
                        m.search(&q, k),
                        "diverged at {n} shards, k={k}, query {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_pruned_matches_exact_at_every_shard_count() {
        let m = mono(&DOCS);
        for n in [1, 2, 3, 7] {
            let s = sharded(&DOCS, n);
            for q in QUERIES {
                let q = parse(q).unwrap();
                for k in [0, 1, 3, 20] {
                    let pruned = s.search_with(&q, k, SearchMode::Pruned);
                    assert_eq!(
                        pruned,
                        s.search_with(&q, k, SearchMode::Exact),
                        "pruned vs exact diverged at {n} shards, k={k}, query {q:?}"
                    );
                    assert_eq!(
                        pruned,
                        m.search_with(&q, k, SearchMode::Pruned),
                        "sharded vs mono pruned diverged at {n} shards, k={k}, query {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_threads_never_change_results() {
        let base = sharded(&DOCS, 3);
        let threaded = sharded(&DOCS, 3).with_search_threads(4);
        for q in QUERIES {
            let q = parse(q).unwrap();
            assert_eq!(base.search(&q, 10), threaded.search(&q, 10), "{q:?}");
        }
    }

    #[test]
    fn global_stats_match_monolithic() {
        let m = mono(&DOCS);
        for n in [1, 2, 3, 7] {
            let s = sharded(&DOCS, n);
            assert_eq!(s.num_docs, m.index().num_docs());
            assert_eq!(s.total_tokens, m.index().total_tokens());
            assert_eq!(
                ShardedEngine::epsilon_prob(&s).to_bits(),
                m.index().epsilon_prob().to_bits(),
                "epsilon must be bit-identical"
            );
            for doc in 0..DOCS.len() as u32 {
                assert_eq!(RetrievalBackend::doc_len(&s, doc), m.index().doc_len(doc));
            }
        }
    }

    #[test]
    fn resolve_phrase_matches_monolithic_bitwise() {
        let m = mono(&DOCS);
        for n in [1, 2, 3, 7] {
            let s = sharded(&DOCS, n);
            for phrase in [
                vec!["grand".to_string(), "canal".to_string()],
                vec!["gondola".to_string()],
                vec!["zzzz".to_string()],
            ] {
                let a = RetrievalBackend::resolve_phrase(&m, &phrase);
                let b = s.resolve_phrase(&phrase);
                assert_eq!(a.hits, b.hits, "{phrase:?} hits at {n} shards");
                assert_eq!(
                    a.collection_prob.to_bits(),
                    b.collection_prob.to_bits(),
                    "{phrase:?} collection prob at {n} shards"
                );
                // Second resolve hits the global cache.
                let again = s.resolve_phrase(&phrase);
                assert!(Arc::ptr_eq(&b, &again), "global cache must memoize");
            }
        }
    }

    #[test]
    fn empty_collection_sharded() {
        let s = sharded(&[], 3);
        assert_eq!(s.num_docs, 0);
        assert!(s.search(&parse("anything").unwrap(), 5).is_empty());
        assert_eq!(
            ShardedEngine::epsilon_prob(&s),
            mono(&[]).index().epsilon_prob()
        );
    }

    proptest::proptest! {
        /// Scatter-gather equivalence on arbitrary worlds, queries, and
        /// shard counts.
        #[test]
        fn sharded_equals_monolithic_on_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 0..20),
                1..16,
            ),
            shards in 1usize..8,
            qpick in 0u8..6,
        ) {
            const VOCAB: [&str; 6] =
                ["alpha", "beta", "gamma", "delta", "beta gamma", "alpha beta"];
            let texts: Vec<String> = docs
                .iter()
                .map(|d| {
                    d.iter()
                        .map(|&x| VOCAB[x as usize])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let m = mono(&refs);
            let s = sharded(&refs, shards);
            let queries = [
                "#combine(alpha beta)",
                "#1(beta gamma)",
                "#weight(0.7 alpha 0.3 #1(alpha beta))",
                "#combine(#1(gamma delta) delta)",
                "delta",
                "#combine(alpha #1(beta gamma) zeta)",
            ];
            let q = parse(queries[qpick as usize % queries.len()]).unwrap();
            proptest::prop_assert_eq!(s.search(&q, 10), m.search(&q, 10));
        }

        /// Pruned scatter-gather must stay rank-equivalent to exact on
        /// arbitrary worlds and shard counts: same doc sequence, scores
        /// within 1e-9 (in practice bitwise — pruning only skips docs).
        #[test]
        fn sharded_pruned_rank_equivalent_on_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 0..20),
                1..16,
            ),
            shards in 1usize..8,
            qpick in 0u8..6,
            k in 0usize..12,
        ) {
            const VOCAB: [&str; 6] =
                ["alpha", "beta", "gamma", "delta", "beta gamma", "alpha beta"];
            let texts: Vec<String> = docs
                .iter()
                .map(|d| {
                    d.iter()
                        .map(|&x| VOCAB[x as usize])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let s = sharded(&refs, shards);
            let queries = [
                "#combine(alpha beta)",
                "#1(beta gamma)",
                "#weight(0.7 alpha 0.3 #1(alpha beta))",
                "#combine(#1(gamma delta) delta)",
                "delta",
                "#combine(alpha #1(beta gamma) zeta)",
            ];
            let q = parse(queries[qpick as usize % queries.len()]).unwrap();
            let exact = s.search_with(&q, k, SearchMode::Exact);
            let pruned = s.search_with(&q, k, SearchMode::Pruned);
            let exact_docs: Vec<u32> = exact.iter().map(|h| h.doc).collect();
            let pruned_docs: Vec<u32> = pruned.iter().map(|h| h.doc).collect();
            proptest::prop_assert_eq!(pruned_docs, exact_docs, "doc sequence");
            for (p, x) in pruned.iter().zip(&exact) {
                proptest::prop_assert!(
                    (p.score - x.score).abs() <= 1e-9,
                    "score drift at doc {}: {} vs {}", p.doc, p.score, x.score
                );
            }
        }
    }
}
