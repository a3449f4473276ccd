//! The one scoring kernel and the one scatter-gather coordinator.
//!
//! The paper targets full-Wikipedia scale (millions of articles); one
//! monolithic index caps that at whatever a single load/build can hold.
//! A [`ScatterEngine`] owns N document-partitioned shards — shard *i*
//! holds the contiguous global doc-id range [`doc_ranges`]`(n, N)[i]`,
//! re-based to local ids — behind [`ShardHandle`]s, so the same
//! coordinator drives shards in this process ([`ShardedEngine`]) and
//! shard processes over QGRP ([`crate::remote::RemoteEngine`]). Every
//! top-k in the workspace comes out of `shard_topk`: the monolithic
//! [`SearchEngine`] is its one-shard case (base 0, its own statistics).
//! So the full [`RetrievalBackend`](crate::backend::RetrievalBackend)
//! surface answers **byte-identically** at any shard count and layout:
//!
//! * **Global statistics, aggregated once.** Dirichlet smoothing reads
//!   the collection probability (cf / total tokens) and the epsilon
//!   floor (0.5 / total tokens). Both are ratios of exact integer
//!   counts, and integer sums are associative — so summing per-shard
//!   counts reproduces the monolithic values *bit for bit*. Per-shard
//!   *local* statistics are never used for scoring.
//! * **Shared flattening.** Query weights come from the one
//!   `flatten_specs` pass every caller uses, so per-leaf weights are
//!   identical by construction.
//! * **Same per-document float sequence.** A document is scored by the
//!   same kernel loop (`score += weight · log_belief`, leaves in
//!   flatten order) with the same global inputs wherever it lives —
//!   identical doc ⇒ identical f64 ops ⇒ identical score.
//! * **Total-order merge.** Each shard returns its top-k under the
//!   total order (score desc, then *global* doc id asc); the union of
//!   per-shard top-k's is a superset of the global top-k, so sorting
//!   the union under the same order and truncating to k yields exactly
//!   the monolithic result.
//!
//! Per-shard scatter runs on [`crate::par::parallel_map`] (inline at
//! one thread), the same deterministic runner as the rest of the
//! workspace.

use crate::engine::{
    flatten_specs, phrase_cache_slot, LeafSpec, PhraseInfo, SearchEngine, SearchHit, SearchMode,
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

/// One query leaf as a single shard sees it: the flattened weight, the
/// **global** collection probability, and this shard's local `doc → tf`
/// map — the kernel's input.
pub(crate) struct ShardLeafView {
    /// Flattened query weight (from the shared `flatten_specs` pass).
    pub(crate) weight: f64,
    /// Global collection probability (global cf / global tokens).
    pub(crate) collection_prob: f64,
    /// This shard's local-doc-id → tf map for the leaf.
    pub(crate) tf: HashMap<u32, u32>,
}

/// The scoring kernel: score one shard's candidates into a top-k heap
/// keyed by global doc id (`base` + local doc). Holds the single mode
/// gate: `Pruned` applies only while the leaf count fits the pruning
/// bitmask, otherwise exact scoring runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shard_topk(
    engine: &SearchEngine,
    base: u32,
    specs: &[(f64, LeafSpec<'_>)],
    views: &[ShardLeafView],
    params: LmParams,
    epsilon: f64,
    k: usize,
    mode: SearchMode,
) -> TopK {
    // A segment cannot return more hits than it has documents, and `k`
    // may come off a socket: never size a heap by it unclamped.
    let k = k.min(engine.index().num_docs());
    match mode {
        SearchMode::Pruned if views.len() <= MAX_PRUNED_LEAVES => {
            shard_pruned_topk(engine, base, specs, views, params, epsilon, k)
        }
        _ => shard_exact_topk(engine, base, views, params, epsilon, k),
    }
}

/// One shard's exhaustive candidate scoring — the float-op sequence
/// every golden fingerprint pins (global smoothing inputs, local
/// candidates, heap keyed by global doc id).
fn shard_exact_topk(
    engine: &SearchEngine,
    base: u32,
    views: &[ShardLeafView],
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

/// One shard's MaxScore/WAND-style top-k with shard-local bounds and
/// global smoothing inputs: candidates are visited in descending
/// score-upper-bound order, so once the heap is full and the next
/// bound falls strictly below the floor, every remaining candidate is
/// provably outside the top-k and the loop stops.
///
/// The bound is conservative *in floating point*, not merely in exact
/// arithmetic: each per-leaf bound evaluates the same
/// `weight · log_belief` expression the scoring loop runs, at inputs
/// (`max_tf`, `min_len`) that dominate the real ones, and rounded `+`,
/// `·`, `/`, `ln` are all monotone — so summing the per-leaf bounds in
/// the same leaf order yields `ub ≥ score` bitwise. A skipped document
/// could therefore never displace the heap root, and the shard's heap —
/// hence any merge over it — is bit-identical to exact mode's.
fn shard_pruned_topk(
    engine: &SearchEngine,
    base: u32,
    specs: &[(f64, LeafSpec<'_>)],
    views: &[ShardLeafView],
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
    // Lazy descending-bound order: heapify is O(n) and the loop
    // usually stops after a handful of pops, so a full O(n log n) sort
    // never happens.
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
/// documents — the largest possible `weight · log_belief` contribution
/// of the leaf to a document that matches it, resp. one that doesn't.
/// Term leaves read the shard index's [`TermBound`] (from its segment's
/// BOUNDS section), phrase leaves derive theirs from the shard's
/// resolved hits in one pass; the collection probability and epsilon
/// stay global, exactly as in scoring.
fn shard_leaf_bounds(
    index: &InvertedIndex,
    spec: &LeafSpec<'_>,
    view: &ShardLeafView,
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
            for (&doc, &tf) in &view.tf {
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
        // No document matches this leaf: the "matched" bound is never
        // consulted, but keep it equal to the background so a stray
        // mask bit could only loosen, never unsound-tighten.
        _ => background,
    };
    (matched, background)
}

/// One shard as the scatter-gather coordinator sees it: the per-shard
/// operations QGRP defines, with the transport abstracted away. The
/// two implementations are a [`SearchEngine`] in this process (plain
/// calls, nothing serialized) and a
/// [`RemoteShard`](crate::remote::RemoteShard) (one round trip per
/// call, and the server end of that round trip runs the `SearchEngine`
/// methods below); [`ScatterEngine`] is written once against this
/// trait. Doc ids are the shard's local ones, except that `score_topk`
/// keys its hits by `base` + local id. An error is a failure of this
/// shard; the coordinator adds which slot it was.
pub trait ShardHandle: Send + Sync {
    /// The form a search's query takes on its way to this kind of
    /// shard, built once per search: the borrowed AST in process, its
    /// `Display` string on the wire.
    type Query<'q>: Sync;

    /// Build the per-search query form.
    fn prepare(query: &QueryNode) -> Self::Query<'_>;

    /// Phase 1 of a search: this shard's collection frequency for each
    /// leaf of the query, in `flatten_specs` order. Integer counts, so
    /// the coordinator's sums are exact.
    fn leaf_cfs(&self, query: &Self::Query<'_>) -> Result<Vec<u64>, OndiskError>;

    /// Phase 2 of a search: this shard's sorted top-`k` under the
    /// caller's **global** smoothing inputs — μ, the epsilon floor and
    /// one collection probability per leaf.
    #[allow(clippy::too_many_arguments)]
    fn score_topk(
        &self,
        query: &Self::Query<'_>,
        k: usize,
        mode: SearchMode,
        base: u32,
        mu: f64,
        epsilon: f64,
        probs: &[f64],
    ) -> Result<Vec<Scored>, OndiskError>;

    /// One exact phrase's hits on this shard, ascending local doc id.
    fn resolve_phrase(&self, words: &[String]) -> Result<Vec<PhraseHit>, OndiskError>;

    /// Length of one local document; an id beyond the shard is an
    /// error, not a panic (the id may come off a socket).
    fn doc_len(&self, doc: u32) -> Result<u32, OndiskError>;

    /// The shard's phrase-cache entry count (observability).
    fn phrase_cache_len(&self) -> Result<usize, OndiskError>;

    /// Where the shard lives, when that is somewhere other than this
    /// process.
    fn endpoint(&self) -> Option<String> {
        None
    }
}

impl ShardHandle for SearchEngine {
    type Query<'q> = &'q QueryNode;

    fn prepare(query: &QueryNode) -> &QueryNode {
        query
    }

    fn leaf_cfs(&self, query: &&QueryNode) -> Result<Vec<u64>, OndiskError> {
        let mut specs = Vec::new();
        flatten_specs(query, 1.0, &mut specs);
        Ok(specs
            .iter()
            .map(|(_, spec)| self.local_leaf(spec, None))
            .collect())
    }

    fn score_topk(
        &self,
        query: &&QueryNode,
        k: usize,
        mode: SearchMode,
        base: u32,
        mu: f64,
        epsilon: f64,
        probs: &[f64],
    ) -> Result<Vec<Scored>, OndiskError> {
        let mut specs = Vec::new();
        flatten_specs(query, 1.0, &mut specs);
        if specs.len() != probs.len() {
            return Err(OndiskError::Malformed {
                context: "collection probabilities do not match the query's leaf count",
            });
        }
        let views: Vec<ShardLeafView> = specs
            .iter()
            .zip(probs)
            .map(|((weight, spec), &collection_prob)| {
                let mut tf = HashMap::new();
                self.local_leaf(spec, Some(&mut tf));
                ShardLeafView {
                    weight: *weight,
                    collection_prob,
                    tf,
                }
            })
            .collect();
        let params = LmParams { mu };
        Ok(shard_topk(self, base, &specs, &views, params, epsilon, k, mode).into_sorted())
    }

    fn resolve_phrase(&self, words: &[String]) -> Result<Vec<PhraseHit>, OndiskError> {
        Ok(self.phrase_info(words).hits.clone())
    }

    fn doc_len(&self, doc: u32) -> Result<u32, OndiskError> {
        let lengths = self.index().doc_lengths();
        lengths
            .get(doc as usize)
            .copied()
            .ok_or(OndiskError::Malformed {
                context: "doc id beyond the segment",
            })
    }

    fn phrase_cache_len(&self) -> Result<usize, OndiskError> {
        Ok(SearchEngine::phrase_cache_len(self))
    }
}

/// N doc-partitioned shards behind one
/// [`RetrievalBackend`](crate::backend::RetrievalBackend) surface — the
/// one scatter-gather coordinator, generic over where a shard lives.
/// [`ShardedEngine`] (shards in this process) and
/// [`RemoteEngine`](crate::remote::RemoteEngine) (shard processes over
/// QGRP) are its two instantiations.
///
/// Construction aggregates the global collection statistics (doc
/// bases, total docs, total tokens) **once**; every query then scores
/// with the global values, so results are byte-identical to the
/// monolithic engine (see the module docs for the argument).
pub struct ScatterEngine<S> {
    shards: Vec<S>,
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
    /// Only complete resolutions are cached — a shard failure returns
    /// an empty, *uncached* one so a recovered shard is consulted
    /// again.
    phrase_cache: Vec<Mutex<HashMap<Vec<String>, Arc<PhraseInfo>>>>,
}

/// [`ScatterEngine`] over shards held in this process.
pub type ShardedEngine = ScatterEngine<SearchEngine>;

/// Tag a shard's failure with its slot.
fn shard_error(shard: usize) -> impl Fn(OndiskError) -> ShardedError {
    move |source| ShardedError::Shard { shard, source }
}

impl<S: ShardHandle> ScatterEngine<S> {
    /// Assemble from `(handle, num_docs, total_tokens)` triples in
    /// shard order (= ascending global doc ranges); integer sums in
    /// that order, so the global statistics are exact.
    pub(crate) fn assemble(
        parts: Vec<(S, usize, u64)>,
        params: LmParams,
    ) -> Result<ScatterEngine<S>, ShardedError> {
        assert!(!parts.is_empty(), "scatter engine needs >= 1 shard");
        let mut shards = Vec::with_capacity(parts.len());
        let mut doc_bases = Vec::with_capacity(parts.len());
        let mut next = 0u64;
        let mut total_tokens = 0u64;
        for (i, (shard, num_docs, tokens)) in parts.into_iter().enumerate() {
            doc_bases.push(u32::try_from(next).map_err(|_| ShardedError::Shard {
                shard: i,
                source: OndiskError::Malformed {
                    context: "doc ids overflow u32",
                },
            })?);
            next += num_docs as u64;
            total_tokens += tokens;
            shards.push(shard);
        }
        Ok(ScatterEngine {
            shards,
            doc_bases,
            num_docs: next as usize,
            total_tokens,
            params,
            search_threads: 1,
            phrase_cache: (0..PHRASE_CACHE_LOCKS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        })
    }

    /// Set the per-query scatter width (capped at the shard count by
    /// the runner; 1 = inline). Scatter parallelism never changes
    /// results — only who computes them, or who waits on which socket.
    ///
    /// Tradeoff: the runner spawns scoped workers *per search call*
    /// (no persistent pool yet), costing tens of microseconds per
    /// query — worthwhile for large shard counts / deep candidate
    /// sets, a tax for sub-millisecond queries. Batch workloads
    /// usually prefer parallelizing across queries
    /// (`expand_batch` / `qgx --threads`) and leaving this at 1.
    pub fn with_search_threads(mut self, threads: usize) -> ScatterEngine<S> {
        self.set_search_threads(threads);
        self
    }

    /// In-place form of [`ScatterEngine::with_search_threads`].
    pub fn set_search_threads(&mut self, threads: usize) {
        self.search_threads = threads.max(1);
    }

    /// The shard handles, in shard order (used by warming,
    /// persistence and fleet shutdown).
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// The shard owning global doc `doc`.
    fn shard_of(&self, doc: u32) -> usize {
        self.doc_bases.partition_point(|&base| base <= doc) - 1
    }
}

impl ScatterEngine<SearchEngine> {
    /// Assemble from per-shard engines (shard order = ascending global
    /// doc ranges). Aggregates global statistics once.
    ///
    /// # Panics
    /// If `shards` is empty or the doc ids overflow `u32`.
    pub fn from_shards(shards: Vec<SearchEngine>, params: LmParams) -> ShardedEngine {
        let parts = shards
            .into_iter()
            .map(|s| {
                let (num_docs, tokens) = (s.index().num_docs(), s.index().total_tokens());
                (s, num_docs, tokens)
            })
            .collect();
        ScatterEngine::assemble(parts, params).expect("doc ids fit u32")
    }

    /// Evaluate (and cache) one phrase on every shard — the warming
    /// loop the cache builder runs per article title. Empty phrases are
    /// skipped.
    pub fn warm_phrase(&self, words: &[String]) {
        for shard in &self.shards {
            shard.warm_phrase(words);
        }
    }
}

impl<S: ShardHandle> crate::backend::RetrievalBackend for ScatterEngine<S> {
    fn params(&self) -> LmParams {
        self.params
    }

    /// [`epsilon_for`] (the exact formula behind
    /// [`crate::index::InvertedIndex::epsilon_prob`]) over the global
    /// token total.
    fn epsilon_prob(&self) -> f64 {
        epsilon_for(self.total_tokens)
    }

    fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    fn num_docs(&self) -> usize {
        self.num_docs
    }

    fn doc_len(&self, doc: u32) -> u32 {
        let si = self.shard_of(doc);
        self.shards[si]
            .doc_len(doc - self.doc_bases[si])
            .unwrap_or(0)
    }

    /// Resolve (and cache) one phrase globally: per-shard hits re-based
    /// to global doc ids (shard order = ascending global order), with
    /// the collection probability over the global token total. A shard
    /// failure yields an empty resolution that is not cached.
    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        let lock = &self.phrase_cache[phrase_cache_slot(words, self.phrase_cache.len())];
        if let Some(hit) = lock.lock().get(words) {
            return hit.clone();
        }
        let mut hits = Vec::new();
        for (shard, &base) in self.shards.iter().zip(&self.doc_bases) {
            let Ok(local) = shard.resolve_phrase(words) else {
                return Arc::new(PhraseInfo {
                    hits: Vec::new(),
                    collection_prob: 0.0,
                });
            };
            hits.extend(local.into_iter().map(|h| PhraseHit {
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

    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.search_with(query, k, SearchMode::Exact)
    }

    /// The infallible facade over `try_search_with`: a failed scatter
    /// degrades to no hits. Serving paths that need the typed error
    /// call `try_search_with` instead (the `QueryExpander` does).
    fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        self.try_search_with(query, k, mode).unwrap_or_default()
    }

    /// The two-phase search. Any failing shard aborts the query with a
    /// typed error naming its slot (the lowest one when several fail).
    ///
    /// In [`SearchMode::Pruned`] each shard prunes against its own
    /// local heap floor using shard-local bounds (its segment's BOUNDS
    /// section). Per-shard pruned top-k equals per-shard exact top-k
    /// bitwise — the conservativeness argument of the pruned kernel,
    /// applied shard by shard with the same global smoothing inputs —
    /// so the merged result is unchanged too.
    fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError> {
        let mut specs = Vec::new();
        flatten_specs(query, 1.0, &mut specs);
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let query = S::prepare(query);

        // Phase 1: exact global per-leaf collection frequencies, summed
        // in shard order.
        let mut cfs = vec![0u64; specs.len()];
        for (si, shard) in self.shards.iter().enumerate() {
            let local = shard.leaf_cfs(&query).map_err(shard_error(si))?;
            if local.len() != cfs.len() {
                return Err(ShardedError::Shard {
                    shard: si,
                    source: OndiskError::Malformed {
                        context: "shard flattened a different leaf count",
                    },
                });
            }
            for (total, local_cf) in cfs.iter_mut().zip(local) {
                *total += local_cf;
            }
        }
        let tokens = self.total_tokens.max(1) as f64;
        let probs: Vec<f64> = cfs.iter().map(|&cf| cf as f64 / tokens).collect();
        let epsilon = self.epsilon_prob();

        // Phase 2: each shard scores its own candidate union into a
        // local top-k under the (score, global doc id) total order,
        // through the one scoring kernel ([`shard_topk`]).
        let per_shard = parallel_map(self.shards.len(), self.search_threads, |si| {
            self.shards[si].score_topk(
                &query,
                k,
                mode,
                self.doc_bases[si],
                self.params.mu,
                epsilon,
                &probs,
            )
        });

        // Gather: merge under the same total order and keep k. Every
        // global top-k document survives its own shard's heap, so this
        // is exactly the monolithic result.
        let mut merged: Vec<Scored> = Vec::new();
        for (si, hits) in per_shard.into_iter().enumerate() {
            merged.extend(hits.map_err(shard_error(si))?);
        }
        merged.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        merged.truncate(k);
        Ok(merged
            .into_iter()
            .map(|s| SearchHit {
                doc: s.doc,
                score: s.score,
            })
            .collect())
    }

    fn shard_endpoint(&self, shard: usize) -> Option<String> {
        self.shards.get(shard).and_then(S::endpoint)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn phrase_cache_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.phrase_cache_len().unwrap_or(0))
            .sum()
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

    /// A shard that fails exactly one of its handle calls — the
    /// `fail_on`-th, counted from 0 — and is healthy otherwise.
    struct Flaky {
        inner: SearchEngine,
        calls: std::sync::atomic::AtomicUsize,
        fail_on: usize,
    }

    impl Flaky {
        fn tick(&self) -> Result<&SearchEngine, OndiskError> {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if call == self.fail_on {
                return Err(OndiskError::Io("injected".to_string()));
            }
            Ok(&self.inner)
        }
    }

    impl ShardHandle for Flaky {
        type Query<'q> = &'q QueryNode;

        fn prepare(query: &QueryNode) -> &QueryNode {
            query
        }

        fn leaf_cfs(&self, query: &&QueryNode) -> Result<Vec<u64>, OndiskError> {
            self.tick()?.leaf_cfs(query)
        }

        fn score_topk(
            &self,
            query: &&QueryNode,
            k: usize,
            mode: SearchMode,
            base: u32,
            mu: f64,
            epsilon: f64,
            probs: &[f64],
        ) -> Result<Vec<Scored>, OndiskError> {
            self.tick()?
                .score_topk(query, k, mode, base, mu, epsilon, probs)
        }

        fn resolve_phrase(&self, words: &[String]) -> Result<Vec<PhraseHit>, OndiskError> {
            ShardHandle::resolve_phrase(self.tick()?, words)
        }

        fn doc_len(&self, doc: u32) -> Result<u32, OndiskError> {
            ShardHandle::doc_len(self.tick()?, doc)
        }

        fn phrase_cache_len(&self) -> Result<usize, OndiskError> {
            ShardHandle::phrase_cache_len(self.tick()?)
        }
    }

    /// Three shards over `DOCS`; shard `i` fails its `fail_on[i]`-th
    /// call (`usize::MAX` = never).
    fn flaky(fail_on: [usize; 3]) -> ScatterEngine<Flaky> {
        let parts = sharded(&DOCS, 3)
            .shards
            .into_iter()
            .zip(fail_on)
            .map(|(inner, fail_on)| {
                let (num_docs, tokens) = (inner.index().num_docs(), inner.index().total_tokens());
                let calls = Default::default();
                let shard = Flaky {
                    inner,
                    calls,
                    fail_on,
                };
                (shard, num_docs, tokens)
            })
            .collect();
        ScatterEngine::assemble(parts, LmParams::default()).unwrap()
    }

    #[test]
    fn a_failing_shard_is_named_in_either_phase() {
        const NEVER: usize = usize::MAX;
        let q = parse("#combine(#1(grand canal) venice)").unwrap();
        let healthy = sharded(&DOCS, 3).search(&q, 5);
        // A search makes two calls per shard: 0 = phase 1, 1 = phase 2.
        for (fail_on, want) in [
            ([NEVER, 0, NEVER], 1),
            ([NEVER, 1, NEVER], 1),
            ([NEVER, NEVER, 1], 2),
            ([NEVER, 0, 0], 1), // two fail: the lower slot is reported
            ([NEVER, 1, 1], 1),
            ([NEVER, 1, 0], 2), // phase 1 runs first, whatever the slot
        ] {
            let engine = flaky(fail_on);
            match engine.try_search_with(&q, 5, SearchMode::Exact) {
                Err(ShardedError::Shard { shard, .. }) => assert_eq!(shard, want, "{fail_on:?}"),
                Ok(hits) => panic!("{fail_on:?}: expected an error, got {hits:?}"),
            }
        }
        // The infallible facade degrades to no hits, and a shard that
        // recovers is simply used again.
        assert!(flaky([NEVER, 0, NEVER]).search(&q, 5).is_empty());
        let engine = flaky([NEVER, 1, NEVER]);
        assert!(engine.search_with(&q, 5, SearchMode::Pruned).is_empty());
        assert_eq!(engine.search_with(&q, 5, SearchMode::Pruned), healthy);
    }

    #[test]
    fn a_failed_phrase_resolution_is_empty_and_not_cached() {
        let words = vec!["grand".to_string(), "canal".to_string()];
        let engine = flaky([usize::MAX, 0, usize::MAX]);
        let failed = engine.resolve_phrase(&words);
        assert!(failed.hits.is_empty());
        assert_eq!(failed.collection_prob, 0.0);
        // The shard has recovered: the next call consults it again and
        // gets (and caches) the complete resolution.
        let healed = engine.resolve_phrase(&words);
        let want = mono(&DOCS).phrase_info(&words);
        assert_eq!(healed.hits, want.hits);
        assert_eq!(
            healed.collection_prob.to_bits(),
            want.collection_prob.to_bits()
        );
        assert!(Arc::ptr_eq(&healed, &engine.resolve_phrase(&words)));
        // A failed doc_len or cache-size probe degrades to 0.
        let engine = flaky([0, usize::MAX, 0]);
        assert_eq!(RetrievalBackend::doc_len(&engine, 0), 0);
        assert_eq!(RetrievalBackend::doc_len(&engine, 0), 8);
        assert_eq!(RetrievalBackend::phrase_cache_len(&engine), 0);
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
