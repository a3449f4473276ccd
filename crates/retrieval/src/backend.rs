//! The retrieval surface the rest of the workspace scores through.
//!
//! Everything above this crate — the §2.2 hill climb's
//! [`crate::workspace::ScoreWorkspace`], the serving facade, the
//! reproduction pipeline — used to talk to [`SearchEngine`] directly,
//! hard-wiring "one engine, one artifact" into every layer.
//! [`RetrievalBackend`] extracts exactly the surface those consumers
//! use, so a backend can be the monolithic engine *or* the
//! scatter-gather coordinator over doc-partitioned shards — in this
//! process ([`ShardedEngine`]) or behind QGRP sockets
//! ([`RemoteEngine`]) — without the science noticing.
//!
//! ## The byte-identity contract
//!
//! Every implementation must return **bit-identical** results for the
//! same logical collection, whatever its physical layout:
//!
//! * [`RetrievalBackend::search`] — same hits, same scores, same order
//!   (descending score, ties by ascending *global* doc id).
//! * [`RetrievalBackend::resolve_phrase`] — same hits in global doc-id
//!   order and the same collection probability (exact integer counts
//!   divided by the global token total).
//! * [`RetrievalBackend::epsilon_prob`] / collection statistics — the
//!   *global* values, aggregated once at build/load, never a shard's
//!   local view (Dirichlet smoothing reads them directly, so a local
//!   value would silently shift every score).
//!
//! The golden `Report` pins and the sharded-equivalence property tests
//! enforce this contract across the whole pipeline.

use crate::engine::{PhraseInfo, SearchEngine, SearchHit, SearchMode};
use crate::index::InvertedIndex;
use crate::lm::LmParams;
use crate::query_lang::QueryNode;
use crate::remote::RemoteEngine;
use crate::sharded::{ShardedEngine, ShardedError};
use std::sync::Arc;

/// The scoring/retrieval surface consumed by the workspace, the
/// pipeline, and the serving facade. Object-safe; `Send + Sync` so one
/// backend serves every worker thread.
pub trait RetrievalBackend: Send + Sync {
    /// The Dirichlet smoothing parameters scoring uses.
    fn params(&self) -> LmParams;

    /// The smoothing floor for unseen components: the smallest nonzero
    /// probability of the **global** collection (0.5 / total tokens).
    fn epsilon_prob(&self) -> f64;

    /// Total token count of the global collection.
    fn total_tokens(&self) -> u64;

    /// Number of documents in the global collection.
    fn num_docs(&self) -> usize;

    /// Length (token count) of document `doc` (global doc id).
    fn doc_len(&self, doc: u32) -> u32;

    /// Resolve (and memoize) one exact phrase: hits in global doc-id
    /// order plus the global collection probability.
    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo>;

    /// Execute a parsed query, returning the best `k` documents
    /// (descending score, ties by ascending global doc id).
    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit>;

    /// [`RetrievalBackend::search`] with an explicit execution mode.
    /// [`SearchMode::Exact`] must equal `search` bitwise;
    /// [`SearchMode::Pruned`] must be rank-equivalent (same documents
    /// in the same order, scores within 1e-9). The default ignores the
    /// mode and scores exactly — always a valid (if unaccelerated)
    /// implementation of that contract.
    fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        let _ = mode;
        self.search(query, k)
    }

    /// Fallible form of [`RetrievalBackend::search_with`] for backends
    /// whose shards can fail at query time (remote shard processes).
    /// The typed error names the failing shard so the serving facade
    /// can surface it as `ServiceError::ArtifactShard`. A backend with
    /// nothing that can fail keeps the default, which wraps
    /// `search_with`.
    fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError> {
        Ok(self.search_with(query, k, mode))
    }

    /// Where shard `shard` physically lives, when the backend knows —
    /// a socket address for remote shard processes, `None` for
    /// in-process backends (the error path then falls back to the
    /// segment path).
    fn shard_endpoint(&self, shard: usize) -> Option<String> {
        let _ = shard;
        None
    }

    /// Number of physical shards behind this backend (1 = monolithic).
    fn shard_count(&self) -> usize;

    /// Total phrase-cache entries across shards (observability).
    fn phrase_cache_len(&self) -> usize;

    /// A key identifying the collection snapshot this backend currently
    /// answers from. Static backends never change collections, so the
    /// default is a constant; [`ReloadableEngine`] returns its live
    /// generation fingerprint so caches keyed by (query, epoch) can
    /// never serve answers computed against a replaced generation.
    fn cache_epoch(&self) -> u64 {
        0
    }
}

impl RetrievalBackend for SearchEngine {
    fn params(&self) -> LmParams {
        SearchEngine::params(self)
    }

    fn epsilon_prob(&self) -> f64 {
        self.index().epsilon_prob()
    }

    fn total_tokens(&self) -> u64 {
        self.index().total_tokens()
    }

    fn num_docs(&self) -> usize {
        self.index().num_docs()
    }

    fn doc_len(&self, doc: u32) -> u32 {
        self.index().doc_len(doc)
    }

    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        self.phrase_info(words)
    }

    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        SearchEngine::search(self, query, k)
    }

    fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        SearchEngine::search_with(self, query, k, mode)
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn phrase_cache_len(&self) -> usize {
        SearchEngine::phrase_cache_len(self)
    }
}

/// An owned backend of either physical layout — what world builders
/// return and [`Experiment`](../../querygraph_core) / `ServingWorld`
/// hold. Dispatch to the trait with [`AnyEngine::backend`], or coerce a
/// `&AnyEngine` to `&dyn RetrievalBackend` directly (it implements the
/// trait by delegation).
pub enum AnyEngine {
    /// The monolithic engine over one index.
    Mono(SearchEngine),
    /// N doc-partitioned shards behind deterministic scatter-gather.
    Sharded(ShardedEngine),
    /// N shard *processes* behind QGRP scatter-gather
    /// ([`crate::remote`]).
    Remote(RemoteEngine),
    /// A hot-swappable engine serving a segstore generation; swapped
    /// onto new generations between queries with zero downtime.
    Reloadable(ReloadableEngine),
}

impl AnyEngine {
    /// This engine as a trait object.
    pub fn backend(&self) -> &(dyn RetrievalBackend + 'static) {
        match self {
            AnyEngine::Mono(e) => e,
            AnyEngine::Sharded(e) => e,
            AnyEngine::Remote(e) => e,
            AnyEngine::Reloadable(e) => e,
        }
    }

    /// The monolithic engine, when this is one.
    pub fn as_mono(&self) -> Option<&SearchEngine> {
        match self {
            AnyEngine::Mono(e) => Some(e),
            _ => None,
        }
    }

    /// The sharded engine, when this is one.
    pub fn as_sharded(&self) -> Option<&ShardedEngine> {
        match self {
            AnyEngine::Sharded(e) => Some(e),
            _ => None,
        }
    }

    /// The reloadable wrapper, when this is one.
    pub fn as_reloadable(&self) -> Option<&ReloadableEngine> {
        match self {
            AnyEngine::Reloadable(e) => Some(e),
            _ => None,
        }
    }

    /// The monolithic engine's index (None when sharded); kept for the
    /// single-artifact cache paths and tests.
    pub fn index(&self) -> Option<&InvertedIndex> {
        self.as_mono().map(SearchEngine::index)
    }

    /// Execute a query (convenience delegation, so callers holding the
    /// enum don't need the trait in scope).
    pub fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.backend().search(query, k)
    }

    /// Execute a query with an explicit [`SearchMode`].
    pub fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        self.backend().search_with(query, k, mode)
    }

    /// Number of documents in the global collection.
    pub fn num_docs(&self) -> usize {
        self.backend().num_docs()
    }

    /// Number of physical shards (1 = monolithic).
    pub fn shard_count(&self) -> usize {
        self.backend().shard_count()
    }
}

impl RetrievalBackend for AnyEngine {
    fn params(&self) -> LmParams {
        self.backend().params()
    }

    fn epsilon_prob(&self) -> f64 {
        self.backend().epsilon_prob()
    }

    fn total_tokens(&self) -> u64 {
        self.backend().total_tokens()
    }

    fn num_docs(&self) -> usize {
        self.backend().num_docs()
    }

    fn doc_len(&self, doc: u32) -> u32 {
        self.backend().doc_len(doc)
    }

    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        self.backend().resolve_phrase(words)
    }

    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.backend().search(query, k)
    }

    fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        self.backend().search_with(query, k, mode)
    }

    fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError> {
        self.backend().try_search_with(query, k, mode)
    }

    fn shard_endpoint(&self, shard: usize) -> Option<String> {
        self.backend().shard_endpoint(shard)
    }

    fn shard_count(&self) -> usize {
        self.backend().shard_count()
    }

    fn phrase_cache_len(&self) -> usize {
        self.backend().phrase_cache_len()
    }

    fn cache_epoch(&self) -> u64 {
        self.backend().cache_epoch()
    }
}

/// One immutable engine generation behind a [`ReloadableEngine`]: the
/// engine plus the epoch (generation fingerprint) it serves.
pub struct EngineGeneration {
    /// The engine answering queries for this generation.
    pub engine: AnyEngine,
    /// The generation's cache-epoch key (see
    /// [`RetrievalBackend::cache_epoch`]).
    pub epoch: u64,
}

/// A hot-swappable [`RetrievalBackend`]: an `Arc`-shared slot holding
/// the current [`EngineGeneration`].
///
/// Every trait call snapshots the current generation (one short lock to
/// clone an `Arc`) and runs entirely against that snapshot, so a
/// concurrent [`ReloadableEngine::swap`] never breaks an in-flight
/// query: requests that started on the old generation finish on it
/// (their `Arc` keeps it alive), requests that start after the swap see
/// the new one. That makes the swap zero-downtime by construction — no
/// request is dropped, blocked, or served a half-replaced engine.
///
/// `Clone` shares the slot, so a background reload thread can hold one
/// handle and swap while the serving loop reads through another.
#[derive(Clone)]
pub struct ReloadableEngine {
    slot: Arc<parking_lot::Mutex<Arc<EngineGeneration>>>,
}

impl ReloadableEngine {
    /// Wrap an engine as the initial generation.
    pub fn new(engine: AnyEngine, epoch: u64) -> ReloadableEngine {
        ReloadableEngine {
            slot: Arc::new(parking_lot::Mutex::new(Arc::new(EngineGeneration {
                engine,
                epoch,
            }))),
        }
    }

    /// The current generation (kept alive by the returned `Arc` even
    /// across swaps).
    pub fn snapshot(&self) -> Arc<EngineGeneration> {
        self.slot.lock().clone()
    }

    /// Install a new generation; returns the replaced one so the caller
    /// can drain/tear it down (e.g. shut down a replaced shard fleet)
    /// once its in-flight queries finish.
    pub fn swap(&self, engine: AnyEngine, epoch: u64) -> Arc<EngineGeneration> {
        let next = Arc::new(EngineGeneration { engine, epoch });
        std::mem::replace(&mut *self.slot.lock(), next)
    }

    /// The current generation's epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }
}

impl RetrievalBackend for ReloadableEngine {
    fn params(&self) -> LmParams {
        self.snapshot().engine.backend().params()
    }

    fn epsilon_prob(&self) -> f64 {
        self.snapshot().engine.backend().epsilon_prob()
    }

    fn total_tokens(&self) -> u64 {
        self.snapshot().engine.backend().total_tokens()
    }

    fn num_docs(&self) -> usize {
        self.snapshot().engine.backend().num_docs()
    }

    fn doc_len(&self, doc: u32) -> u32 {
        self.snapshot().engine.backend().doc_len(doc)
    }

    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        self.snapshot().engine.backend().resolve_phrase(words)
    }

    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.snapshot().engine.backend().search(query, k)
    }

    fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        self.snapshot().engine.backend().search_with(query, k, mode)
    }

    fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError> {
        self.snapshot()
            .engine
            .backend()
            .try_search_with(query, k, mode)
    }

    fn shard_endpoint(&self, shard: usize) -> Option<String> {
        self.snapshot().engine.backend().shard_endpoint(shard)
    }

    fn shard_count(&self) -> usize {
        self.snapshot().engine.backend().shard_count()
    }

    fn phrase_cache_len(&self) -> usize {
        self.snapshot().engine.backend().phrase_cache_len()
    }

    fn cache_epoch(&self) -> u64 {
        self.snapshot().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::query_lang::parse;

    fn engine() -> SearchEngine {
        let mut b = IndexBuilder::new();
        b.add_document("a gondola on the grand canal of venice");
        b.add_document("the grand hotel beside a small canal");
        SearchEngine::new(b.build())
    }

    #[test]
    fn trait_methods_mirror_the_engine() {
        let e = engine();
        let b: &dyn RetrievalBackend = &e;
        assert_eq!(b.num_docs(), 2);
        assert_eq!(b.total_tokens(), e.index().total_tokens());
        assert_eq!(b.epsilon_prob(), e.index().epsilon_prob());
        assert_eq!(b.doc_len(0), e.index().doc_len(0));
        assert_eq!(b.shard_count(), 1);
        let q = parse("#combine(#1(grand canal) venice)").unwrap();
        assert_eq!(b.search(&q, 5), e.search(&q, 5));
        let words = vec!["grand".to_string(), "canal".to_string()];
        let p = b.resolve_phrase(&words);
        // Adjacent only in doc 0 ("grand canal"); doc 1 has the words
        // scattered.
        assert_eq!(p.hits.len(), 1);
        assert_eq!(p.hits[0].doc, 0);
        assert!(b.phrase_cache_len() >= 1);
    }

    #[test]
    fn any_engine_delegates_to_mono() {
        let any = AnyEngine::Mono(engine());
        assert!(any.as_mono().is_some());
        assert!(any.as_sharded().is_none());
        assert_eq!(any.shard_count(), 1);
        assert_eq!(any.num_docs(), 2);
        let q = parse("#1(grand canal)").unwrap();
        assert_eq!(any.search(&q, 5), any.backend().search(&q, 5));
    }

    #[test]
    fn static_backends_have_constant_epoch() {
        let e = engine();
        let b: &dyn RetrievalBackend = &e;
        assert_eq!(b.cache_epoch(), 0);
        assert_eq!(AnyEngine::Mono(engine()).cache_epoch(), 0);
    }

    fn engine_over(docs: &[&str]) -> SearchEngine {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        SearchEngine::new(b.build())
    }

    #[test]
    fn reloadable_swap_changes_answers_and_epoch() {
        let a = AnyEngine::Mono(engine_over(&["gondola venice", "canal"]));
        let b = AnyEngine::Mono(engine_over(&[
            "mountain hut",
            "mountain pass",
            "gondola lift",
        ]));
        let r = ReloadableEngine::new(a, 1);
        let any = AnyEngine::Reloadable(r.clone());
        assert_eq!(any.num_docs(), 2);
        assert_eq!(any.cache_epoch(), 1);
        let old = r.swap(b, 2);
        assert_eq!(old.epoch, 1, "swap returns the replaced generation");
        assert_eq!(any.num_docs(), 3);
        assert_eq!(any.cache_epoch(), 2);
        // The replaced generation is still fully usable by holders.
        assert_eq!(old.engine.num_docs(), 2);
    }

    /// The zero-downtime conformance drill: queries race a tight swap
    /// loop; every response must exactly equal one of the two valid
    /// generations' answers — never an error, a panic, or a blend.
    #[test]
    fn concurrent_swaps_never_break_in_flight_queries() {
        let docs_a = ["a gondola on the grand canal", "the grand hotel"];
        let docs_b = [
            "a gondola on the grand canal",
            "the grand hotel",
            "a new grand canal document",
            "another gondola entirely",
        ];
        let q = parse("#combine(#1(grand canal) gondola)").unwrap();
        let expect_a = engine_over(&docs_a).search(&q, 10);
        let expect_b = engine_over(&docs_b).search(&q, 10);
        assert_ne!(expect_a, expect_b, "fixtures must be distinguishable");

        let r = ReloadableEngine::new(AnyEngine::Mono(engine_over(&docs_a)), 1);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                let q = &q;
                let (expect_a, expect_b) = (&expect_a, &expect_b);
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = r.snapshot();
                        let hits = r.search(q, 10);
                        assert!(
                            hits == *expect_a || hits == *expect_b,
                            "response must match a whole generation"
                        );
                        // Epoch and answer must come from the same side.
                        let epoch = snap.epoch;
                        assert!(epoch == 1 || epoch == 2);
                    }
                });
            }
            for i in 0..200 {
                let (engine, epoch) = if i % 2 == 0 {
                    (AnyEngine::Mono(engine_over(&docs_b)), 2)
                } else {
                    (AnyEngine::Mono(engine_over(&docs_a)), 1)
                };
                r.swap(engine, epoch);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
}
