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

    /// Length (token count) of document `doc` (global doc id); 0 past
    /// the collection, in every layout.
    fn doc_len(&self, doc: u32) -> u32;

    /// Resolve (and memoize) one exact phrase: hits in global doc-id
    /// order plus the global collection probability.
    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo>;

    /// Execute a parsed query exactly ([`SearchMode::Exact`]),
    /// returning the best `k` documents (descending score, ties by
    /// ascending global doc id). Infallible: a backend whose shards can
    /// fail answers no hits. The reference every layout is held to.
    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit>;

    /// [`RetrievalBackend::search`] in an explicit execution mode, with
    /// a typed error naming the failing shard for backends whose shards
    /// can fail at query time (remote shard processes), so the serving
    /// facade can surface it as `ServiceError::ArtifactShard`. Serving
    /// calls this with [`SearchMode::Pruned`]. Both modes must return
    /// hits bit-equal to `search`.
    fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError>;

    /// Where shard `shard` physically lives, when the backend knows —
    /// a socket address for remote shard processes, `None` for
    /// in-process backends (the serving facade's error path then names
    /// the shard as `shard{shard}`).
    fn shard_endpoint(&self, shard: usize) -> Option<String> {
        let _ = shard;
        None
    }

    /// Number of physical shards behind this backend (1 = monolithic).
    fn shard_count(&self) -> usize;

    /// Total phrase-cache entries across shards (observability).
    fn phrase_cache_len(&self) -> usize;
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
        self.index()
            .doc_lengths()
            .get(doc as usize)
            .copied()
            .unwrap_or(0)
    }

    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        self.phrase_info(words)
    }

    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        SearchEngine::search(self, query, k)
    }

    fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError> {
        Ok(self.search_with(query, k, mode))
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn phrase_cache_len(&self) -> usize {
        SearchEngine::phrase_cache_len(self)
    }
}

/// An owned backend of any physical layout — what world builders
/// return and [`Experiment`](../../querygraph_core) / `ServingWorld`
/// hold. Dispatch to the trait with [`AnyEngine::backend`], or coerce a
/// `&AnyEngine` to `&dyn RetrievalBackend` directly (it implements the
/// trait by delegation). Live reload is not a layout: a
/// [`ReloadableEngine`] wraps one `AnyEngine` per generation.
pub enum AnyEngine {
    /// The monolithic engine over one index (shared, so a live reload
    /// can hand the same segment to its next generation).
    Mono(Arc<SearchEngine>),
    /// N doc-partitioned shards behind deterministic scatter-gather.
    Sharded(ShardedEngine),
    /// N shard *processes* behind QGRP scatter-gather
    /// ([`crate::remote`]).
    Remote(RemoteEngine),
}

impl AnyEngine {
    /// The engine over `shards`, contiguous doc-id slices in global
    /// order, owned or shared: the plain engine for one shard (its own
    /// `LmParams`), a [`ShardedEngine`] scoring with `params` otherwise.
    /// The one place built or loaded shards become an engine.
    ///
    /// # Panics
    /// If `shards` is empty or the doc ids overflow `u32`.
    pub fn from_shards(
        mut shards: Vec<impl Into<Arc<SearchEngine>>>,
        params: LmParams,
    ) -> AnyEngine {
        match shards.len() {
            1 => AnyEngine::Mono(shards.pop().expect("one shard").into()),
            _ => AnyEngine::Sharded(ShardedEngine::from_shards(shards, params)),
        }
    }

    /// This engine as a trait object.
    pub fn backend(&self) -> &(dyn RetrievalBackend + 'static) {
        match self {
            AnyEngine::Mono(e) => &**e,
            AnyEngine::Sharded(e) => e,
            AnyEngine::Remote(e) => e,
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

    /// Execute a query (convenience delegation, so callers holding the
    /// enum don't need the trait in scope).
    pub fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.backend().search(query, k)
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
}

/// One immutable engine generation behind a [`ReloadableEngine`]: the
/// engine plus the epoch (generation fingerprint) it serves.
pub struct EngineGeneration {
    /// The engine answering queries for this generation.
    pub engine: AnyEngine,
    /// The generation's key: a cache keyed by (query, epoch) never
    /// serves an answer computed against a replaced generation.
    pub epoch: u64,
}

/// A hot-swappable generation slot: an `Arc`-shared slot holding the
/// current [`EngineGeneration`]. It is not a backend itself; a reader
/// takes a [`ReloadableEngine::snapshot`] (one short lock to clone an
/// `Arc`) and works against that generation's engine.
///
/// The serving facade takes one snapshot per request and uses it for
/// the cache key, the search and any error, so a concurrent
/// [`ReloadableEngine::swap`] never breaks an in-flight request: a
/// request that started on the old generation finishes on it (its `Arc`
/// keeps it alive), requests that start after the swap see the new
/// one. That makes the swap zero-downtime by construction — no request
/// is dropped, blocked, or served a half-replaced engine.
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
        // One shard is the plain engine …
        let params = LmParams::default();
        let any = AnyEngine::from_shards(vec![engine()], params);
        assert!(any.as_mono().is_some());
        assert!(any.as_sharded().is_none());
        assert_eq!(any.shard_count(), 1);
        assert_eq!(any.num_docs(), 2);
        let q = parse("#1(grand canal)").unwrap();
        assert_eq!(any.search(&q, 5), any.backend().search(&q, 5));
        // … two are scatter-gather over the same documents, answering
        // alike.
        let two = AnyEngine::from_shards(
            vec![
                engine_over(&["a gondola on the grand canal of venice"]),
                engine_over(&["the grand hotel beside a small canal"]),
            ],
            params,
        );
        assert_eq!(two.as_sharded().map(|s| s.shard_count()), Some(2));
        assert_eq!(two.search(&q, 5), any.search(&q, 5));
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
        let a = AnyEngine::Mono(Arc::new(engine_over(&["gondola venice", "canal"])));
        let b = AnyEngine::Mono(Arc::new(engine_over(&[
            "mountain hut",
            "mountain pass",
            "gondola lift",
        ])));
        let r = ReloadableEngine::new(a, 1);
        let reader = r.clone();
        assert_eq!(reader.snapshot().engine.num_docs(), 2);
        assert_eq!(reader.epoch(), 1);
        let old = r.swap(b, 2);
        assert_eq!(old.epoch, 1, "swap returns the replaced generation");
        assert_eq!(
            reader.snapshot().engine.num_docs(),
            3,
            "clones share the slot"
        );
        assert_eq!(reader.epoch(), 2);
        // The replaced generation is still fully usable by holders.
        assert_eq!(old.engine.num_docs(), 2);
    }

    #[test]
    fn a_swapped_in_scatter_engine_sums_its_own_collection_frequencies() {
        let docs_a = ["gondola on the canal", "a quiet canal", "venice"];
        let docs_b = [
            "gondola on the canal",
            "a quiet canal",
            "venice",
            "gondola gondola gondola",
            "the gondola lift",
        ];
        let two = |docs: &[&str]| {
            let half = docs.len() / 2;
            let shards = vec![engine_over(&docs[..half]), engine_over(&docs[half..])];
            AnyEngine::Sharded(ShardedEngine::from_shards(shards, LmParams::default()))
        };
        let q = parse("#combine(gondola canal)").unwrap();
        let (mono_a, mono_b) = (engine_over(&docs_a), engine_over(&docs_b));
        let r = ReloadableEngine::new(two(&docs_a), 1);
        let search = || r.snapshot().engine.search(&q, 10);
        // Generation 1 sums and remembers every leaf of `q` …
        assert_eq!(search(), mono_a.search(&q, 10));
        assert_eq!(search(), mono_a.search(&q, 10));
        // … and generation 2, where `gondola` is five times as common,
        // must not score with them.
        r.swap(two(&docs_b), 2);
        let want = mono_b.search(&q, 10);
        let shared: Vec<SearchHit> = want.iter().filter(|h| h.doc < 3).cloned().collect();
        assert_eq!(shared.len(), 2);
        assert_ne!(
            shared,
            mono_a.search(&q, 10),
            "the shared documents score differently"
        );
        assert_eq!(search(), want);
        assert_eq!(search(), want);
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

        let r = ReloadableEngine::new(AnyEngine::Mono(Arc::new(engine_over(&docs_a))), 1);
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
                        let hits = snap.engine.search(q, 10);
                        // Epoch and answer must come from the same side.
                        match snap.epoch {
                            1 => assert_eq!(hits, *expect_a, "generation 1 answers as A"),
                            2 => assert_eq!(hits, *expect_b, "generation 2 answers as B"),
                            epoch => panic!("no generation has epoch {epoch}"),
                        }
                    }
                });
            }
            for i in 0..200 {
                let (engine, epoch) = if i % 2 == 0 {
                    (AnyEngine::Mono(Arc::new(engine_over(&docs_b))), 2)
                } else {
                    (AnyEngine::Mono(Arc::new(engine_over(&docs_a))), 1)
                };
                r.swap(engine, epoch);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
}
