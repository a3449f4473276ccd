//! The serving facade: per-query expansion as an online API.
//!
//! The paper's deliverable is an *online* technique — expand one
//! incoming query via the cycle structure of its Wikipedia subgraph —
//! but the reproduction pipeline ([`crate::experiment`]) only exposes
//! it through the batch `Experiment::run()` loop that rebuilds ground
//! truths and aggregates every table per call. This module is the
//! serving-time entrypoint that amortizes the expensive state (index,
//! knowledge base, entity-linker dictionary) once and answers ad-hoc
//! queries end to end:
//!
//! * [`QueryExpander`] — built once from a knowledge base and a
//!   [`RetrievalBackend`]; answers [`ExpansionRequest`]s (entity linking →
//!   expansion features → INDRI query → optional retrieval) through
//!   [`ExpansionResponse`]s. Every failure on the serving path is a
//!   typed [`ServiceError`], never a panic.
//! * [`QueryExpanderBuilder`] — the knobs: expansion strategy
//!   ([`ExpansionStrategy`]), feature caps, default retrieval depth,
//!   response cache.
//! * [`ServingWorld`] — the owned world a long-lived server holds:
//!   synthesized knowledge base + engine, loaded either strictly from
//!   its index cache's segment store ([`ServingWorld::load`], typed
//!   errors) or
//!   leniently with build-and-persist fallback ([`ServingWorld::open`]).
//!
//! The reproduction pipeline itself consumes this facade — its
//! [`crate::pipeline::PipelineCtx`] holds a [`QueryExpander`] — so the
//! batch experiment is one client of the serving API rather than the
//! only entrypoint.
//!
//! ```
//! use querygraph_core::config::ExperimentConfig;
//! use querygraph_core::service::{ExpansionRequest, ServingWorld};
//!
//! // Build (or load) the world once; serve many queries.
//! let world = ServingWorld::open(&ExperimentConfig::tiny(), None);
//! let expander = world.expander();
//! let query = world.wiki.kb.title(world.wiki.kb.main_articles().next().unwrap());
//! let response = expander.expand(&ExpansionRequest::new(query)).unwrap();
//! assert!(!response.entities.is_empty());
//! assert!(response.expanded_query.starts_with("#combine("));
//! ```

use crate::cache::{self, WorldOptions};
use crate::config::ExperimentConfig;
use crate::expansion::{cycle_features, expanded_titles, link_features, CycleExpanderConfig};
use crate::expcache::{CacheKey, ExpansionCache};
use querygraph_link::EntityLinker;
use querygraph_retrieval::backend::{
    AnyEngine, EngineGeneration, ReloadableEngine, RetrievalBackend,
};
use querygraph_retrieval::engine::{SearchHit, SearchMode};
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::ondisk::OndiskError;
use querygraph_retrieval::query_lang::QueryNode;
use querygraph_retrieval::segstore::Manifest;
use querygraph_retrieval::sharded::ShardedError;
use querygraph_wiki::synth::{generate, SynthWiki};
use querygraph_wiki::{ArticleId, KnowledgeBase};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed failure on the serving path. Everything reachable from
/// [`ServingWorld::load`] and [`QueryExpander::expand`] surfaces as one
/// of these — the serving path never panics on bad input or a bad
/// artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request text is empty (or whitespace-only).
    EmptyQuery,
    /// Entity linking found no article mention in the query text, so
    /// there is nothing to expand (§2.1: expansion starts from L(q.k)).
    NoLinkedEntities {
        /// The query text as served.
        query: String,
    },
    /// Retrieval was requested but the expander was built without a
    /// search engine ([`QueryExpanderBuilder::build_offline`]).
    NoEngine,
    /// No artifact exists at the expected cache path (cold cache).
    ArtifactMissing {
        /// The fingerprint-keyed path that was probed.
        path: PathBuf,
    },
    /// The artifact exists but failed to load (corruption, truncation,
    /// version skew — see the wrapped [`OndiskError`]). For sharded
    /// artifacts this covers the *manifest*; segment failures carry
    /// their shard index in [`ServiceError::ArtifactShard`].
    ArtifactLoad {
        /// The artifact path.
        path: PathBuf,
        /// The loader's typed failure.
        source: OndiskError,
    },
    /// One segment of a sharded artifact failed to load — corruption,
    /// truncation, a segment swapped into the wrong slot. Names the
    /// shard so an operator knows exactly which segment to replace.
    ArtifactShard {
        /// The failing segment's path.
        path: PathBuf,
        /// Index of the failing shard.
        shard: usize,
        /// The segment loader's typed failure.
        source: OndiskError,
    },
    /// The artifact loaded but was written for a different world
    /// configuration (embedded fingerprint mismatch, e.g. a renamed
    /// file).
    ArtifactFingerprint {
        /// The artifact path.
        path: PathBuf,
        /// Fingerprint of the requested configuration.
        expected: u64,
        /// Fingerprint recorded in the artifact header.
        found: u64,
    },
    /// The artifact matches the configuration fingerprint but indexes a
    /// different number of documents than the regenerated corpus —
    /// generator or tokenizer code drifted since it was written.
    ArtifactStale {
        /// The artifact path.
        path: PathBuf,
        /// Documents in the loaded index.
        indexed_docs: usize,
        /// Documents in the regenerated corpus.
        corpus_docs: usize,
    },
    /// The request exceeded its serving [`Deadline`] — while queued
    /// before admission, or because its answer (computed *or* served
    /// from the expansion cache) landed after the budget ran out. The
    /// network front-end maps this to HTTP 408 with `Retry-After`.
    Timeout {
        /// Milliseconds actually elapsed when the deadline check fired.
        elapsed_ms: u64,
        /// The request's deadline budget, in milliseconds.
        budget_ms: u64,
    },
    /// The server refused this request before serving it because its
    /// bounded queue was full — graceful load shedding. The network
    /// front-end maps this to HTTP 503 with `Retry-After`.
    Overloaded {
        /// Connections already waiting when the request was shed.
        queue_depth: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::EmptyQuery => write!(f, "empty query"),
            ServiceError::NoLinkedEntities { query } => {
                write!(f, "no article mention links in query {query:?}")
            }
            ServiceError::NoEngine => {
                write!(f, "retrieval requested but expander has no search engine")
            }
            ServiceError::ArtifactMissing { path } => {
                write!(f, "no index artifact at {}", path.display())
            }
            ServiceError::ArtifactLoad { path, source } => {
                write!(f, "index artifact {}: {source}", path.display())
            }
            ServiceError::ArtifactShard {
                path,
                shard,
                source,
            } => write!(
                f,
                "index artifact shard {shard} ({}): {source}",
                path.display()
            ),
            ServiceError::ArtifactFingerprint {
                path,
                expected,
                found,
            } => write!(
                f,
                "index artifact {}: written for configuration {found:#018x}, \
                 expected {expected:#018x}",
                path.display()
            ),
            ServiceError::ArtifactStale {
                path,
                indexed_docs,
                corpus_docs,
            } => write!(
                f,
                "index artifact {}: stale ({indexed_docs} docs indexed, corpus has \
                 {corpus_docs})",
                path.display()
            ),
            ServiceError::Timeout {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded after {elapsed_ms} ms (budget {budget_ms} ms)"
            ),
            ServiceError::Overloaded { queue_depth } => {
                write!(f, "server overloaded ({queue_depth} requests queued)")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::ArtifactLoad { source, .. }
            | ServiceError::ArtifactShard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ServiceError {
    /// Every code [`ServiceError::code`] can produce, in variant
    /// declaration order. A wire-stability test pins this list: adding
    /// a variant without extending it is a compile- or test-time error,
    /// never a silent wire change.
    #[cfg(test)]
    pub(crate) const CODES: [&'static str; 10] = [
        "empty_query",
        "no_linked_entities",
        "no_engine",
        "artifact_missing",
        "artifact_load",
        "artifact_shard",
        "artifact_fingerprint",
        "artifact_stale",
        "timeout",
        "overloaded",
    ];

    /// The wire-stable machine-readable code for this error — the
    /// discriminator the HTTP error body and the `/statz` per-code
    /// counters share. Codes never change meaning; new variants append
    /// new codes.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            ServiceError::EmptyQuery => "empty_query",
            ServiceError::NoLinkedEntities { .. } => "no_linked_entities",
            ServiceError::NoEngine => "no_engine",
            ServiceError::ArtifactMissing { .. } => "artifact_missing",
            ServiceError::ArtifactLoad { .. } => "artifact_load",
            ServiceError::ArtifactShard { .. } => "artifact_shard",
            ServiceError::ArtifactFingerprint { .. } => "artifact_fingerprint",
            ServiceError::ArtifactStale { .. } => "artifact_stale",
            ServiceError::Timeout { .. } => "timeout",
            ServiceError::Overloaded { .. } => "overloaded",
        }
    }

    /// Seconds a client should wait before retrying, for the errors
    /// that are worth retrying at all (shed and timed-out requests).
    /// The HTTP front-end renders this value — *this* value, not a
    /// fixed constant — as the `Retry-After` header, so the two
    /// overload shapes give different back-off hints: a timed-out
    /// request (408) can retry almost immediately (its budget simply
    /// ran out), while a shed connection (503) means the queue is full
    /// and piling back on one second later just re-sheds.
    pub fn retry_after_seconds(&self) -> Option<u32> {
        match self {
            ServiceError::Timeout { .. } => Some(1),
            ServiceError::Overloaded { .. } => Some(2),
            _ => None,
        }
    }
}

/// A per-request serving deadline: an arrival instant plus a budget.
///
/// Deadlines measure *total* request age — queue wait included — not
/// just compute time, so a request that spent its whole budget waiting
/// for a worker is refused at admission rather than served late. The
/// HTTP front-end stamps one of these per request; batch callers can
/// pass [`QueryExpander::expand_deadlined`] their own.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline starting now with the given budget.
    pub fn after(budget: Duration) -> Deadline {
        Deadline::starting_at(Instant::now(), budget)
    }

    /// A deadline whose clock started at `start` (e.g. when the request
    /// was *accepted*, before it waited in a queue).
    pub(crate) fn starting_at(start: Instant, budget: Duration) -> Deadline {
        Deadline { start, budget }
    }

    /// Time consumed since the deadline's start instant.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Budget not yet consumed (zero once expired).
    pub(crate) fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.elapsed())
    }

    /// Whether the budget is exhausted.
    pub(crate) fn expired(&self) -> bool {
        self.elapsed() >= self.budget
    }

    /// `Err(`[`ServiceError::Timeout`]`)` once the budget is exhausted.
    pub(crate) fn check(&self) -> Result<(), ServiceError> {
        if self.expired() {
            Err(self.timeout_error())
        } else {
            Ok(())
        }
    }

    /// The typed timeout this deadline produces, stamped with the
    /// actual elapsed time.
    pub fn timeout_error(&self) -> ServiceError {
        ServiceError::Timeout {
            elapsed_ms: self.elapsed().as_millis() as u64,
            budget_ms: self.budget.as_millis() as u64,
        }
    }
}

/// Which expansion strategy serves the features: the one place a
/// strategy is chosen. Each variant runs one function of
/// [`crate::expansion`].
///
/// (Not serde-derivable under the offline shim — data-carrying enum
/// variants are unsupported there; the CLI surface uses
/// [`ExpansionStrategy::parse`] instead.)
#[derive(Debug, Clone, PartialEq)]
pub enum ExpansionStrategy {
    /// No expansion: the response carries the linked entities only.
    None,
    /// Link-neighbourhood baseline of the related work
    /// ([`crate::expansion::link_features`]).
    DirectLinks {
        /// Maximum number of features returned.
        max_features: usize,
    },
    /// The paper's prescription: dense cycles with ≈30 % categories
    /// ([`crate::expansion::cycle_features`]).
    Cycles(CycleExpanderConfig),
}

impl Default for ExpansionStrategy {
    fn default() -> Self {
        ExpansionStrategy::Cycles(CycleExpanderConfig::default())
    }
}

impl ExpansionStrategy {
    /// Short name for logs and bench records.
    pub fn name(&self) -> &'static str {
        match self {
            ExpansionStrategy::None => "none",
            ExpansionStrategy::DirectLinks { .. } => "direct-links",
            ExpansionStrategy::Cycles(_) => "cycles",
        }
    }

    /// Parse a CLI strategy name (`cycles`, `links`, `none`). The link
    /// strategy defaults to 10 features.
    pub fn parse(name: &str) -> Option<ExpansionStrategy> {
        match name {
            "none" => Some(ExpansionStrategy::None),
            "links" | "direct-links" => Some(ExpansionStrategy::DirectLinks { max_features: 10 }),
            "cycles" => Some(ExpansionStrategy::Cycles(CycleExpanderConfig::default())),
            _ => None,
        }
    }

    /// Run the selected strategy's function.
    fn features(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId> {
        match self {
            ExpansionStrategy::None => Vec::new(),
            ExpansionStrategy::DirectLinks { max_features } => {
                link_features(kb, query_articles, *max_features)
            }
            ExpansionStrategy::Cycles(config) => cycle_features(kb, config, query_articles),
        }
    }
}

/// One ad-hoc expansion request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpansionRequest {
    /// The free-text query (the paper's `q.k`).
    pub text: String,
    /// Cap on returned features; combined with the builder's cap the
    /// *lower* bound wins (a request can tighten the server's cap,
    /// never raise it). `None` uses the builder's cap alone, which
    /// itself defaults to the strategy's own limit.
    pub(crate) max_features: Option<usize>,
    /// Retrieve this many documents with the expanded query; `None`
    /// falls back to the builder's default (off unless configured).
    pub(crate) top_k: Option<usize>,
}

impl ExpansionRequest {
    /// Request with the builder's defaults for every knob.
    pub fn new(text: impl Into<String>) -> ExpansionRequest {
        ExpansionRequest {
            text: text.into(),
            max_features: None,
            top_k: None,
        }
    }

    /// Cap the number of expansion features for this request.
    pub fn with_max_features(mut self, max: usize) -> ExpansionRequest {
        self.max_features = Some(max);
        self
    }

    /// Also retrieve the top `k` documents with the expanded query.
    pub fn with_retrieval(mut self, k: usize) -> ExpansionRequest {
        self.top_k = Some(k);
        self
    }
}

/// One resolved article in a response: id plus its (main) title.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpansionTerm {
    /// The article.
    pub article: ArticleId,
    /// Its title — the text actually added to the expanded query.
    pub title: String,
}

/// The served expansion for one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpansionResponse {
    /// The query text as served (trimmed).
    pub query: String,
    /// L(q.k): the entities linked from the query text.
    pub entities: Vec<ExpansionTerm>,
    /// The expansion features, in rank order.
    pub features: Vec<ExpansionTerm>,
    /// The INDRI query over entity + feature titles (`#combine` of
    /// exact `#1` phrases — what the paper feeds the engine).
    pub expanded_query: String,
    /// Retrieval results (empty unless the request asked for them).
    pub hits: Vec<SearchHit>,
}

/// Knobs for a [`QueryExpander`]: expansion strategy, feature caps,
/// retrieval defaults, response cache.
#[derive(Debug, Clone, Default)]
pub struct QueryExpanderBuilder {
    strategy: ExpansionStrategy,
    max_features: Option<usize>,
    default_top_k: Option<usize>,
    cache: Option<Arc<ExpansionCache>>,
}

impl QueryExpanderBuilder {
    /// Select the expansion strategy (default: the paper's cycle-based
    /// expander).
    pub fn strategy(mut self, strategy: ExpansionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Cap features for every request (requests can still lower it).
    pub fn max_features(mut self, max: usize) -> Self {
        self.max_features = Some(max);
        self
    }

    /// Retrieve this many documents per request by default (requests
    /// can override; default: no retrieval).
    pub fn retrieve_top(mut self, k: usize) -> Self {
        self.default_top_k = Some(k);
        self
    }

    /// Memoize complete responses in `cache` (shared via `Arc`, so a
    /// server can also read its hit statistics; default: no cache).
    /// Safe because expansion is a pure function of the read-only world
    /// and the effective request knobs — all of which are in the cache
    /// key.
    pub fn expansion_cache(mut self, cache: Arc<ExpansionCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Build the expander over a borrowed world. Constructs the entity
    /// linker's title dictionary — the expensive part — exactly once.
    /// Takes any [`RetrievalBackend`] — a `&SearchEngine`, a
    /// `&ShardedEngine`, or an `&AnyEngine` all coerce.
    pub fn build<'w>(
        &self,
        kb: &'w KnowledgeBase,
        engine: &'w dyn RetrievalBackend,
    ) -> QueryExpander<'w> {
        self.assemble(kb, Some(Source::Fixed(engine)))
    }

    /// [`Self::build`] over a generation slot: each request pins the
    /// slot's current generation once, so a concurrent
    /// [`ReloadableEngine::swap`] never splits a request across two.
    pub fn build_live<'w>(
        &self,
        kb: &'w KnowledgeBase,
        slot: &'w ReloadableEngine,
    ) -> QueryExpander<'w> {
        self.assemble(kb, Some(Source::Live(slot)))
    }

    /// [`Self::build`] without a search engine: expansion only, any
    /// retrieval request fails with [`ServiceError::NoEngine`].
    pub fn build_offline<'w>(&self, kb: &'w KnowledgeBase) -> QueryExpander<'w> {
        self.assemble(kb, None)
    }

    fn assemble<'w>(&self, kb: &'w KnowledgeBase, source: Option<Source<'w>>) -> QueryExpander<'w> {
        QueryExpander {
            kb,
            source,
            linker: EntityLinker::new(kb),
            strategy: self.strategy.clone(),
            max_features: self.max_features,
            default_top_k: self.default_top_k,
            cache: self.cache.clone(),
        }
    }
}

/// Where an expander's engine comes from: a borrowed backend (epoch 0,
/// never swapped) or a generation slot.
#[derive(Clone, Copy)]
enum Source<'w> {
    Fixed(&'w dyn RetrievalBackend),
    Live(&'w ReloadableEngine),
}

/// The engine one request answers from, pinned at its start.
enum Pinned<'w> {
    Fixed(&'w dyn RetrievalBackend),
    Live(Arc<EngineGeneration>),
}

impl Pinned<'_> {
    fn engine(&self) -> &dyn RetrievalBackend {
        match self {
            Pinned::Fixed(engine) => *engine,
            Pinned::Live(generation) => generation.engine.backend(),
        }
    }
}

/// The per-query serving facade: entity linking → expansion → INDRI
/// query → optional retrieval, over a world built once.
///
/// Construction is the expensive step (the linker's title dictionary);
/// [`QueryExpander::expand`] is allocation-light and lock-free except
/// for the engine's memoizing phrase cache and the one slot snapshot a
/// request over a slot takes, so one expander can serve many threads.
///
/// ```
/// use querygraph_core::config::ExperimentConfig;
/// use querygraph_core::service::{ExpansionRequest, QueryExpander, ServingWorld};
///
/// let world = ServingWorld::open(&ExperimentConfig::tiny(), None);
/// let expander = QueryExpander::builder().build(&world.wiki.kb, &world.engine);
/// let title = world.wiki.kb.title(world.wiki.kb.main_articles().next().unwrap());
/// // Expand and also retrieve the top 5 documents.
/// let response = expander
///     .expand(&ExpansionRequest::new(title).with_retrieval(5))
///     .unwrap();
/// assert!(!response.hits.is_empty());
/// ```
pub struct QueryExpander<'w> {
    kb: &'w KnowledgeBase,
    source: Option<Source<'w>>,
    linker: EntityLinker<'w>,
    strategy: ExpansionStrategy,
    max_features: Option<usize>,
    default_top_k: Option<usize>,
    cache: Option<Arc<ExpansionCache>>,
}

impl<'w> QueryExpander<'w> {
    /// A facade with the default knobs (cycle strategy, no default
    /// retrieval). Use [`QueryExpander::builder`] for more.
    pub(crate) fn new(
        kb: &'w KnowledgeBase,
        engine: &'w dyn RetrievalBackend,
    ) -> QueryExpander<'w> {
        QueryExpanderBuilder::default().build(kb, engine)
    }

    /// Start a [`QueryExpanderBuilder`].
    pub fn builder() -> QueryExpanderBuilder {
        QueryExpanderBuilder::default()
    }

    /// The entity linker (title dictionary built at construction). The
    /// reproduction pipeline links documents through this.
    pub fn linker(&self) -> &EntityLinker<'w> {
        &self.linker
    }

    /// Serve one request end to end.
    ///
    /// Pipeline: trim + entity-link the text (typed errors for empty or
    /// unlinkable queries), run the expansion strategy, assemble the
    /// INDRI `#combine`-of-phrases query, and — when the request (or
    /// builder) asks — retrieve the top-k documents.
    ///
    /// With an [`ExpansionCache`] configured, the whole pipeline is
    /// memoized by served text + *effective* knobs: repeats cost one
    /// probe and a clone, concurrent identical misses compute once
    /// (single-flight), and failures are never cached. The cached
    /// response is byte-for-byte what recomputing would return.
    pub fn expand(&self, request: &ExpansionRequest) -> Result<ExpansionResponse, ServiceError> {
        // One generation per request: the cache key, the search and any
        // shard error all come from this pin.
        let pinned = self.source.map(|source| match source {
            Source::Fixed(engine) => Pinned::Fixed(engine),
            Source::Live(slot) => Pinned::Live(slot.snapshot()),
        });
        let engine = pinned.as_ref().map(Pinned::engine);
        let Some(cache) = &self.cache else {
            return self.expand_uncached(request, engine);
        };
        let text = request.text.trim();
        if text.is_empty() {
            // Trivially malformed requests never touch (or count
            // against) the cache.
            return Err(ServiceError::EmptyQuery);
        }
        // Two requests with the same *effective* knobs get identical
        // responses, so they share an entry even if their raw knobs
        // differ (e.g. a request cap above the builder cap).
        let max_features = match (request.max_features, self.max_features) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let key = CacheKey {
            query: text.to_string(),
            max_features,
            // None and Some(0) both mean "no retrieval" — same response.
            top_k: request.top_k.or(self.default_top_k).unwrap_or(0),
            // A slot's generations have distinct epochs, so an entry
            // computed on a replaced generation can never answer a
            // post-swap request (fixed and offline expanders pin epoch
            // 0 — their engine never changes).
            epoch: match &pinned {
                Some(Pinned::Live(generation)) => generation.epoch,
                _ => 0,
            },
        };
        cache.get_or_compute(&key, || self.expand_uncached(request, engine))
    }

    /// Map a query-time scatter failure to the serving error space:
    /// a failing shard becomes [`ServiceError::ArtifactShard`] naming
    /// the shard and (for remote backends) its socket endpoint as the
    /// "path" — asked of the engine that failed, never a newer one.
    fn search_failure(engine: &dyn RetrievalBackend, error: ShardedError) -> ServiceError {
        let ShardedError::Shard { shard, source } = error;
        ServiceError::ArtifactShard {
            path: PathBuf::from(
                engine
                    .shard_endpoint(shard)
                    .unwrap_or_else(|| format!("shard{shard}")),
            ),
            shard,
            source,
        }
    }

    fn expand_uncached(
        &self,
        request: &ExpansionRequest,
        engine: Option<&dyn RetrievalBackend>,
    ) -> Result<ExpansionResponse, ServiceError> {
        let text = request.text.trim();
        if text.is_empty() {
            return Err(ServiceError::EmptyQuery);
        }
        let entities = self.linker.link_articles(text);
        if entities.is_empty() {
            return Err(ServiceError::NoLinkedEntities {
                query: text.to_string(),
            });
        }

        let mut features = self.strategy.features(self.kb, &entities);
        // The builder's cap is a server-side resource bound: a request
        // can lower it, never raise it.
        match (request.max_features, self.max_features) {
            (Some(a), Some(b)) => features.truncate(a.min(b)),
            (Some(a), None) => features.truncate(a),
            (None, Some(b)) => features.truncate(b),
            (None, None) => {}
        }

        let titles = expanded_titles(self.kb, &entities, &features);
        let query_node = QueryNode::phrases_of_titles(&titles);
        let expanded_query = query_node.to_string();

        let hits = match request.top_k.or(self.default_top_k) {
            None | Some(0) => Vec::new(),
            Some(k) => {
                let engine = engine.ok_or(ServiceError::NoEngine)?;
                // Block-max pruned top-k, bit-equal to exact scoring.
                // The fallible form so a remote shard process dying
                // mid-query surfaces as a typed 500 naming the shard
                // and its endpoint, not as silently empty results.
                engine
                    .try_search_with(&query_node, k, SearchMode::Pruned)
                    .map_err(|e| Self::search_failure(engine, e))?
            }
        };

        Ok(ExpansionResponse {
            query: text.to_string(),
            entities: self.terms(&entities),
            features: self.terms(&features),
            expanded_query,
            hits,
        })
    }

    /// [`QueryExpander::expand`] under a per-request [`Deadline`].
    ///
    /// The deadline is honored on **every** serving path, cache hits
    /// included: a request that exhausted its budget waiting for a
    /// worker is refused at admission with [`ServiceError::Timeout`]
    /// before it can touch the cache (so timed-out requests never
    /// inflate hit statistics), and an answer — computed *or* served
    /// from the expansion cache — that lands after the budget ran out
    /// is converted to the same typed timeout. A late answer is a
    /// wrong answer to a deadlined client; the caller's latency
    /// accounting sees the timeout, not a silently slow success.
    pub fn expand_deadlined(
        &self,
        request: &ExpansionRequest,
        deadline: Deadline,
    ) -> Result<ExpansionResponse, ServiceError> {
        deadline.check()?;
        let response = self.expand(request)?;
        deadline.check()?;
        Ok(response)
    }

    /// [`QueryExpander::expand`] for bare text with default knobs.
    pub fn expand_text(&self, text: &str) -> Result<ExpansionResponse, ServiceError> {
        self.expand(&ExpansionRequest::new(text))
    }

    fn terms(&self, articles: &[ArticleId]) -> Vec<ExpansionTerm> {
        articles
            .iter()
            .map(|&article| ExpansionTerm {
                article,
                title: self.kb.title(article).to_string(),
            })
            .collect()
    }
}

/// The owned world a long-lived server holds: knowledge base + engine,
/// without the reproduction pipeline's corpus, ground truths, or
/// report machinery.
///
/// The synthetic knowledge base is always regenerated (cheap, fully
/// determined by the configuration); the index either loads strictly
/// from its cache store ([`ServingWorld::load`]) or falls back to
/// build-and-persist ([`ServingWorld::open`]).
pub struct ServingWorld {
    /// The knowledge base (and topic inventory) queries link against.
    pub wiki: SynthWiki,
    /// The retrieval backend over the corpus's linking text — the plain
    /// engine at one shard, sharded per the options it was opened with.
    pub engine: AnyEngine,
    /// Build-vs-load wall-clock breakdown.
    pub stats: crate::cache::BuildStats,
    /// The generation of its index cache's segment store `engine` was
    /// loaded from or published as — `None` for an in-memory world (or
    /// a failed publish). A server follows that store from this
    /// generation on.
    pub store: Option<Manifest>,
}

impl ServingWorld {
    /// Strictly load the world from `cache_dir`: the fingerprint-keyed
    /// store must exist and decode, or a typed [`ServiceError`]
    /// explains why. The corpus is *not* regenerated on this path
    /// (serving does not need it), so the doc-count staleness
    /// cross-check of the lenient path does not apply; the manifest's
    /// and segments' checksums and embedded fingerprints still do.
    pub fn load(
        config: &ExperimentConfig,
        cache_dir: &std::path::Path,
    ) -> Result<ServingWorld, ServiceError> {
        Self::load_with_options(
            config,
            cache_dir,
            LmParams::default(),
            &WorldOptions::default(),
        )
    }

    /// [`ServingWorld::load`] with explicit Dirichlet smoothing and
    /// [`WorldOptions`] through the one strict loader,
    /// [`cache::load_store_engine`]: `shards` picks the `shards`-segment
    /// store ([`cache::store_dir`]: manifest + segments, segments in
    /// parallel, typed per-shard errors).
    pub fn load_with_options(
        config: &ExperimentConfig,
        cache_dir: &std::path::Path,
        lm: LmParams,
        options: &WorldOptions,
    ) -> Result<ServingWorld, ServiceError> {
        let t0 = Instant::now();
        let wiki = generate(&config.wiki);
        let world_seconds = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let (engine, store, shard_load_seconds) =
            cache::load_store_engine(config, cache_dir, options.shard_count(), None, lm)?;
        let stats = crate::cache::BuildStats {
            world_seconds,
            index_build_seconds: 0.0,
            index_write_seconds: 0.0,
            index_load_seconds: t.elapsed().as_secs_f64(),
            index_source: crate::cache::IndexSource::Loaded,
            shard_count: options.shard_count(),
            shard_load_seconds,
        };
        Ok(ServingWorld {
            wiki,
            engine,
            stats,
            store: Some(store),
        })
    }

    /// Load the world from `cache_dir` when its store is valid;
    /// otherwise build the index (regenerating the corpus) and publish
    /// it for the next run. Never fails: a cache can lose time, not
    /// correctness.
    pub fn open(config: &ExperimentConfig, cache_dir: Option<&std::path::Path>) -> ServingWorld {
        Self::open_with_options(
            config,
            cache_dir,
            LmParams::default(),
            &WorldOptions::default(),
        )
        .0
    }

    /// [`ServingWorld::open`] with explicit Dirichlet smoothing and
    /// [`WorldOptions`] — the `--shards N` knob of the
    /// `qgx` server — also returning the synthetic corpus the open path
    /// regenerates anyway (for the staleness cross-check and cache-miss
    /// indexing), so a caller that serves the generated queries need
    /// not generate it twice. Expansion (and retrieval) results are
    /// byte-identical at any shard count.
    pub fn open_with_options(
        config: &ExperimentConfig,
        cache_dir: Option<&std::path::Path>,
        lm: LmParams,
        options: &WorldOptions,
    ) -> (ServingWorld, querygraph_corpus::synth::SynthCorpus) {
        let (wiki, corpus, engine, stats, store) =
            cache::build_world(config, cache_dir, lm, options);
        let world = ServingWorld {
            wiki,
            engine,
            stats,
            store,
        };
        (world, corpus)
    }

    /// An expander with default knobs over this world.
    pub fn expander(&self) -> QueryExpander<'_> {
        QueryExpander::new(&self.wiki.kb, &self.engine)
    }

    /// An expander with explicit knobs over this world.
    pub fn expander_from(&self, builder: &QueryExpanderBuilder) -> QueryExpander<'_> {
        builder.build(&self.wiki.kb, &self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::parallel_map;
    use querygraph_wiki::fixture::venice_mini_wiki;

    fn venice_expander(kb: &KnowledgeBase) -> QueryExpander<'_> {
        QueryExpander::builder().build_offline(kb)
    }

    #[test]
    fn expands_the_paper_query() {
        let kb = venice_mini_wiki();
        let ex = venice_expander(&kb);
        let r = ex.expand_text("gondola in venice").expect("expands");
        // L(q.k) is sorted by article id, like the pipeline's lqk.
        let mut entity_titles: Vec<&str> = r.entities.iter().map(|t| t.title.as_str()).collect();
        entity_titles.sort_unstable();
        assert_eq!(entity_titles, ["Gondola", "Venice"]);
        assert!(!r.features.is_empty(), "venice query grows features");
        assert!(r.features.iter().any(|f| f.title == "Grand Canal (Venice)"));
        assert!(r.expanded_query.starts_with("#combine("));
        assert!(r.expanded_query.contains("#1(gondola)"));
        assert!(r.hits.is_empty(), "no retrieval unless requested");
    }

    #[test]
    fn empty_query_is_typed() {
        let kb = venice_mini_wiki();
        let ex = venice_expander(&kb);
        assert_eq!(ex.expand_text("   ").unwrap_err(), ServiceError::EmptyQuery);
        assert_eq!(ex.expand_text("").unwrap_err(), ServiceError::EmptyQuery);
    }

    #[test]
    fn unlinkable_query_is_typed() {
        let kb = venice_mini_wiki();
        let ex = venice_expander(&kb);
        let err = ex.expand_text("completely unrelated words").unwrap_err();
        assert_eq!(
            err,
            ServiceError::NoLinkedEntities {
                query: "completely unrelated words".to_string()
            }
        );
        assert!(err.to_string().contains("unrelated"));
    }

    #[test]
    fn retrieval_without_engine_is_typed() {
        let kb = venice_mini_wiki();
        let ex = venice_expander(&kb);
        let err = ex
            .expand(&ExpansionRequest::new("venice").with_retrieval(5))
            .unwrap_err();
        assert_eq!(err, ServiceError::NoEngine);
        // top_k = 0 means "no retrieval" and must not need an engine.
        let r = ex
            .expand(&ExpansionRequest {
                text: "venice".into(),
                max_features: None,
                top_k: Some(0),
            })
            .expect("k=0 is expansion-only");
        assert!(r.hits.is_empty());
    }

    #[test]
    fn request_feature_cap_can_lower_but_not_raise() {
        let kb = venice_mini_wiki();
        let ex = QueryExpander::builder().max_features(2).build_offline(&kb);
        // A request can tighten the server's cap …
        let lowered = ex
            .expand(&ExpansionRequest::new("gondola in venice").with_max_features(1))
            .expect("expands");
        assert_eq!(lowered.features.len(), 1);
        // … but never raise it past the builder's resource bound.
        let raised = ex
            .expand(&ExpansionRequest::new("gondola in venice").with_max_features(1000))
            .expect("expands");
        let capped = ex
            .expand(&ExpansionRequest::new("gondola in venice"))
            .expect("expands");
        assert_eq!(raised.features.len(), capped.features.len());
        assert!(raised.features.len() <= 2);
    }

    #[test]
    fn strategies_differ() {
        let kb = venice_mini_wiki();
        let cycles = venice_expander(&kb);
        let none = QueryExpander::builder()
            .strategy(ExpansionStrategy::None)
            .build_offline(&kb);
        let a = cycles.expand_text("gondola in venice").unwrap();
        let b = none.expand_text("gondola in venice").unwrap();
        assert!(!a.features.is_empty());
        assert!(b.features.is_empty());
        assert_eq!(a.entities, b.entities, "linking is strategy-independent");
    }

    #[test]
    fn strategy_names_parse() {
        for (name, parsed) in [
            ("cycles", "cycles"),
            ("links", "direct-links"),
            ("none", "none"),
        ] {
            assert_eq!(ExpansionStrategy::parse(name).unwrap().name(), parsed);
        }
        // No synthetic document uses a redirect title, so no strategy
        // serves them.
        assert_eq!(ExpansionStrategy::parse("redirects"), None);
        assert_eq!(ExpansionStrategy::parse("bogus"), None);
    }

    #[test]
    fn batch_matches_sequential_any_thread_count() {
        let kb = venice_mini_wiki();
        let ex = venice_expander(&kb);
        let requests: Vec<ExpansionRequest> = [
            "gondola in venice",
            "the bridge of sighs",
            "",
            "unrelated words entirely",
            "grand canal venice",
        ]
        .iter()
        .map(|t| ExpansionRequest::new(*t))
        .collect();
        let sequential: Vec<_> = requests.iter().map(|r| ex.expand(r)).collect();
        for threads in [1, 2, 8] {
            let batch = parallel_map(requests.len(), threads, |i| ex.expand(&requests[i]));
            assert_eq!(batch, sequential, "threads={threads}");
        }
    }

    #[test]
    fn response_serializes_round_trip() {
        let kb = venice_mini_wiki();
        let ex = venice_expander(&kb);
        let r = ex.expand_text("gondola in venice").unwrap();
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(json.contains("expanded_query"));
        let back: ExpansionResponse = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn serving_world_expands_with_retrieval() {
        let world = ServingWorld::open(&ExperimentConfig::tiny(), None);
        assert_eq!(world.stats.index_source, crate::cache::IndexSource::Built);
        let expander = world.expander();
        let title = world
            .wiki
            .kb
            .title(world.wiki.kb.main_articles().next().unwrap());
        let r = expander
            .expand(&ExpansionRequest::new(title).with_retrieval(5))
            .expect("tiny-world title expands");
        assert!(!r.entities.is_empty());
        assert!(!r.hits.is_empty(), "a topic title retrieves documents");
        for w in r.hits.windows(2) {
            assert!(w[0].score >= w[1].score, "hits sorted by score");
        }
    }

    #[test]
    fn serving_world_load_is_strict() {
        let dir =
            std::env::temp_dir().join(format!("querygraph-svc-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let config = ExperimentConfig::tiny();
        let store = crate::cache::store_dir(&dir, &config, 1);
        std::fs::remove_dir_all(&store).ok();
        match ServingWorld::load(&config, &dir) {
            Err(ServiceError::ArtifactMissing { path }) => {
                assert_eq!(path, querygraph_retrieval::segstore::manifest_path(&store));
            }
            other => panic!("expected ArtifactMissing, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serving_world_open_persists_then_load_agrees() {
        let dir =
            std::env::temp_dir().join(format!("querygraph-svc-roundtrip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let config = ExperimentConfig::tiny();
        std::fs::remove_dir_all(crate::cache::store_dir(&dir, &config, 1)).ok();

        let built = ServingWorld::open(&config, Some(&dir));
        assert_eq!(built.stats.index_source, crate::cache::IndexSource::Built);
        let loaded = ServingWorld::load(&config, &dir).expect("store persisted");
        assert_eq!(loaded.stats.index_source, crate::cache::IndexSource::Loaded);
        // Both serve the one generation the open published.
        assert!(built.store.is_some());
        assert_eq!(built.store, loaded.store);

        let title = built
            .wiki
            .kb
            .title(built.wiki.kb.main_articles().next().unwrap());
        let request = ExpansionRequest::new(title).with_retrieval(10);
        let a = built.expander().expand(&request).expect("built world");
        let b = loaded.expander().expand(&request).expect("loaded world");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "loaded-index responses must be byte-identical to built-index responses"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_expander_matches_uncached_and_reports_hits() {
        let kb = venice_mini_wiki();
        let uncached = venice_expander(&kb);
        let cache = Arc::new(ExpansionCache::new(64));
        let cached = QueryExpander::builder()
            .expansion_cache(cache.clone())
            .build_offline(&kb);
        let queries = [
            "gondola in venice",
            "the bridge of sighs",
            "grand canal venice",
        ];
        // Two passes: the first fills the cache, the second must hit —
        // and every response (cold or warm) must equal the uncached one.
        for pass in 0..2 {
            for q in queries {
                let a = cached.expand_text(q).expect("expands");
                let b = uncached.expand_text(q).expect("expands");
                assert_eq!(a, b, "pass {pass}, query {q:?}");
            }
        }
        assert_eq!(cache.lookups(), 6);
        assert_eq!(cache.hits(), 3, "second pass hits every query");
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 3);
        assert!(cached.cache.is_some() && uncached.cache.is_none());
    }

    #[test]
    fn cache_never_stores_failures_and_splits_by_effective_knobs() {
        let kb = venice_mini_wiki();
        let cache = Arc::new(ExpansionCache::new(64));
        let ex = QueryExpander::builder()
            .max_features(2)
            .expansion_cache(cache.clone())
            .build_offline(&kb);
        // Typed failures pass through uncached: empty queries never
        // reach the cache, unlinkable ones count a lookup but store
        // nothing (a retry recomputes).
        assert_eq!(ex.expand_text("   ").unwrap_err(), ServiceError::EmptyQuery);
        for _ in 0..2 {
            assert!(matches!(
                ex.expand_text("completely unrelated words").unwrap_err(),
                ServiceError::NoLinkedEntities { .. }
            ));
        }
        assert_eq!(cache.lookups(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 0, "failures must not occupy capacity");
        // A request cap above the builder cap is the same effective
        // request — one entry; a lower cap is a different one.
        let q = "gondola in venice";
        let base = ex.expand(&ExpansionRequest::new(q)).unwrap();
        let raised = ex
            .expand(&ExpansionRequest::new(q).with_max_features(1000))
            .unwrap();
        assert_eq!(raised, base, "ineffective caps share the entry");
        assert_eq!(cache.len(), 1);
        let lowered = ex
            .expand(&ExpansionRequest::new(q).with_max_features(1))
            .unwrap();
        assert_eq!(lowered.features.len(), 1);
        assert_eq!(cache.len(), 2, "a tighter cap is its own entry");
    }

    #[test]
    fn cached_batch_matches_uncached_sequential_any_thread_count() {
        let kb = venice_mini_wiki();
        let uncached = venice_expander(&kb);
        let cache = Arc::new(ExpansionCache::new(64));
        let cached = QueryExpander::builder()
            .expansion_cache(cache.clone())
            .build_offline(&kb);
        // A head-heavy batch: repeats exercise hits and the
        // single-flight path under the real work-stealing runner.
        let requests: Vec<ExpansionRequest> = [
            "gondola in venice",
            "grand canal venice",
            "gondola in venice",
            "the bridge of sighs",
            "gondola in venice",
            "grand canal venice",
        ]
        .iter()
        .map(|t| ExpansionRequest::new(*t))
        .collect();
        let expected: Vec<_> = requests.iter().map(|r| uncached.expand(r)).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                parallel_map(requests.len(), threads, |i| cached.expand(&requests[i])),
                expected,
                "threads={threads}"
            );
        }
        assert_eq!(cache.lookups(), 18);
        assert!(cache.hits() >= 12, "repeats across passes must hit");
        assert_eq!(cache.len(), 3);
    }

    /// One sample per variant — the exhaustiveness anchor for the
    /// wire-stability tests below. The `match` inside forces a compile
    /// error when a variant is added without extending the samples.
    fn every_variant() -> Vec<ServiceError> {
        let samples = vec![
            ServiceError::EmptyQuery,
            ServiceError::NoLinkedEntities {
                query: "gondola in \"venice\"".to_string(),
            },
            ServiceError::NoEngine,
            ServiceError::ArtifactMissing {
                path: PathBuf::from("/cache/a.qgidx"),
            },
            ServiceError::ArtifactLoad {
                path: PathBuf::from("/cache/a.qgidx"),
                source: OndiskError::Io("disk on fire".to_string()),
            },
            ServiceError::ArtifactShard {
                path: PathBuf::from("/cache/a.shard2.qgidx"),
                shard: 2,
                source: OndiskError::Io("segment truncated".to_string()),
            },
            ServiceError::ArtifactFingerprint {
                path: PathBuf::from("/cache/a.qgidx"),
                expected: 0xDEAD_BEEF,
                found: 0xFEED_FACE,
            },
            ServiceError::ArtifactStale {
                path: PathBuf::from("/cache/a.qgidx"),
                indexed_docs: 10,
                corpus_docs: 12,
            },
            ServiceError::Timeout {
                elapsed_ms: 2500,
                budget_ms: 2000,
            },
            ServiceError::Overloaded { queue_depth: 64 },
        ];
        for sample in &samples {
            // Exhaustiveness tripwire: extend `samples` when this match
            // gains an arm.
            match sample {
                ServiceError::EmptyQuery
                | ServiceError::NoLinkedEntities { .. }
                | ServiceError::NoEngine
                | ServiceError::ArtifactMissing { .. }
                | ServiceError::ArtifactLoad { .. }
                | ServiceError::ArtifactShard { .. }
                | ServiceError::ArtifactFingerprint { .. }
                | ServiceError::ArtifactStale { .. }
                | ServiceError::Timeout { .. }
                | ServiceError::Overloaded { .. } => {}
            }
        }
        samples
    }

    #[test]
    fn error_codes_are_stable_and_exhaustive() {
        let samples = every_variant();
        assert_eq!(samples.len(), ServiceError::CODES.len());
        for (sample, &code) in samples.iter().zip(ServiceError::CODES.iter()) {
            assert_eq!(sample.code(), code, "CODES order must match variants");
        }
        // The exact strings are the wire contract — changing one breaks
        // every deployed client, so they are pinned verbatim.
        assert_eq!(
            ServiceError::CODES,
            [
                "empty_query",
                "no_linked_entities",
                "no_engine",
                "artifact_missing",
                "artifact_load",
                "artifact_shard",
                "artifact_fingerprint",
                "artifact_stale",
                "timeout",
                "overloaded",
            ]
        );
        // Only shed/timed-out requests invite a retry, and the two
        // back-off hints deliberately differ: 408 retries fast, 503
        // backs off harder (the queue is full).
        for sample in &samples {
            let retry = sample.retry_after_seconds();
            match sample {
                ServiceError::Timeout { .. } => assert_eq!(retry, Some(1)),
                ServiceError::Overloaded { .. } => assert_eq!(retry, Some(2)),
                _ => assert_eq!(retry, None),
            }
        }
    }

    #[test]
    fn every_variant_displays() {
        for sample in every_variant() {
            // Display must be non-empty and mention the interesting
            // payload (spot-checked per variant below).
            assert!(!sample.to_string().is_empty());
        }
        // Display spot checks: the operator-facing payload is in the text.
        assert!(ServiceError::Timeout {
            elapsed_ms: 2500,
            budget_ms: 2000
        }
        .to_string()
        .contains("2500 ms"));
        assert!(ServiceError::Overloaded { queue_depth: 64 }
            .to_string()
            .contains("64"));
    }

    #[test]
    fn deadline_expires_and_reports_elapsed_time() {
        let generous = Deadline::after(Duration::from_secs(3600));
        assert!(!generous.expired());
        assert!(generous.check().is_ok());
        assert!(generous.remaining() > Duration::from_secs(3000));
        let spent = Deadline::starting_at(
            Instant::now() - Duration::from_millis(50),
            Duration::from_millis(10),
        );
        assert!(spent.expired());
        assert_eq!(spent.remaining(), Duration::ZERO);
        match spent.check().unwrap_err() {
            ServiceError::Timeout {
                elapsed_ms,
                budget_ms,
            } => {
                assert!(elapsed_ms >= 50, "elapsed {elapsed_ms}");
                assert_eq!(budget_ms, 10);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_refuses_before_and_cache_hits_stay_deadlined() {
        let kb = venice_mini_wiki();
        let cache = Arc::new(ExpansionCache::new(16));
        let ex = QueryExpander::builder()
            .expansion_cache(cache.clone())
            .build_offline(&kb);
        let request = ExpansionRequest::new("gondola in venice");
        // Warm the cache.
        let warm = ex.expand(&request).expect("expands");
        assert_eq!(cache.len(), 1);
        let lookups_after_warm = cache.lookups();
        // A request that spent its whole budget queued is refused at
        // admission — even though the cache holds its answer — and the
        // refusal never counts as a cache lookup or hit.
        let expired = Deadline::starting_at(
            Instant::now() - Duration::from_millis(50),
            Duration::from_millis(1),
        );
        assert!(matches!(
            ex.expand_deadlined(&request, expired).unwrap_err(),
            ServiceError::Timeout { .. }
        ));
        assert_eq!(
            cache.lookups(),
            lookups_after_warm,
            "timed-out admission must not touch the cache"
        );
        // Under a live deadline the cache hit is served — byte-identical
        // to the uncached response — and counted.
        let live = Deadline::after(Duration::from_secs(3600));
        let hit = ex.expand_deadlined(&request, live).expect("hit serves");
        assert_eq!(hit, warm);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn live_swap_invalidates_cached_expansions() {
        use querygraph_retrieval::backend::ReloadableEngine;
        // Two worlds over the same knowledge base whose retrieval
        // answers differ (extra noise docs shift collection stats and
        // scores), served through one reloadable engine.
        let config_a = ExperimentConfig::tiny();
        let mut config_b = config_a.clone();
        config_b.corpus.noise_docs += 7;
        let world_a = ServingWorld::open(&config_a, None);
        let world_b = ServingWorld::open(&config_b, None);

        let reloadable = ReloadableEngine::new(world_a.engine, 1);
        let cache = Arc::new(ExpansionCache::new(64));
        let cached = QueryExpander::builder()
            .retrieve_top(10)
            .expansion_cache(cache.clone())
            .build_live(&world_a.wiki.kb, &reloadable);

        let title = world_a
            .wiki
            .kb
            .title(world_a.wiki.kb.main_articles().next().unwrap());
        let request = ExpansionRequest::new(title);

        assert_eq!(reloadable.epoch(), 1);
        let before = cached.expand(&request).expect("generation 1 serves");
        assert_eq!(cached.expand(&request).unwrap(), before);
        assert_eq!(cache.hits(), 1, "same generation repeats hit");

        // The live swap: generation 2 replaces the engine between
        // queries; the very next expansion must be computed against it,
        // never served from the generation-1 cache entry.
        reloadable.swap(world_b.engine, 2);
        assert_eq!(reloadable.epoch(), 2);
        let after = cached.expand(&request).expect("generation 2 serves");
        let expected = QueryExpander::builder()
            .retrieve_top(10)
            .build_live(&world_b.wiki.kb, &reloadable)
            .expand(&request)
            .expect("uncached generation 2");
        assert_eq!(after, expected, "post-swap answers come from the new index");
        assert_ne!(
            before.hits, after.hits,
            "the two generations must be distinguishable for this test to mean anything"
        );
        assert_eq!(
            cache.hits(),
            1,
            "the swap forces a recompute, not a stale hit"
        );
        // The new generation's entry memoizes normally.
        assert_eq!(cached.expand(&request).unwrap(), after);
        assert_eq!(cache.hits(), 2);
    }

    /// A loopback fleet: one `ShardServer` thread per document, shut
    /// down and joined on drop.
    struct Fleet {
        addrs: Vec<String>,
        shutdowns: Vec<Arc<std::sync::atomic::AtomicBool>>,
        handles: Vec<std::thread::JoinHandle<()>>,
    }

    const FLEET_FINGERPRINT: u64 = 0x5EED;

    impl Fleet {
        fn boot(docs: &[&str]) -> Fleet {
            use querygraph_retrieval::engine::SearchEngine;
            use querygraph_retrieval::index::IndexBuilder;
            use querygraph_retrieval::remote::ShardServer;
            use querygraph_retrieval::segstore::segment_fp;
            let mut fleet = Fleet {
                addrs: Vec::new(),
                shutdowns: Vec::new(),
                handles: Vec::new(),
            };
            for (shard, doc) in docs.iter().enumerate() {
                let mut b = IndexBuilder::new();
                b.add_document(doc);
                let engine = Arc::new(SearchEngine::new(b.build()));
                let fp = segment_fp(FLEET_FINGERPRINT, shard as u64);
                let server =
                    ShardServer::bind("127.0.0.1:0", engine, shard, fp).expect("bind loopback");
                fleet
                    .addrs
                    .push(server.local_addr().expect("bound").to_string());
                fleet.shutdowns.push(server.shutdown_flag());
                let serve = move || server.serve().expect("serve");
                fleet.handles.push(std::thread::spawn(serve));
            }
            fleet
        }
    }

    impl Drop for Fleet {
        fn drop(&mut self) {
            for flag in &self.shutdowns {
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            for handle in self.handles.drain(..) {
                handle.join().expect("shard server thread");
            }
        }
    }

    /// A remote engine over the shard processes at `addrs`.
    fn remote_engine(addrs: &[String]) -> AnyEngine {
        use querygraph_retrieval::remote::RemoteEngine;
        use querygraph_retrieval::segstore::segment_fp;
        let expected: Vec<u64> = (0..addrs.len() as u64)
            .map(|seq| segment_fp(FLEET_FINGERPRINT, seq))
            .collect();
        RemoteEngine::connect_with_fingerprints(addrs, LmParams::default(), &expected)
            .map(AnyEngine::Remote)
            .expect("connect fleet")
    }

    /// A shard failure that straddles a swap names the shard of the
    /// generation the request pinned. A relay in front of fleet A's
    /// shard 1 swaps fleet B into the slot the moment the search reaches
    /// it, then closes every connection, its listener first so the
    /// client's one redial is refused. The error must name the relay —
    /// A's shard 1 — not B's.
    #[test]
    fn a_failure_straddling_a_swap_names_the_pinned_generations_shard() {
        use querygraph_retrieval::backend::ReloadableEngine;
        use querygraph_retrieval::remote::proto::{self, read_frame, write_frame, Op};
        use std::net::{TcpListener, TcpStream};
        let docs = [
            "a gondola on the grand canal of venice",
            "venice gondola rides",
        ];
        let (fleet_a, fleet_b) = (Fleet::boot(&docs), Fleet::boot(&docs));
        let engine_b = remote_engine(&fleet_b.addrs);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let relay_addr = listener.local_addr().expect("relay addr").to_string();
        let upstream_addr = fleet_a.addrs[1].clone();
        let (send_slot, slot_rx) = std::sync::mpsc::channel::<ReloadableEngine>();
        let relay = std::thread::spawn(move || {
            let (mut client, _) = listener.accept().expect("the engine dials shard 1");
            let mut upstream = TcpStream::connect(&upstream_addr).expect("dial A's shard 1");
            while let Ok(frame) = read_frame(&mut client) {
                if frame.op == Op::LeafCfs as u8 || frame.op == Op::ScoreTopK as u8 {
                    let slot = slot_rx.recv().expect("the slot");
                    drop(slot.swap(engine_b, 2));
                    drop(listener);
                    return;
                }
                let forward = |to: &mut TcpStream, f: &proto::Frame| {
                    write_frame(to, f.request_id, f.op, f.status, &f.payload).expect("relay")
                };
                forward(&mut upstream, &frame);
                forward(&mut client, &read_frame(&mut upstream).expect("A's answer"));
            }
        });
        let addrs_a = [fleet_a.addrs[0].clone(), relay_addr.clone()];
        let slot = ReloadableEngine::new(remote_engine(&addrs_a), 1);
        send_slot.send(slot.clone()).expect("relay alive");

        let kb = venice_mini_wiki();
        let expander = QueryExpander::builder().build_live(&kb, &slot);
        let request = ExpansionRequest::new("gondola in venice").with_retrieval(5);
        match expander.expand(&request) {
            Err(ServiceError::ArtifactShard { shard: 1, path, .. }) => {
                assert_eq!(
                    path,
                    PathBuf::from(&relay_addr),
                    "the pinned generation's shard"
                );
            }
            other => panic!("expected a shard-1 failure, got {other:?}"),
        }
        relay.join().expect("relay thread");
        assert_eq!(slot.epoch(), 2, "the swap landed mid-request");
    }

    #[test]
    fn pruned_serving_is_rank_equivalent_to_exact() {
        let world = ServingWorld::open(&ExperimentConfig::tiny(), None);
        let expander = world.expander();
        let bits = |hits: &[SearchHit]| -> Vec<(u32, u64)> {
            hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
        };
        let mut retrieved = 0;
        for article in world.wiki.kb.main_articles().take(8) {
            let title = world.wiki.kb.title(article);
            let request = ExpansionRequest::new(title).with_retrieval(10);
            let served = expander.expand(&request).expect("serves");
            // Serving prunes; the exact kernel is the reference it must
            // equal bit for bit.
            let query = querygraph_retrieval::query_lang::parse(&served.expanded_query)
                .expect("the served query parses");
            let exact = world.engine.search(&query, 10);
            assert_eq!(bits(&served.hits), bits(&exact), "{title:?}");
            retrieved += usize::from(!exact.is_empty());
        }
        assert!(retrieved > 0, "the tiny tier must retrieve something");
    }
}
