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
//!   ([`ExpansionStrategy`]), language-model smoothing, linker synonym
//!   pass, feature caps, default retrieval depth.
//! * [`QueryExpander::expand_batch`] — many requests over the same
//!   deterministic work-stealing runner the reproduction pipeline uses
//!   ([`crate::pipeline::parallel_map`]); output order always matches
//!   input order.
//! * [`ServingWorld`] — the owned world a long-lived server holds:
//!   synthesized knowledge base + engine, loaded either strictly from a
//!   PR-3 on-disk artifact ([`ServingWorld::load`], typed errors) or
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
use crate::expansion::{
    cycle_features, expanded_titles, CycleExpanderConfig, DirectLinkExpander, Expander,
    RedirectExpander,
};
use crate::expcache::{CacheKey, ExpansionCache};
use crate::pipeline::parallel_map;
use querygraph_link::EntityLinker;
use querygraph_retrieval::backend::{AnyEngine, RetrievalBackend};
use querygraph_retrieval::engine::SearchMode;
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::ondisk::OndiskError;
use querygraph_retrieval::query_lang::QueryNode;
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
    /// a variant without extending it (and the serde impls below) is a
    /// compile- or test-time error, never a silent wire change.
    pub const CODES: [&'static str; 10] = [
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
    /// discriminator the HTTP error body, the serde form, and the
    /// `ServeRecord`'s per-code counters all share. Codes never change
    /// meaning; new variants append new codes.
    pub fn code(&self) -> &'static str {
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

// The wire form is a tagged object — `{"code": ..., fields...}` — with
// exactly the fields of the variant. Hand-written because the offline
// serde shim cannot derive data-carrying enums. The wrapped
// [`OndiskError`] of the artifact variants crosses the wire as its
// rendered message and is reconstructed as `OndiskError::Io(message)`:
// artifact errors are operator diagnostics that never need structured
// re-dispatch on the far side of a socket.
impl Serialize for ServiceError {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        // `Io` carries a plain message already — ship it bare so Io
        // sources round-trip exactly; other variants ship rendered.
        fn source_wire(source: &OndiskError) -> String {
            match source {
                OndiskError::Io(message) => message.clone(),
                other => other.to_string(),
            }
        }
        let mut fields: Vec<(String, Value)> =
            vec![("code".to_string(), Value::Str(self.code().to_string()))];
        let mut push = |name: &str, value: Value| fields.push((name.to_string(), value));
        match self {
            ServiceError::EmptyQuery | ServiceError::NoEngine => {}
            ServiceError::NoLinkedEntities { query } => {
                push("query", Value::Str(query.clone()));
            }
            ServiceError::ArtifactMissing { path } => {
                push("path", Value::Str(path.display().to_string()));
            }
            ServiceError::ArtifactLoad { path, source } => {
                push("path", Value::Str(path.display().to_string()));
                push("source", Value::Str(source_wire(source)));
            }
            ServiceError::ArtifactShard {
                path,
                shard,
                source,
            } => {
                push("path", Value::Str(path.display().to_string()));
                push("shard", Value::UInt(*shard as u64));
                push("source", Value::Str(source_wire(source)));
            }
            ServiceError::ArtifactFingerprint {
                path,
                expected,
                found,
            } => {
                push("path", Value::Str(path.display().to_string()));
                push("expected", Value::UInt(*expected));
                push("found", Value::UInt(*found));
            }
            ServiceError::ArtifactStale {
                path,
                indexed_docs,
                corpus_docs,
            } => {
                push("path", Value::Str(path.display().to_string()));
                push("indexed_docs", Value::UInt(*indexed_docs as u64));
                push("corpus_docs", Value::UInt(*corpus_docs as u64));
            }
            ServiceError::Timeout {
                elapsed_ms,
                budget_ms,
            } => {
                push("elapsed_ms", Value::UInt(*elapsed_ms));
                push("budget_ms", Value::UInt(*budget_ms));
            }
            ServiceError::Overloaded { queue_depth } => {
                push("queue_depth", Value::UInt(*queue_depth as u64));
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for ServiceError {
    fn from_value(v: &serde::Value) -> Result<ServiceError, serde::Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "ServiceError", v))?;
        let field = |name: &str| serde::__private::field::<String>(entries, name, "ServiceError");
        let path = || field("path").map(PathBuf::from);
        let source = || field("source").map(OndiskError::Io);
        let code = field("code")?;
        Ok(match code.as_str() {
            "empty_query" => ServiceError::EmptyQuery,
            "no_linked_entities" => ServiceError::NoLinkedEntities {
                query: field("query")?,
            },
            "no_engine" => ServiceError::NoEngine,
            "artifact_missing" => ServiceError::ArtifactMissing { path: path()? },
            "artifact_load" => ServiceError::ArtifactLoad {
                path: path()?,
                source: source()?,
            },
            "artifact_shard" => ServiceError::ArtifactShard {
                path: path()?,
                shard: serde::__private::field(entries, "shard", "ServiceError")?,
                source: source()?,
            },
            "artifact_fingerprint" => ServiceError::ArtifactFingerprint {
                path: path()?,
                expected: serde::__private::field(entries, "expected", "ServiceError")?,
                found: serde::__private::field(entries, "found", "ServiceError")?,
            },
            "artifact_stale" => ServiceError::ArtifactStale {
                path: path()?,
                indexed_docs: serde::__private::field(entries, "indexed_docs", "ServiceError")?,
                corpus_docs: serde::__private::field(entries, "corpus_docs", "ServiceError")?,
            },
            "timeout" => ServiceError::Timeout {
                elapsed_ms: serde::__private::field(entries, "elapsed_ms", "ServiceError")?,
                budget_ms: serde::__private::field(entries, "budget_ms", "ServiceError")?,
            },
            "overloaded" => ServiceError::Overloaded {
                queue_depth: serde::__private::field(entries, "queue_depth", "ServiceError")?,
            },
            other => {
                return Err(serde::Error(format!(
                    "unknown ServiceError code {other:?} (known: {})",
                    ServiceError::CODES.join(", ")
                )))
            }
        })
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
    pub fn starting_at(start: Instant, budget: Duration) -> Deadline {
        Deadline { start, budget }
    }

    /// The total budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Time consumed since the deadline's start instant.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Budget not yet consumed (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.elapsed())
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.elapsed() >= self.budget
    }

    /// `Err(`[`ServiceError::Timeout`]`)` once the budget is exhausted.
    pub fn check(&self) -> Result<(), ServiceError> {
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

/// Which expansion engine ([`crate::expansion`]) serves the features.
///
/// (Not serde-derivable under the offline shim — data-carrying enum
/// variants are unsupported there; the CLI surface uses
/// [`ExpansionStrategy::parse`] instead.)
#[derive(Debug, Clone, PartialEq)]
pub enum ExpansionStrategy {
    /// No expansion: the response carries the linked entities only.
    None,
    /// Link-neighbourhood baseline of the related work.
    DirectLinks {
        /// Maximum number of features returned.
        max_features: usize,
    },
    /// §4 future-work variant: redirect titles as features.
    Redirects {
        /// Maximum number of features returned.
        max_features: usize,
    },
    /// The paper's prescription: dense cycles with ≈30 % categories.
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
            ExpansionStrategy::Redirects { .. } => "redirects",
            ExpansionStrategy::Cycles(_) => "cycles",
        }
    }

    /// Parse a CLI strategy name (`cycles`, `links`, `redirects`,
    /// `none`). Non-cycle strategies default to 10 features.
    pub fn parse(name: &str) -> Option<ExpansionStrategy> {
        match name {
            "none" => Some(ExpansionStrategy::None),
            "links" | "direct-links" => Some(ExpansionStrategy::DirectLinks { max_features: 10 }),
            "redirects" => Some(ExpansionStrategy::Redirects { max_features: 10 }),
            "cycles" => Some(ExpansionStrategy::Cycles(CycleExpanderConfig::default())),
            _ => None,
        }
    }

    /// Run the selected engine.
    fn features(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId> {
        match self {
            ExpansionStrategy::None => Vec::new(),
            ExpansionStrategy::DirectLinks { max_features } => DirectLinkExpander {
                max_features: *max_features,
            }
            .expand(kb, query_articles),
            ExpansionStrategy::Redirects { max_features } => RedirectExpander {
                max_features: *max_features,
            }
            .expand(kb, query_articles),
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
    pub max_features: Option<usize>,
    /// Retrieve this many documents with the expanded query; `None`
    /// falls back to the builder's default (off unless configured).
    pub top_k: Option<usize>,
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

/// One retrieved document (mirrors
/// [`querygraph_retrieval::SearchHit`], serializable).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrievedDoc {
    /// Document id.
    pub doc: u32,
    /// Query-likelihood score (log domain, higher is better).
    pub score: f64,
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
    pub hits: Vec<RetrievedDoc>,
}

impl ExpansionResponse {
    /// The feature titles, in rank order.
    pub fn feature_titles(&self) -> Vec<&str> {
        self.features.iter().map(|t| t.title.as_str()).collect()
    }
}

/// Knobs for a [`QueryExpander`]: expansion strategy, linker behaviour,
/// feature caps, retrieval defaults, and — on the loading constructors —
/// language-model smoothing.
#[derive(Debug, Clone)]
pub struct QueryExpanderBuilder {
    strategy: ExpansionStrategy,
    use_synonyms: bool,
    max_features: Option<usize>,
    default_top_k: Option<usize>,
    lm: LmParams,
    search_mode: SearchMode,
    cache: Option<Arc<ExpansionCache>>,
}

impl Default for QueryExpanderBuilder {
    fn default() -> Self {
        QueryExpanderBuilder {
            strategy: ExpansionStrategy::default(),
            use_synonyms: true,
            max_features: None,
            default_top_k: None,
            lm: LmParams::default(),
            search_mode: SearchMode::Exact,
            cache: None,
        }
    }
}

impl QueryExpanderBuilder {
    /// Select the expansion strategy (default: the paper's cycle-based
    /// expander).
    pub fn strategy(mut self, strategy: ExpansionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enable or disable the linker's synonym pass (default: on, the
    /// paper's behaviour).
    pub fn synonyms(mut self, on: bool) -> Self {
        self.use_synonyms = on;
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

    /// Dirichlet smoothing for engines built by [`Self::load_world`] /
    /// [`Self::open_world`] (borrowed engines keep their own params).
    pub fn lm(mut self, params: LmParams) -> Self {
        self.lm = params;
        self
    }

    /// Retrieval execution mode (default: [`SearchMode::Exact`]).
    /// [`SearchMode::Pruned`] trades bit-identical scores for block-max
    /// top-k pruning; results stay rank-equivalent (same documents in
    /// the same order, scores within 1e-9).
    pub fn search_mode(mut self, mode: SearchMode) -> Self {
        self.search_mode = mode;
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
        self.assemble(kb, Some(engine))
    }

    /// [`Self::build`] without a search engine: expansion only, any
    /// retrieval request fails with [`ServiceError::NoEngine`].
    pub fn build_offline<'w>(&self, kb: &'w KnowledgeBase) -> QueryExpander<'w> {
        self.assemble(kb, None)
    }

    /// Strictly load a [`ServingWorld`] from a cached artifact with
    /// this builder's LM params (see [`ServingWorld::load`]).
    pub fn load_world(
        &self,
        config: &ExperimentConfig,
        cache_dir: &std::path::Path,
    ) -> Result<ServingWorld, ServiceError> {
        ServingWorld::load_with(config, cache_dir, self.lm)
    }

    /// Load-or-build a [`ServingWorld`] with this builder's LM params
    /// (see [`ServingWorld::open`]).
    pub fn open_world(
        &self,
        config: &ExperimentConfig,
        cache_dir: Option<&std::path::Path>,
    ) -> ServingWorld {
        ServingWorld::open_with(config, cache_dir, self.lm)
    }

    fn assemble<'w>(
        &self,
        kb: &'w KnowledgeBase,
        engine: Option<&'w dyn RetrievalBackend>,
    ) -> QueryExpander<'w> {
        let linker = if self.use_synonyms {
            EntityLinker::new(kb)
        } else {
            EntityLinker::new(kb).without_synonyms()
        };
        QueryExpander {
            kb,
            engine,
            linker,
            strategy: self.strategy.clone(),
            max_features: self.max_features,
            default_top_k: self.default_top_k,
            search_mode: self.search_mode,
            cache: self.cache.clone(),
        }
    }
}

/// The per-query serving facade: entity linking → expansion → INDRI
/// query → optional retrieval, over a world built once.
///
/// Construction is the expensive step (the linker's title dictionary);
/// [`QueryExpander::expand`] is allocation-light and lock-free except
/// for the engine's memoizing phrase cache, so one expander can serve
/// many threads ([`QueryExpander::expand_batch`] does exactly that).
///
/// ```
/// use querygraph_core::config::ExperimentConfig;
/// use querygraph_core::service::{ExpansionRequest, QueryExpander, ServingWorld};
///
/// let world = ServingWorld::open(&ExperimentConfig::tiny(), None);
/// let expander = QueryExpander::new(&world.wiki.kb, &world.engine);
/// let title = world.wiki.kb.title(world.wiki.kb.main_articles().next().unwrap());
/// // Expand and also retrieve the top 5 documents.
/// let response = expander
///     .expand(&ExpansionRequest::new(title).with_retrieval(5))
///     .unwrap();
/// assert!(!response.hits.is_empty());
/// ```
pub struct QueryExpander<'w> {
    kb: &'w KnowledgeBase,
    engine: Option<&'w dyn RetrievalBackend>,
    linker: EntityLinker<'w>,
    strategy: ExpansionStrategy,
    max_features: Option<usize>,
    default_top_k: Option<usize>,
    search_mode: SearchMode,
    cache: Option<Arc<ExpansionCache>>,
}

impl<'w> QueryExpander<'w> {
    /// Expander with the default knobs (cycle strategy, synonyms on,
    /// no default retrieval). Use [`QueryExpander::builder`] for more.
    pub fn new(kb: &'w KnowledgeBase, engine: &'w dyn RetrievalBackend) -> QueryExpander<'w> {
        QueryExpanderBuilder::default().build(kb, engine)
    }

    /// Start a [`QueryExpanderBuilder`].
    pub fn builder() -> QueryExpanderBuilder {
        QueryExpanderBuilder::default()
    }

    /// The knowledge base this expander serves from.
    pub fn kb(&self) -> &'w KnowledgeBase {
        self.kb
    }

    /// The retrieval backend, when built with one.
    pub fn engine(&self) -> Option<&'w dyn RetrievalBackend> {
        self.engine
    }

    /// The entity linker (title dictionary built at construction). The
    /// reproduction pipeline links documents through this.
    pub fn linker(&self) -> &EntityLinker<'w> {
        &self.linker
    }

    /// The active expansion strategy.
    pub fn strategy(&self) -> &ExpansionStrategy {
        &self.strategy
    }

    /// The retrieval execution mode requests are served with.
    pub fn search_mode(&self) -> SearchMode {
        self.search_mode
    }

    /// The response cache, when built with one (read it for hit
    /// statistics; the server's `Arc` is the same cache).
    pub fn cache(&self) -> Option<&Arc<ExpansionCache>> {
        self.cache.as_ref()
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
        let Some(cache) = &self.cache else {
            return self.expand_uncached(request);
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
            mode: self.search_mode.name(),
            // A reloadable engine bumps its epoch on every live swap,
            // so entries from the previous generation can never answer
            // a post-swap request (offline expanders pin epoch 0 —
            // there is nothing to go stale without an engine).
            epoch: self.engine.map(|e| e.cache_epoch()).unwrap_or(0),
        };
        cache.get_or_compute(&key, || self.expand_uncached(request))
    }

    /// Map a query-time scatter failure to the serving error space:
    /// a failing shard becomes [`ServiceError::ArtifactShard`] naming
    /// the shard and (for remote backends) its socket endpoint as the
    /// "path".
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
                let engine = self.engine.ok_or(ServiceError::NoEngine)?;
                // The fallible form so a remote shard process dying
                // mid-query surfaces as a typed 500 naming the shard
                // and its endpoint, not as silently empty results.
                engine
                    .try_search_with(&query_node, k, self.search_mode)
                    .map_err(|e| Self::search_failure(engine, e))?
                    .into_iter()
                    .map(|h| RetrievedDoc {
                        doc: h.doc,
                        score: h.score,
                    })
                    .collect()
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

    /// Serve many requests across `threads` workers on the same
    /// deterministic work-stealing runner the reproduction pipeline
    /// uses. Results are in request order and identical to a sequential
    /// loop regardless of thread count (each expansion is a pure
    /// function of the shared read-only world and its request).
    pub fn expand_batch(
        &self,
        requests: &[ExpansionRequest],
        threads: usize,
    ) -> Vec<Result<ExpansionResponse, ServiceError>> {
        parallel_map(requests.len(), threads, |i| self.expand(&requests[i]))
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
/// from a PR-3 artifact ([`ServingWorld::load`]) or falls back to
/// build-and-persist ([`ServingWorld::open`]).
pub struct ServingWorld {
    /// The knowledge base (and topic inventory) queries link against.
    pub wiki: SynthWiki,
    /// The retrieval backend over the corpus's linking text —
    /// monolithic or sharded per the options it was opened with.
    pub engine: AnyEngine,
    /// The configuration that determines this world.
    pub config: ExperimentConfig,
    /// Build-vs-load wall-clock breakdown.
    pub stats: crate::cache::BuildStats,
}

impl ServingWorld {
    /// Strictly load the world from `cache_dir`: the fingerprint-keyed
    /// artifact must exist and decode, or a typed [`ServiceError`]
    /// explains why. The corpus is *not* regenerated on this path
    /// (serving does not need it), so the doc-count staleness
    /// cross-check of the lenient path does not apply; the artifact's
    /// checksums and embedded fingerprint still do.
    pub fn load(
        config: &ExperimentConfig,
        cache_dir: &std::path::Path,
    ) -> Result<ServingWorld, ServiceError> {
        Self::load_with(config, cache_dir, LmParams::default())
    }

    /// [`ServingWorld::load`] with explicit Dirichlet smoothing.
    pub fn load_with(
        config: &ExperimentConfig,
        cache_dir: &std::path::Path,
        lm: LmParams,
    ) -> Result<ServingWorld, ServiceError> {
        Self::load_with_options(config, cache_dir, lm, &WorldOptions::default())
    }

    /// [`ServingWorld::load_with`] with explicit [`WorldOptions`]:
    /// `shards: Some(n)` loads the `n`-segment store
    /// ([`cache::store_dir`]: manifest + segments, segments in
    /// parallel, typed per-shard errors); `mmap` maps artifact bytes
    /// instead of reading them.
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
        let (engine, shard_load_seconds) = match options.shards {
            None => (
                AnyEngine::Mono(cache::load_engine_with(
                    config,
                    cache_dir,
                    None,
                    lm,
                    options.source(),
                )?),
                Vec::new(),
            ),
            Some(n) => {
                let (engine, secs) =
                    cache::load_store_engine(config, cache_dir, n, None, lm, options.source())?;
                (AnyEngine::Sharded(engine), secs)
            }
        };
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
            config: config.clone(),
            stats,
        })
    }

    /// Load the world from `cache_dir` when a valid artifact exists;
    /// otherwise build the index (regenerating the corpus) and persist
    /// it for the next run. Never fails: a cache can lose time, not
    /// correctness.
    pub fn open(config: &ExperimentConfig, cache_dir: Option<&std::path::Path>) -> ServingWorld {
        Self::open_with(config, cache_dir, LmParams::default())
    }

    /// [`ServingWorld::open`] with explicit Dirichlet smoothing.
    pub fn open_with(
        config: &ExperimentConfig,
        cache_dir: Option<&std::path::Path>,
        lm: LmParams,
    ) -> ServingWorld {
        Self::open_with_corpus(config, cache_dir, lm).0
    }

    /// [`ServingWorld::open_with`], also returning the synthetic corpus
    /// the open path regenerates anyway (for the staleness cross-check
    /// and cache-miss indexing). Callers that need the query set or the
    /// documents — `qgx --seed-queries` serves the generated queries —
    /// reuse it instead of paying a second generation pass; a plain
    /// long-lived server uses [`ServingWorld::open`] and lets the
    /// corpus drop.
    pub fn open_with_corpus(
        config: &ExperimentConfig,
        cache_dir: Option<&std::path::Path>,
        lm: LmParams,
    ) -> (ServingWorld, querygraph_corpus::synth::SynthCorpus) {
        Self::open_with_options(config, cache_dir, lm, &WorldOptions::default())
    }

    /// [`ServingWorld::open_with_corpus`] with explicit
    /// [`WorldOptions`] — the `--shards N` / `--mmap` knobs of the
    /// `qgx` server. Expansion (and retrieval) results are
    /// byte-identical at any shard count.
    pub fn open_with_options(
        config: &ExperimentConfig,
        cache_dir: Option<&std::path::Path>,
        lm: LmParams,
        options: &WorldOptions,
    ) -> (ServingWorld, querygraph_corpus::synth::SynthCorpus) {
        let (wiki, corpus, engine, stats) = cache::build_world(config, cache_dir, lm, options);
        let world = ServingWorld {
            wiki,
            engine,
            config: config.clone(),
            stats,
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
        assert!(r.feature_titles().contains(&"Grand Canal (Venice)"));
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
            ("redirects", "redirects"),
            ("none", "none"),
        ] {
            assert_eq!(ExpansionStrategy::parse(name).unwrap().name(), parsed);
        }
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
            let batch = ex.expand_batch(&requests, threads);
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
        std::fs::remove_file(crate::cache::artifact_path(&dir, &config)).ok();
        match ServingWorld::load(&config, &dir) {
            Err(ServiceError::ArtifactMissing { path }) => {
                assert_eq!(path, crate::cache::artifact_path(&dir, &config));
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
        std::fs::remove_file(crate::cache::artifact_path(&dir, &config)).ok();

        let built = ServingWorld::open(&config, Some(&dir));
        assert_eq!(built.stats.index_source, crate::cache::IndexSource::Built);
        let loaded = ServingWorld::load(&config, &dir).expect("artifact persisted");
        assert_eq!(loaded.stats.index_source, crate::cache::IndexSource::Loaded);

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
        assert!(cached.cache().is_some() && uncached.cache().is_none());
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
        assert!(cache.is_empty(), "failures must not occupy capacity");
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
                cached.expand_batch(&requests, threads),
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
    fn every_variant_displays_and_round_trips_through_serde() {
        for sample in every_variant() {
            // Display must be non-empty and mention the interesting
            // payload (spot-checked per variant below).
            let rendered = sample.to_string();
            assert!(!rendered.is_empty());
            let json = serde_json::to_string(&sample).expect("error serializes");
            assert!(
                json.contains(&format!("\"code\":\"{}\"", sample.code())),
                "{json}"
            );
            let back: ServiceError = serde_json::from_str(&json).expect("error parses");
            // Samples carry `Io` sources, so the round trip is exact for
            // every variant (non-Io artifact sources come back as
            // `OndiskError::Io(rendered message)` — see the impl note).
            assert_eq!(back, sample);
            assert_eq!(back.code(), sample.code());
            assert_eq!(back.to_string(), rendered);
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
    fn non_io_artifact_sources_keep_code_and_message_on_the_wire() {
        let original = ServiceError::ArtifactLoad {
            path: PathBuf::from("/cache/a.qgidx"),
            source: OndiskError::ChecksumMismatch { section: "header" },
        };
        let json = serde_json::to_string(&original).unwrap();
        let back: ServiceError = serde_json::from_str(&json).unwrap();
        assert_eq!(back.code(), original.code());
        match back {
            ServiceError::ArtifactLoad { path, source } => {
                assert_eq!(path, PathBuf::from("/cache/a.qgidx"));
                // The structured source degrades to its rendered
                // message, never silently to nothing.
                assert_eq!(
                    source.to_string(),
                    format!(
                        "index artifact io error: {}",
                        OndiskError::ChecksumMismatch { section: "header" }
                    )
                );
            }
            other => panic!("wrong variant after round trip: {other:?}"),
        }
    }

    #[test]
    fn unknown_wire_code_is_rejected_with_the_known_list() {
        let err = serde_json::from_str::<ServiceError>("{\"code\":\"bogus\"}").unwrap_err();
        assert!(err.to_string().contains("bogus"));
        assert!(err.to_string().contains("timeout"), "lists known codes");
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
        let engine = AnyEngine::Reloadable(reloadable.clone());
        let cache = Arc::new(ExpansionCache::new(64));
        let cached = QueryExpander::builder()
            .retrieve_top(10)
            .expansion_cache(cache.clone())
            .build(&world_a.wiki.kb, &engine);

        let title = world_a
            .wiki
            .kb
            .title(world_a.wiki.kb.main_articles().next().unwrap());
        let request = ExpansionRequest::new(title);

        assert_eq!(engine.cache_epoch(), 1);
        let before = cached.expand(&request).expect("generation 1 serves");
        assert_eq!(cached.expand(&request).unwrap(), before);
        assert_eq!(cache.hits(), 1, "same generation repeats hit");

        // The live swap: generation 2 replaces the engine between
        // queries; the very next expansion must be computed against it,
        // never served from the generation-1 cache entry.
        reloadable.swap(world_b.engine, 2);
        assert_eq!(engine.cache_epoch(), 2);
        let after = cached.expand(&request).expect("generation 2 serves");
        let expected = QueryExpander::builder()
            .retrieve_top(10)
            .build(&world_b.wiki.kb, &AnyEngine::Reloadable(reloadable.clone()))
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

    #[test]
    fn pruned_serving_is_rank_equivalent_to_exact() {
        let world = ServingWorld::open(&ExperimentConfig::tiny(), None);
        let exact = world.expander();
        let pruned_builder = QueryExpander::builder().search_mode(SearchMode::Pruned);
        let pruned = world.expander_from(&pruned_builder);
        assert_eq!(pruned.search_mode(), SearchMode::Pruned);
        let titles: Vec<String> = world
            .wiki
            .kb
            .main_articles()
            .take(8)
            .map(|a| world.wiki.kb.title(a).to_string())
            .collect();
        for title in &titles {
            let request = ExpansionRequest::new(title).with_retrieval(10);
            let a = exact.expand(&request).expect("exact serves");
            let b = pruned.expand(&request).expect("pruned serves");
            // The rank-equivalence contract: same expansion, same
            // documents in the same order, scores within 1e-9.
            assert_eq!(a.expanded_query, b.expanded_query);
            assert_eq!(
                a.hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
                b.hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
                "doc ranking must match for {title:?}"
            );
            for (x, y) in a.hits.iter().zip(&b.hits) {
                assert!(
                    (x.score - y.score).abs() <= 1e-9,
                    "score drift for {title:?}"
                );
            }
        }
    }
}
