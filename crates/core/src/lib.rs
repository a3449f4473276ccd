//! # querygraph-core
//!
//! The paper's primary contribution, end to end:
//!
//! * [`ground_truth`] — §2.2: for each query, hill-climb (ADD / REMOVE /
//!   SWAP) over the articles mentioned in the relevant documents to find
//!   X(q), the minimal article set whose titles maximize the retrieval
//!   quality O (Eq. 1).
//! * [`query_graph`] — §2.3: assemble G(q), the induced Wikipedia
//!   subgraph over X(q), the main articles of its redirects, and their
//!   categories; plus the Table 3 largest-component statistics.
//! * [`cycle_analysis`] — §3: enumerate the cycles of G(q) through the
//!   query articles and measure length, category ratio, density of extra
//!   edges (the M(C) formula) and retrieval contribution.
//! * `contribution` — the percentual O-difference a cycle's articles
//!   buy (Figs. 5 and 9).
//! * [`expansion`] — the findings operationalized: the cycle strategy
//!   (dense cycles, ≈30 % category ratio) and the direct-link baseline,
//!   one function each.
//! * [`experiment`] — the reproduction pipeline: synthesize Wikipedia +
//!   corpus, build ground truths, analyze every query graph, aggregate
//!   every table and figure (`tables`).
//! * [`pipeline`] — the execution layer under [`experiment`]: the
//!   shared read-only [`pipeline::PipelineCtx`], per-stage timing, and
//!   the deterministic work-stealing runner that parallelizes the
//!   paper's §4 per-query cost across threads.
//! * [`cache`] — the on-disk index cache: build the retrieval index
//!   once, persist it via `querygraph_retrieval::ondisk`, and reload it
//!   zero-copy on later runs (fingerprint-keyed; corruption falls back
//!   to rebuilding).
//! * [`service`] — the serving facade: [`service::QueryExpander`]
//!   answers ad-hoc per-query expansion requests (entity linking →
//!   cycle-based expansion → optional retrieval) over a world built
//!   once — directly from a cached on-disk index if available — with
//!   typed errors. The reproduction pipeline is itself a consumer of
//!   this facade.
//! * [`expcache`] — a bounded, shard-aware memoization of complete
//!   expansion responses with single-flight misses, for the
//!   head-heavy query distributions real serving sees.
//! * [`http`] — the dependency-free network front-end: a hand-rolled
//!   HTTP/1.1 server (std::net + a fixed worker pool) that puts
//!   [`service::QueryExpander`] on a socket with per-request
//!   deadlines, a bounded queue, and typed overload shedding, plus
//!   the minimal client that drives it.
//!
//! ```
//! use querygraph_core::experiment::{Experiment, ExperimentConfig};
//!
//! let experiment = Experiment::build(&ExperimentConfig::tiny());
//! let report = experiment.run();
//! assert_eq!(report.per_query.len(), report.config.corpus.num_queries);
//! // Table 2 of the paper: ground-truth precision summary.
//! let t2 = report.table2();
//! assert!(t2.rows[0].max <= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
mod contribution;
pub mod cycle_analysis;
pub mod expansion;
pub mod expcache;
pub mod experiment;
pub mod ground_truth;
mod histogram;
pub mod http;
pub mod pipeline;
pub mod query_graph;
pub mod service;
mod tables;

pub use expcache::ExpansionCache;
pub use experiment::ExperimentConfig;
