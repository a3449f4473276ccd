//! # querygraph-retrieval
//!
//! The search-engine substrate of the reproduction. The paper evaluates
//! candidate expansion features by writing exact-phrase queries "in the
//! INDRI query language" and measuring top-r precision against each
//! query's relevant set (§2.2). INDRI itself is a language-model engine;
//! this crate implements the same contract:
//!
//! * [`index`] — a positional inverted index with delta-varint-encoded
//!   postings ([`postings`]), document lengths and collection statistics.
//! * [`phrase`] — exact-phrase matching (`#1(...)`: terms at consecutive
//!   positions), the operator the paper's queries are built from.
//! * [`lm`] — Dirichlet-smoothed query-likelihood scoring, INDRI's
//!   default retrieval model.
//! * [`query_lang`] — a parser and AST for the query-language subset
//!   used here: bare terms, `#1(…)`, `#combine(…)`, `#weight(…)`.
//! * [`engine`] — [`engine::SearchEngine`]: executes a parsed query and
//!   returns deterministic top-k results (ties broken by doc id), with a
//!   sharded phrase-postings cache (the ground-truth hill climb
//!   re-evaluates the same titles thousands of times, from many threads).
//! * [`backend`] — [`backend::RetrievalBackend`]: the scoring/retrieval
//!   surface everything above this crate consumes, implemented by the
//!   monolithic engine and by the scatter-gather coordinator with a
//!   strict byte-identity contract between layouts.
//! * [`sharded`] — the one top-k scoring kernel, and
//!   [`sharded::ScatterEngine`]: deterministic scatter-gather over N
//!   doc-partitioned shards behind [`sharded::ShardHandle`]s —
//!   [`sharded::ShardedEngine`] when they live in this process.
//! * [`segstore`] — the one sharded on-disk layout: a generational
//!   manifest over independently checksummed `QGIX` segments, grown by
//!   streaming ingest, reshaped by compaction, and published once by a
//!   `--shards N` index cache.
//! * [`remote`] — shards as separate *processes*: the QGRP binary RPC
//!   protocol, [`remote::ShardServer`] (one segment on a local socket),
//!   and [`remote::RemoteEngine`] (the same coordinator over shard
//!   processes, byte-identical to the in-process engine).
//! * [`par`] — the deterministic work-stealing [`par::parallel_map`]
//!   runner (shared with `core::pipeline`, which re-exports it).
//! * [`mmap`] — opt-in read-only file mapping behind
//!   [`ondisk::ArtifactSource::Mmap`], with read fallback.
//! * [`workspace`] — [`workspace::ScoreWorkspace`]: the hill climb's
//!   fast path. Resolves each title phrase once, precomputes per-leaf
//!   per-document log-beliefs, and scores candidate title sets without
//!   re-flattening or re-matching — bit-identical to the engine.
//! * [`ondisk`] — a versioned on-disk artifact for the whole retrieval
//!   state (term dictionary, postings buffers, per-doc stats, phrase
//!   dictionary) with checksummed sections and a zero-copy loader, so
//!   paper-scale worlds are indexed once and reloaded across runs.
//! * [`metrics`] — top-r precision `P(A, r, D)` and the averaged
//!   quality `O(A, D)` of the paper's Eq. 1 (R = {1, 5, 10, 15}).
//! * [`stats`] — five-number summaries (min/quartiles/max) used by
//!   Tables 2 and 3.
//!
//! ```
//! use querygraph_retrieval::index::IndexBuilder;
//! use querygraph_retrieval::engine::SearchEngine;
//! use querygraph_retrieval::query_lang::parse;
//!
//! let mut b = IndexBuilder::new();
//! b.add_document("a gondola on the grand canal");
//! b.add_document("the grand hotel by the canal");
//! let engine = SearchEngine::new(b.build());
//! let q = parse("#combine(#1(grand canal) gondola)").unwrap();
//! let hits = engine.search(&q, 10);
//! assert_eq!(hits[0].doc, 0); // exact phrase + term beats scattered terms
//! ```

pub mod backend;
pub mod engine;
pub mod index;
pub mod lm;
pub mod metrics;
pub mod mmap;
pub mod ondisk;
pub mod par;
pub mod phrase;
pub mod postings;
pub mod query_lang;
pub mod remote;
pub mod segstore;
pub mod sharded;
pub mod stats;
pub mod topk;
pub mod workspace;

pub use backend::{AnyEngine, RetrievalBackend};
pub use engine::{PhraseCacheEntry, SearchEngine, SearchHit, SearchMode};
pub use index::{IndexBuilder, InvertedIndex};
pub use metrics::{average_quality, precision_at, EVAL_CUTOFFS};
pub use ondisk::{ArtifactSource, LoadedIndex, OndiskError};
pub use par::parallel_map;
pub use query_lang::{parse, QueryNode};
pub use remote::{RemoteEngine, RemoteShard, ShardServer};
pub use segstore::{SegStore, SegStoreError};
pub use sharded::{ShardedEngine, ShardedError};
pub use workspace::{LeafId, ScoreWorkspace};
