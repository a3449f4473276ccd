//! # querygraph-wiki
//!
//! The Wikipedia knowledge-base model of the paper's Fig. 1, plus the two
//! data sources this reproduction runs on:
//!
//! * [`fixture`] — a hand-built mini-Wikipedia around the paper's worked
//!   example (query #90, "gondola in venice", Figs. 3/4) including the
//!   category-free `sheep–quarantine–anthrax` trap of Fig. 8.
//! * [`synth`] — a deterministic synthetic Wikipedia generator,
//!   calibrated against the structural statistics the paper reports for
//!   the real Wikipedia (link reciprocity ≈ 11.47 %, tree-like category
//!   hierarchy, topic-clustered articles). See DESIGN.md §1 for why this
//!   substitution preserves the paper's analysis.
//!
//! [`serialize`] round-trips a knowledge base through JSON, and
//! [`stats`] measures one against the paper's reported statistics.
//!
//! ## Schema (paper Fig. 1)
//!
//! * An **Article** has a unique title and belongs to ≥ 1 **Category**;
//!   articles link to other articles.
//! * A **redirect** article has a title but no categories or links; it
//!   points to its *main* article via `redirects_to`.
//! * Categories nest via `inside`, forming a tree-like hierarchy.
//!
//! [`KnowledgeBase`] stores all of this and projects it onto a
//! [`querygraph_graph::TypedGraph`]: articles occupy node ids
//! `0..num_articles`, categories the ids after them.
//!
//! ```
//! use querygraph_wiki::fixture;
//!
//! let kb = fixture::venice_mini_wiki();
//! let venice = kb.article_by_title("Venice").unwrap();
//! assert!(!kb.is_redirect(venice));
//! assert!(kb.categories_of(venice).len() >= 1);
//! ```

#![forbid(unsafe_code)]

mod builder;
pub mod fixture;
mod kb;
mod schema;
pub mod serialize;
pub mod stats;
pub mod synth;

pub use builder::KbBuilder;
pub use kb::KnowledgeBase;
pub use schema::ArticleId;
pub use schema::CategoryId;
