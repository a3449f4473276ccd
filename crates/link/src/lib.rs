//! # querygraph-link
//!
//! Entity linking against Wikipedia article titles — §2.1 of the paper.
//!
//! "The entity linking process consists in identifying the set of the
//! largest substrings in the input query that matches with the title of
//! an article in Wikipedia." This crate implements that as a greedy
//! leftmost-longest scan of the normalized token stream against a
//! dictionary of normalized titles, plus the paper's synonym-phrase
//! refinement: "we derive a synonym phrase by replacing at least one
//! term of the input text by a synonymous term", where synonyms come
//! from Wikipedia redirects.
//!
//! ```
//! use querygraph_link::EntityLinker;
//! use querygraph_wiki::fixture::venice_mini_wiki;
//!
//! let kb = venice_mini_wiki();
//! let linker = EntityLinker::new(&kb);
//! let arts = linker.link_articles("gondola in venice");
//! let titles: Vec<&str> = arts.iter().map(|&a| kb.title(a)).collect();
//! assert!(titles.contains(&"Gondola"));
//! assert!(titles.contains(&"Venice"));
//! ```

#![forbid(unsafe_code)]

mod dictionary;
mod linker;
mod mention;
mod synonyms;

pub use linker::EntityLinker;
