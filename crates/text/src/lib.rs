//! # querygraph-text
//!
//! Text primitives shared by every layer of the `querygraph` workspace:
//! normalization, position-aware tokenization, a string interner used as
//! the retrieval term dictionary, and a small English stopword list.
//!
//! The paper's pipeline (Guisado-Gámez & Prat-Pérez, 2015) matches
//! Wikipedia article *titles* against free text (§2.1 "Linking with
//! Wikipedia") and indexes document text for the INDRI-style engine (§2.2).
//! Both sides must agree on one canonical text form, which this crate
//! defines: see [`normalize()`].
//!
//! ## Quick example
//!
//! ```
//! use querygraph_text::{normalize, tokenize_positions};
//!
//! let norm = normalize("Grand  Canal (Venice)!");
//! assert_eq!(norm, "grand canal venice");
//!
//! let toks = tokenize_positions("gondola in Venice");
//! assert_eq!(toks.len(), 3);
//! assert_eq!(toks[1].text, "in");
//! assert_eq!(toks[2].position, 2);
//! ```

#![forbid(unsafe_code)]

mod interner;
mod normalize;
mod stopwords;
mod tokenize;

pub use interner::{Interner, TermId};
pub use normalize::normalize;
pub use stopwords::is_stopword;
pub use tokenize::{tokenize, tokenize_positions, Token};
