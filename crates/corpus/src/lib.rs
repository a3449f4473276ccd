//! # querygraph-corpus
//!
//! The document side of the reproduction: the ImageCLEF 2011 Wikipedia
//! image-retrieval collection that the paper builds its ground truth on
//! (§2, Fig. 2), modelled end to end:
//!
//! * `xml` — a minimal, dependency-free XML pull parser and writer
//!   (the allowed crate set contains no XML crate, so this substrate is
//!   built from scratch; see DESIGN.md §1).
//! * `document` — the image-metadata document model: id, file name,
//!   per-language text sections with descriptions and captions, the
//!   general comment, and the license.
//! * [`imageclef`] — parsing ImageCLEF XML files into documents and the
//!   paper's *linking text* extraction: ① the file name without
//!   extension, ② the English text section, ③ the description from the
//!   general comment (Fig. 2's three highlighted regions).
//! * `query` — queries (keyword list + relevant-document set, the
//!   `q = <k, D>` tuples of Table 1) and the corpus container; [`qrels`]
//!   reads and writes their relevance judgments.
//! * [`writer`] and [`ingest`] — documents back to ImageCLEF-shaped XML,
//!   and a bounded-memory stream over a concatenated XML dump.
//! * [`synth`] — a deterministic corpus generator grounded in a
//!   synthetic Wikipedia: relevant documents mention article titles near
//!   the query topic (creating the vocabulary mismatch that motivates
//!   query expansion), noise documents mention mixed topics.
//!
//! ```
//! use querygraph_corpus::imageclef;
//!
//! let xml = r#"<image id="7" file="images/0/7.jpg">
//!   <name>Gondola on the Grand Canal.jpg</name>
//!   <text xml:lang="en"><description>A gondola in Venice.</description>
//!     <comment/><caption article="text/en/1/2">Venice canal.</caption></text>
//!   <comment>({{Information |Description= Gondola photo |Source= Flickr }})</comment>
//!   <license>GFDL</license>
//! </image>"#;
//! let doc = imageclef::parse_image_doc(xml).unwrap();
//! assert_eq!(doc.id, "7");
//! let text = imageclef::linking_text(&doc);
//! assert!(text.contains("Gondola on the Grand Canal"));
//! assert!(text.contains("A gondola in Venice."));
//! assert!(text.contains("Gondola photo"));
//! ```

#![forbid(unsafe_code)]

mod document;
pub mod imageclef;
pub mod ingest;
pub mod qrels;
mod query;
pub mod synth;
pub mod writer;
mod xml;

pub use query::DocId;
