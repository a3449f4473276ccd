//! Queries, the corpus container, and document identifiers.
//!
//! A query is the tuple `q = <k, D>` of the paper's Table 1: a keyword
//! list `k` and the set `D` of documents that are correct results. The
//! ImageCLEF 2011 track provides fifty such queries; the synthetic
//! generator mirrors that.

use crate::document::ImageDoc;
use serde::{Deserialize, Serialize};

/// Dense identifier of a document within a `Corpus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocId(pub u32);

impl DocId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An immutable collection of documents.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    docs: Vec<ImageDoc>,
}

impl Corpus {
    /// An empty corpus.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Append a document, returning its id.
    pub(crate) fn push(&mut self, doc: ImageDoc) -> DocId {
        let id = DocId(self.docs.len() as u32);
        self.docs.push(doc);
        id
    }

    /// The document for `id`.
    pub fn doc(&self, id: DocId) -> &ImageDoc {
        &self.docs[id.index()]
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Iterate `(DocId, &ImageDoc)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &ImageDoc)> {
        self.docs
            .iter()
            .enumerate()
            .map(|(i, d)| (DocId(i as u32), d))
    }
}

/// One benchmark query: keywords plus its relevant-document set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Query identifier (the paper's examples use the ImageCLEF numbers,
    /// e.g. #90 "gondola in venice").
    pub id: u32,
    /// The keyword list `k`, as free text.
    pub keywords: String,
    /// The correct results `D` (sorted, deduplicated).
    pub relevant: Vec<DocId>,
}

impl Query {
    /// Construct a query, normalizing `relevant` to sorted/deduped.
    pub(crate) fn new(id: u32, keywords: impl Into<String>, mut relevant: Vec<DocId>) -> Self {
        relevant.sort_unstable();
        relevant.dedup();
        Query {
            id,
            keywords: keywords.into(),
            relevant,
        }
    }
}

/// The full query set of a benchmark run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuerySet {
    /// Queries in id order.
    pub queries: Vec<Query>,
}

impl QuerySet {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Find a query by its id.
    pub fn by_id(&self, id: u32) -> Option<&Query> {
        self.queries.iter().find(|q| q.id == id)
    }

    /// Iterate the queries.
    pub fn iter(&self) -> impl Iterator<Item = &Query> {
        self.queries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_push_and_lookup() {
        let mut c = Corpus::new();
        assert_eq!(c.len(), 0);
        let d0 = c.push(ImageDoc {
            id: "0".into(),
            ..ImageDoc::default()
        });
        let d1 = c.push(ImageDoc {
            id: "1".into(),
            ..ImageDoc::default()
        });
        assert_eq!(c.len(), 2);
        assert_eq!(c.doc(d0).id, "0");
        assert_eq!(c.doc(d1).id, "1");
        let ids: Vec<DocId> = c.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![DocId(0), DocId(1)]);
    }

    #[test]
    fn query_relevance_is_sorted_set() {
        let q = Query::new(90, "gondola in venice", vec![DocId(5), DocId(2), DocId(5)]);
        assert_eq!(q.relevant, vec![DocId(2), DocId(5)]);
    }

    #[test]
    fn query_set_lookup() {
        let qs = QuerySet {
            queries: vec![
                Query::new(1, "a", vec![]),
                Query::new(90, "gondola in venice", vec![DocId(0)]),
            ],
        };
        assert_eq!(qs.len(), 2);
        assert_eq!(qs.by_id(90).unwrap().keywords, "gondola in venice");
        assert!(qs.by_id(3).is_none());
    }
}
