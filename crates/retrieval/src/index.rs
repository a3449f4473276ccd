//! The positional inverted index.
//!
//! [`IndexBuilder`] tokenizes documents (through `querygraph-text`, the
//! same normalization the entity linker uses) and freezes an
//! [`InvertedIndex`]: one `PostingsList` per term, document lengths,
//! and collection statistics for smoothing.

use crate::postings::{PostingsBuilder, PostingsList};
use querygraph_text::{tokenize_positions, Interner, TermId};

/// Accumulates documents, then [`IndexBuilder::build`]s the index.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    interner: Interner,
    // term → (doc, positions) accumulated in insertion order; docs are
    // appended in ascending order by construction.
    accum: Vec<Vec<(u32, Vec<u32>)>>,
    doc_lengths: Vec<u32>,
    total_tokens: u64,
}

impl IndexBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a document; returns its dense doc id (assigned sequentially
    /// from 0). The text is normalized and tokenized internally.
    pub fn add_document(&mut self, text: &str) -> u32 {
        let doc = self.doc_lengths.len() as u32;
        let tokens = tokenize_positions(text);
        self.doc_lengths.push(tokens.len() as u32);
        self.total_tokens += tokens.len() as u64;
        for tok in &tokens {
            let t = self.interner.intern(&tok.text);
            if t.index() >= self.accum.len() {
                self.accum.push(Vec::new());
            }
            let entry = &mut self.accum[t.index()];
            match entry.last_mut() {
                Some((d, positions)) if *d == doc => positions.push(tok.position),
                _ => entry.push((doc, vec![tok.position])),
            }
        }
        doc
    }

    /// Freeze into an immutable index.
    pub fn build(self) -> InvertedIndex {
        freeze(
            self.interner,
            self.accum,
            self.doc_lengths,
            self.total_tokens,
        )
    }
}

/// Freeze accumulated postings into an index: each term's
/// `(doc, positions)` entries, docs ascending and indexed by term id,
/// become its [`TermBound`] and its [`PostingsList`]. The one freeze
/// behind [`IndexBuilder::build`] and compaction's reslice.
pub(crate) fn freeze(
    interner: Interner,
    accum: Vec<Vec<(u32, Vec<u32>)>>,
    doc_lengths: Vec<u32>,
    total_tokens: u64,
) -> InvertedIndex {
    let bounds = accum
        .iter()
        .map(|entries| {
            let mut bound = TermBound::EMPTY;
            for (doc, positions) in entries {
                bound.max_tf = bound.max_tf.max(positions.len() as u32);
                bound.min_len = bound.min_len.min(doc_lengths[*doc as usize]);
            }
            bound.normalized()
        })
        .collect();
    let postings = accum
        .into_iter()
        .map(|entries| {
            let mut b = PostingsBuilder::new();
            for (doc, positions) in entries {
                b.push(doc, &positions);
            }
            b.build()
        })
        .collect();
    InvertedIndex::from_parts(interner, postings, bounds, doc_lengths, total_tokens)
}

/// Per-term score-bound statistics for WAND-style pruning: the two
/// inputs that maximize a term's Dirichlet log-belief over its postings.
/// The belief `ln((tf + μ·p) / (|d| + μ))` is monotone increasing in
/// `tf` and decreasing in `|d|`, so evaluating it at (`max_tf`,
/// `min_len`) upper-bounds the term's contribution to *any* matching
/// document — independently of μ, which is why the artifact can store
/// these raw counts instead of a smoothing-specific score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TermBound {
    /// Highest term frequency across the term's postings.
    pub(crate) max_tf: u32,
    /// Shortest document (token count) among those containing the term.
    pub(crate) min_len: u32,
}

impl TermBound {
    /// Identity for accumulation; [`TermBound::normalized`] collapses it
    /// to the all-zero convention for empty postings.
    pub(crate) const EMPTY: TermBound = TermBound {
        max_tf: 0,
        min_len: u32::MAX,
    };

    /// Canonical form: a term with no postings is `(0, 0)`.
    pub(crate) fn normalized(self) -> TermBound {
        if self.max_tf == 0 {
            TermBound {
                max_tf: 0,
                min_len: 0,
            }
        } else {
            self
        }
    }
}

/// An immutable positional inverted index.
#[derive(Debug)]
pub struct InvertedIndex {
    interner: Interner,
    postings: Vec<PostingsList>,
    bounds: Vec<TermBound>,
    doc_lengths: Vec<u32>,
    min_doc_len: u32,
    total_tokens: u64,
}

impl InvertedIndex {
    /// Reassemble an index from deserialized parts ([`crate::ondisk`]).
    /// The caller guarantees the parts are mutually consistent (one
    /// postings list and one [`TermBound`] per interned term, in term-id
    /// order, bounds matching the postings they summarize).
    pub(crate) fn from_parts(
        interner: Interner,
        postings: Vec<PostingsList>,
        bounds: Vec<TermBound>,
        doc_lengths: Vec<u32>,
        total_tokens: u64,
    ) -> InvertedIndex {
        debug_assert_eq!(interner.len(), postings.len());
        debug_assert_eq!(postings.len(), bounds.len());
        let min_doc_len = doc_lengths.iter().copied().min().unwrap_or(0);
        InvertedIndex {
            interner,
            postings,
            bounds,
            doc_lengths,
            min_doc_len,
            total_tokens,
        }
    }

    /// The term dictionary (id → string, insertion-ordered).
    pub(crate) fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Per-document token counts, indexed by doc id.
    pub(crate) fn doc_lengths(&self) -> &[u32] {
        &self.doc_lengths
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Total token count of the collection.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Length (token count) of document `doc`.
    pub(crate) fn doc_len(&self, doc: u32) -> u32 {
        self.doc_lengths[doc as usize]
    }

    /// Mean document length; 0.0 for an empty index.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_lengths.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_lengths.len() as f64
        }
    }

    /// Term id of an (already normalized) word.
    pub(crate) fn term_id(&self, term: &str) -> Option<TermId> {
        self.interner.get(term)
    }

    /// The postings list of a term id.
    pub(crate) fn postings(&self, t: TermId) -> &PostingsList {
        &self.postings[t.index()]
    }

    /// The score-bound statistics of a term id (see [`TermBound`]).
    pub(crate) fn term_bound(&self, t: TermId) -> TermBound {
        self.bounds[t.index()]
    }

    /// The shortest document in the collection (token count); 0 for an
    /// empty collection. Bounds the background (tf = 0) log-belief of
    /// any component, since the belief is decreasing in document
    /// length.
    pub(crate) fn min_doc_len(&self) -> u32 {
        self.min_doc_len
    }

    /// Postings by raw term string (normalized form expected).
    pub(crate) fn postings_for(&self, term: &str) -> Option<&PostingsList> {
        self.term_id(term).map(|t| self.postings(t))
    }

    /// The smallest nonzero probability representable in this
    /// collection; the smoothing floor for unseen terms and phrases.
    pub(crate) fn epsilon_prob(&self) -> f64 {
        epsilon_for(self.total_tokens)
    }
}

/// The smoothing floor for a collection of `total_tokens` tokens — the
/// one formula behind `InvertedIndex::epsilon_prob` and the sharded
/// engine's globally aggregated floor, so the two can never drift (the
/// byte-identity contract divides by *this* value on both layouts).
pub fn epsilon_for(total_tokens: u64) -> f64 {
    if total_tokens == 0 {
        1e-9
    } else {
        0.5 / total_tokens as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document("a gondola on the grand canal");
        b.add_document("the grand hotel");
        b.add_document("");
        b.build()
    }

    #[test]
    fn doc_ids_sequential() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add_document("x"), 0);
        assert_eq!(b.add_document("y"), 1);
        assert_eq!(b.build().num_docs(), 2);
    }

    #[test]
    fn collection_statistics() {
        let idx = tiny();
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.total_tokens(), 9);
        assert_eq!(idx.doc_len(0), 6);
        assert_eq!(idx.doc_len(2), 0);
        assert!((idx.avg_doc_len() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn postings_positions_are_correct() {
        let idx = tiny();
        let grand = idx.postings_for("grand").unwrap();
        let entries: Vec<(u32, Vec<u32>)> = grand.iter().map(|p| (p.doc, p.positions)).collect();
        assert_eq!(entries, vec![(0, vec![4]), (1, vec![1])]);
        let the = idx.postings_for("the").unwrap();
        assert_eq!(the.collection_freq(), 2);
        assert_eq!(the.doc_count(), 2);
    }

    #[test]
    fn repeated_terms_in_one_doc() {
        let mut b = IndexBuilder::new();
        b.add_document("canal canal canal");
        let idx = b.build();
        let p = idx.postings_for("canal").unwrap();
        let e: Vec<DocPositions> = p.iter().map(|x| (x.doc, x.positions)).collect();
        assert_eq!(e, vec![(0, vec![0, 1, 2])]);
    }

    type DocPositions = (u32, Vec<u32>);

    #[test]
    fn unknown_terms() {
        let idx = tiny();
        assert!(idx.postings_for("missing").is_none());
    }

    #[test]
    fn collection_prob_sums_to_one_over_terms() {
        let idx = tiny();
        let total: f64 = (0..idx.num_terms())
            .map(|i| {
                idx.postings(TermId(i as u32)).collection_freq() as f64 / idx.total_tokens() as f64
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_is_applied() {
        let mut b = IndexBuilder::new();
        b.add_document("GONDOLA, Gondola; gondola!");
        let idx = b.build();
        assert_eq!(idx.postings_for("gondola").unwrap().collection_freq(), 3);
    }

    #[test]
    fn term_bounds_track_max_tf_and_min_len() {
        let mut b = IndexBuilder::new();
        b.add_document("canal canal canal gondola"); // len 4
        b.add_document("canal"); // len 1
        b.add_document(""); // len 0
        let idx = b.build();
        let canal = idx.term_id("canal").unwrap();
        assert_eq!(
            idx.term_bound(canal),
            TermBound {
                max_tf: 3,
                min_len: 1
            }
        );
        let gondola = idx.term_id("gondola").unwrap();
        assert_eq!(
            idx.term_bound(gondola),
            TermBound {
                max_tf: 1,
                min_len: 4
            }
        );
        assert_eq!(idx.min_doc_len(), 0, "the empty document is shortest");
    }

    #[test]
    fn min_doc_len_without_empty_docs() {
        let mut b = IndexBuilder::new();
        b.add_document("a b c");
        b.add_document("a b c d e");
        assert_eq!(b.build().min_doc_len(), 3);
        assert_eq!(IndexBuilder::new().build().min_doc_len(), 0);
    }

    #[test]
    fn epsilon_prob_positive() {
        let idx = tiny();
        assert!(idx.epsilon_prob() > 0.0);
        assert!(idx.epsilon_prob() < 1.0);
        let empty = IndexBuilder::new().build();
        assert!(empty.epsilon_prob() > 0.0);
    }
}
