//! Exact-phrase matching — the `#1(...)` operator.
//!
//! A phrase matches at position `p` of a document when term `i` of the
//! phrase occurs at position `p + i` for every `i`. The paper's
//! ground-truth queries are built exclusively from exact title phrases
//! (§2.2: "based on exact phrase matching"), so this is the hot path of
//! the whole reproduction.
//!
//! The matcher walks the phrase terms' postings cursors in lockstep
//! (they are doc-ordered) on `(doc, tf)` alone. Positions are decoded
//! only for a document every term shares, into buffers reused for the
//! whole phrase, and intersected with offsets; a one-word phrase is its
//! term's `(doc, tf)` list and never touches positions.

use crate::index::InvertedIndex;
use crate::postings::PostingsCursor;
use querygraph_text::TermId;

/// Phrase occurrences in one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhraseHit {
    /// Document id.
    pub doc: u32,
    /// Number of exact occurrences (the phrase "term frequency").
    pub tf: u32,
}

/// Match an exact phrase given its term ids. Returns hits in doc-id
/// order plus the phrase collection frequency (sum of tfs).
///
/// An empty phrase or a phrase with any unknown term matches nothing.
pub(crate) fn match_phrase(index: &InvertedIndex, terms: &[TermId]) -> Vec<PhraseHit> {
    match terms {
        [] => return Vec::new(),
        [term] => {
            let list = index.postings(*term);
            let mut cursor = list.cursor();
            let mut hits = Vec::with_capacity(list.doc_count() as usize);
            while let Some((doc, tf)) = cursor.next_entry() {
                hits.push(PhraseHit { doc, tf });
            }
            return hits;
        }
        _ => {}
    }
    let mut cursors: Vec<PostingsCursor<'_>> =
        terms.iter().map(|&t| index.postings(t).cursor()).collect();
    let mut hits = Vec::new();
    // Each cursor's current doc, advanced in lockstep.
    let mut current: Vec<u32> = Vec::with_capacity(cursors.len());
    for c in &mut cursors {
        match c.next_entry() {
            Some((doc, _)) => current.push(doc),
            None => return hits,
        }
    }
    let mut positions: Vec<Vec<u32>> = vec![Vec::new(); cursors.len()];

    loop {
        // Every cursor must reach the maximum current doc.
        let target = current.iter().copied().max().unwrap_or(0);
        let mut aligned = true;
        for (c, doc) in cursors.iter_mut().zip(current.iter_mut()) {
            while *doc < target {
                match c.next_entry() {
                    Some((d, _)) => *doc = d,
                    None => return hits,
                }
            }
            // Overshot: a new round with a larger target.
            aligned &= *doc == target;
        }
        if aligned {
            // All aligned on `target`: decode positions and count
            // consecutive-position matches.
            for (c, buf) in cursors.iter_mut().zip(positions.iter_mut()) {
                if c.positions_into(buf).is_none() {
                    return hits;
                }
            }
            let tf = count_phrase_occurrences(&positions);
            if tf > 0 {
                hits.push(PhraseHit { doc: target, tf });
            }
            // Advance every cursor past `target`.
            for (c, doc) in cursors.iter_mut().zip(current.iter_mut()) {
                match c.next_entry() {
                    Some((d, _)) => *doc = d,
                    None => return hits,
                }
            }
        }
    }
}

/// Count positions `p` such that term `i`'s positions contain `p + i`.
/// A position where `p + i` overflows `u32` cannot start an occurrence
/// (validated segments bound positions only by order, not by document
/// length).
fn count_phrase_occurrences(positions: &[Vec<u32>]) -> u32 {
    let mut tf = 0u32;
    'pos: for &p in &positions[0] {
        for (i, term_positions) in positions.iter().enumerate().skip(1) {
            let Some(want) = p.checked_add(i as u32) else {
                continue 'pos;
            };
            if term_positions.binary_search(&want).is_err() {
                continue 'pos;
            }
        }
        tf += 1;
    }
    tf
}

/// Resolve a phrase's words to term ids; `None` if any word is unknown
/// to the index (the phrase then cannot match and its collection
/// frequency is zero).
pub(crate) fn resolve_terms(index: &InvertedIndex, words: &[String]) -> Option<Vec<TermId>> {
    words.iter().map(|w| index.term_id(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexBuilder, TermBound};
    use crate::postings::PostingsBuilder;
    use querygraph_text::Interner;

    fn idx() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document("the grand canal of venice is a grand canal"); // 0
        b.add_document("grand hotel on the canal"); // 1
        b.add_document("canal grand"); // 2 (reversed: no match)
        b.add_document("grand canal grand canal grand canal"); // 3
        b.build()
    }

    fn phrase(index: &InvertedIndex, words: &[&str]) -> Vec<PhraseHit> {
        let words: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        match resolve_terms(index, &words) {
            Some(terms) => match_phrase(index, &terms),
            None => Vec::new(),
        }
    }

    #[test]
    fn exact_adjacency_required() {
        let index = idx();
        let hits = phrase(&index, &["grand", "canal"]);
        assert_eq!(
            hits,
            vec![PhraseHit { doc: 0, tf: 2 }, PhraseHit { doc: 3, tf: 3 },]
        );
    }

    #[test]
    fn order_matters() {
        let index = idx();
        let hits = phrase(&index, &["canal", "grand"]);
        // doc 2 "canal grand" and doc 3 "…canal grand canal…" twice.
        assert_eq!(
            hits,
            vec![PhraseHit { doc: 2, tf: 1 }, PhraseHit { doc: 3, tf: 2 },]
        );
    }

    #[test]
    fn single_term_phrase_is_term_lookup() {
        let index = idx();
        let hits = phrase(&index, &["hotel"]);
        assert_eq!(hits, vec![PhraseHit { doc: 1, tf: 1 }]);
    }

    #[test]
    fn three_word_phrase() {
        let index = idx();
        let hits = phrase(&index, &["grand", "canal", "of"]);
        assert_eq!(hits, vec![PhraseHit { doc: 0, tf: 1 }]);
    }

    #[test]
    fn unknown_word_matches_nothing() {
        let index = idx();
        assert!(phrase(&index, &["grand", "missing"]).is_empty());
    }

    #[test]
    fn empty_phrase_matches_nothing() {
        let index = idx();
        assert!(match_phrase(&index, &[]).is_empty());
    }

    #[test]
    fn position_at_u32_max_starts_no_occurrence() {
        // Segment validation bounds positions by order, not by document
        // length, so a crafted segment can hold a term at u32::MAX; the
        // adjacency offset must neither panic nor wrap around to 0.
        let mut interner = Interner::new();
        let first = interner.intern("alpha");
        let second = interner.intern("beta");
        let mut a = PostingsBuilder::new();
        a.push(0, &[u32::MAX]);
        let mut b = PostingsBuilder::new();
        b.push(0, &[0]);
        let index = InvertedIndex::from_parts(
            interner,
            vec![a.build(), b.build()],
            vec![TermBound::EMPTY; 2],
            vec![2],
            2,
        );
        assert!(match_phrase(&index, &[first, second]).is_empty());
    }

    #[test]
    fn phrase_never_exceeds_min_term_tf() {
        let index = idx();
        let hits = phrase(&index, &["grand", "canal"]);
        for h in hits {
            let g = index.postings_for("grand").unwrap();
            let tf_grand = g
                .iter()
                .find(|p| p.doc == h.doc)
                .map(|p| p.positions.len() as u32)
                .unwrap_or(0);
            assert!(h.tf <= tf_grand);
        }
    }

    proptest::proptest! {
        /// The lockstep matcher must agree with a naive scan over the
        /// original token streams.
        #[test]
        fn matches_naive_scan(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..4, 0..30),
                1..8,
            ),
            phrase_words in proptest::collection::vec(0u8..4, 1..4),
        ) {
            let word = |b: u8| ["alpha", "beta", "gamma", "delta"][b as usize];
            let mut builder = IndexBuilder::new();
            for d in &docs {
                let text: Vec<&str> = d.iter().map(|&b| word(b)).collect();
                builder.add_document(&text.join(" "));
            }
            let index = builder.build();
            let words: Vec<String> =
                phrase_words.iter().map(|&b| word(b).to_string()).collect();
            let fast = match resolve_terms(&index, &words) {
                Some(terms) => match_phrase(&index, &terms),
                None => Vec::new(),
            };
            // Naive scan.
            let mut naive = Vec::new();
            for (di, d) in docs.iter().enumerate() {
                let tokens: Vec<&str> = d.iter().map(|&b| word(b)).collect();
                let mut tf = 0u32;
                if tokens.len() >= words.len() {
                    for start in 0..=(tokens.len() - words.len()) {
                        if (0..words.len()).all(|i| tokens[start + i] == words[i]) {
                            tf += 1;
                        }
                    }
                }
                if tf > 0 {
                    naive.push(PhraseHit { doc: di as u32, tf });
                }
            }
            proptest::prop_assert_eq!(fast, naive);
        }
    }
}
