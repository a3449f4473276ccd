//! Linked mentions: where in the token stream an article was found.

use querygraph_wiki::ArticleId;

/// One entity mention found by the linker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mention {
    /// The matched article (may be a redirect article; callers resolve).
    pub(crate) article: ArticleId,
    /// Start token index in the normalized input.
    pub(crate) start: usize,
    /// Width in tokens.
    pub(crate) len: usize,
    /// True when the match came from a synonym phrase rather than the
    /// literal input (§2.1's redirect-derived variants).
    pub(crate) via_synonym: bool,
}

impl Mention {
    /// One-past-the-end token index.
    pub(crate) fn end(&self) -> usize {
        self.start + self.len
    }

    /// True when this mention overlaps `other` in the token stream: the
    /// reference the linker's non-overlap test checks its scan against.
    #[cfg(test)]
    pub(crate) fn overlaps(&self, other: &Mention) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(start: usize, len: usize) -> Mention {
        Mention {
            article: ArticleId(0),
            start,
            len,
            via_synonym: false,
        }
    }

    #[test]
    fn end_is_exclusive() {
        assert_eq!(m(2, 3).end(), 5);
    }

    #[test]
    fn overlap_cases() {
        assert!(m(0, 3).overlaps(&m(2, 2)));
        assert!(m(2, 2).overlaps(&m(0, 3)));
        assert!(!m(0, 2).overlaps(&m(2, 2))); // adjacent, not overlapping
        assert!(m(1, 5).overlaps(&m(2, 1))); // containment
    }
}
