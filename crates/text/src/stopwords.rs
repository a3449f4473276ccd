//! A compact English stopword list.
//!
//! The entity linker skips mentions that consist *only* of stopwords
//! ("in", "the") — matching such words against article titles would link
//! every preposition to a disambiguation page. The list is intentionally
//! short: the paper's linking strategy is title-driven, so aggressive
//! stopword removal would destroy multi-word titles like "Bridge of
//! Sighs" (the "of" must survive inside phrases; only *whole* mentions of
//! stopwords are dropped).

/// Sorted list of stopwords; `is_stopword` binary-searches it.
static STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "all", "am", "an", "and", "any", "are",
    "as", "at", "be", "because", "been", "before", "being", "below", "between", "both", "but",
    "by", "can", "could", "did", "do", "does", "doing", "down", "during", "each", "few", "for",
    "from", "further", "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his",
    "how", "i", "if", "in", "into", "is", "it", "its", "itself", "just", "me", "more", "most",
    "my", "no", "nor", "not", "now", "of", "off", "on", "once", "only", "or", "other", "our",
    "ours", "out", "over", "own", "same", "she", "should", "so", "some", "such", "than", "that",
    "the", "their", "theirs", "them", "then", "there", "these", "they", "this", "those", "through",
    "to", "too", "under", "until", "up", "very", "was", "we", "were", "what", "when", "where",
    "which", "while", "who", "whom", "why", "will", "with", "would", "you", "your", "yours",
];

/// True when `word` (already normalized/lowercase) is an English
/// stopword.
///
/// ```
/// use querygraph_text::is_stopword;
/// assert!(is_stopword("the"));
/// assert!(!is_stopword("gondola"));
/// ```
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_deduplicated() {
        // Binary search correctness depends on this invariant.
        for pair in STOPWORDS.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{:?} must precede {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn common_function_words_are_stopwords() {
        for w in ["the", "of", "in", "and", "is"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["venice", "gondola", "anthrax", "graffiti"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }
}
