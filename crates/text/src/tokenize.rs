//! Position-aware word tokenization.
//!
//! Tokens are maximal runs of alphanumeric characters in *normalized* text
//! (see [`crate::normalize()`]). Each token carries its word `position`
//! (0-based index in the token sequence), which the positional inverted
//! index in `querygraph-retrieval` uses for exact-phrase matching — the
//! `#1(...)` operator of the INDRI query language the paper relies on
//! (§2.2).

use crate::normalize::normalize;

/// One token of a tokenized text: the word itself plus its 0-based word
/// position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Normalized word text (lowercase alphanumeric).
    pub text: String,
    /// 0-based position in the token sequence.
    pub position: u32,
}

/// Tokenize `input` (normalizing first) into plain words.
///
/// ```
/// use querygraph_text::tokenize;
/// assert_eq!(tokenize("Gondola in Venice"), vec!["gondola", "in", "venice"]);
/// assert!(tokenize("").is_empty());
/// ```
pub fn tokenize(input: &str) -> Vec<String> {
    normalize(input)
        .split(' ')
        .filter(|w| !w.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Tokenize `input` (normalizing first) into [`Token`]s with word
/// positions.
///
/// ```
/// use querygraph_text::tokenize_positions;
/// let toks = tokenize_positions("bridge of sighs");
/// assert_eq!(toks[2].text, "sighs");
/// assert_eq!(toks[2].position, 2);
/// ```
pub fn tokenize_positions(input: &str) -> Vec<Token> {
    normalize(input)
        .split(' ')
        .filter(|w| !w.is_empty())
        .enumerate()
        .map(|(i, w)| Token {
            text: w.to_owned(),
            position: i as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            tokenize("visitor-attractions, in\tVenice"),
            vec!["visitor", "attractions", "in", "venice"]
        );
    }

    #[test]
    fn positions_are_sequential() {
        let toks = tokenize_positions("a b c d");
        let positions: Vec<u32> = toks.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize_positions("").is_empty());
        assert!(tokenize_positions("—!…").is_empty());
    }

    #[test]
    fn tokens_are_normalized() {
        let toks = tokenize("CENTAUREA Cyanus");
        assert_eq!(toks, vec!["centaurea", "cyanus"]);
    }
}
