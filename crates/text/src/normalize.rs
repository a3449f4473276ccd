//! Canonical text normalization.
//!
//! Every string that participates in matching — article titles, query
//! keywords, document text — is folded through [`normalize`] before being
//! compared or indexed. The transform is deliberately simple and total
//! (never fails, never panics):
//!
//! 1. Unicode characters from the Latin-1/Latin-Extended accent ranges are
//!    folded to their ASCII base letter (`é` → `e`, `ß` → `ss`). Wikipedia
//!    titles are full of diacritics ("Bouches-du-Rhône") while query
//!    keyboards often produce plain ASCII; folding both sides closes that
//!    gap.
//! 2. Everything is lowercased.
//! 3. Any non-alphanumeric character becomes a single space; runs of
//!    whitespace collapse; leading/trailing whitespace is trimmed.
//!
//! The result is a space-separated sequence of lowercase alphanumeric
//! words, which is exactly the token stream [`crate::tokenize()`]
//! produces.

/// Fold one character to zero or more ASCII characters.
///
/// Covers the accented Latin ranges that occur in Wikipedia titles. Any
/// other non-ASCII alphanumeric character is kept as-is (the tokenizer
/// treats it as a word character), so e.g. CJK text survives untouched.
fn fold_char(c: char, out: &mut String) {
    match c {
        'à' | 'á' | 'â' | 'ã' | 'ä' | 'å' | 'ā' | 'ă' | 'ą' => out.push('a'),
        'À' | 'Á' | 'Â' | 'Ã' | 'Ä' | 'Å' | 'Ā' | 'Ă' | 'Ą' => out.push('a'),
        'è' | 'é' | 'ê' | 'ë' | 'ē' | 'ĕ' | 'ė' | 'ę' | 'ě' => out.push('e'),
        'È' | 'É' | 'Ê' | 'Ë' | 'Ē' | 'Ĕ' | 'Ė' | 'Ę' | 'Ě' => out.push('e'),
        'ì' | 'í' | 'î' | 'ï' | 'ĩ' | 'ī' | 'ĭ' | 'į' | 'ı' => out.push('i'),
        'Ì' | 'Í' | 'Î' | 'Ï' | 'Ĩ' | 'Ī' | 'Ĭ' | 'Į' | 'İ' => out.push('i'),
        'ò' | 'ó' | 'ô' | 'õ' | 'ö' | 'ø' | 'ō' | 'ŏ' | 'ő' => out.push('o'),
        'Ò' | 'Ó' | 'Ô' | 'Õ' | 'Ö' | 'Ø' | 'Ō' | 'Ŏ' | 'Ő' => out.push('o'),
        'ù' | 'ú' | 'û' | 'ü' | 'ũ' | 'ū' | 'ŭ' | 'ů' | 'ű' | 'ų' => out.push('u'),
        'Ù' | 'Ú' | 'Û' | 'Ü' | 'Ũ' | 'Ū' | 'Ŭ' | 'Ů' | 'Ű' | 'Ų' => out.push('u'),
        'ý' | 'ÿ' | 'Ý' | 'Ÿ' => out.push('y'),
        'ñ' | 'ń' | 'ņ' | 'ň' | 'Ñ' | 'Ń' | 'Ņ' | 'Ň' => out.push('n'),
        'ç' | 'ć' | 'ĉ' | 'č' | 'Ç' | 'Ć' | 'Ĉ' | 'Č' => out.push('c'),
        'š' | 'ś' | 'ş' | 'Š' | 'Ś' | 'Ş' => out.push('s'),
        'ž' | 'ź' | 'ż' | 'Ž' | 'Ź' | 'Ż' => out.push('z'),
        'ł' | 'Ł' => out.push('l'),
        'đ' | 'Đ' | 'ð' | 'Ð' => out.push('d'),
        'ğ' | 'Ğ' | 'ĝ' | 'Ĝ' => out.push('g'),
        'ť' | 'Ť' | 'ţ' | 'Ţ' => out.push('t'),
        'ř' | 'Ř' | 'ŕ' | 'Ŕ' => out.push('r'),
        'ß' => out.push_str("ss"),
        'æ' | 'Æ' => out.push_str("ae"),
        'œ' | 'Œ' => out.push_str("oe"),
        'þ' | 'Þ' => out.push_str("th"),
        _ => out.push(c),
    }
}

/// Normalize `input` into a fresh `String`. See the module docs for the
/// exact transform.
///
/// ```
/// use querygraph_text::normalize;
/// assert_eq!(normalize("Bouches-du-Rhône"), "bouches du rhone");
/// assert_eq!(normalize("  Ponte  dei Sospiri. "), "ponte dei sospiri");
/// assert_eq!(normalize(""), "");
/// ```
pub fn normalize(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    normalize_into(input, &mut out);
    out
}

/// Normalize `input` into `out`, which is cleared first.
fn normalize_into(input: &str, out: &mut String) {
    out.clear();
    let mut folded = String::with_capacity(input.len());
    for c in input.chars() {
        fold_char(c, &mut folded);
    }
    let mut pending_space = false;
    for c in folded.chars() {
        if c.is_alphanumeric() {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            for lc in c.to_lowercase() {
                out.push(lc);
            }
        } else {
            pending_space = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases() {
        assert_eq!(normalize("VENICE"), "venice");
    }

    #[test]
    fn strips_punctuation_to_single_spaces() {
        assert_eq!(normalize("gondola, in; venice!"), "gondola in venice");
    }

    #[test]
    fn collapses_whitespace_runs() {
        assert_eq!(normalize("a \t\n  b"), "a b");
    }

    #[test]
    fn trims_edges() {
        assert_eq!(normalize("  venice  "), "venice");
        assert_eq!(normalize("...venice..."), "venice");
    }

    #[test]
    fn folds_accents() {
        assert_eq!(normalize("Palazzo Bembó"), "palazzo bembo");
        assert_eq!(normalize("Rhône"), "rhone");
        assert_eq!(normalize("Größe"), "grosse");
        assert_eq!(normalize("Œuvre"), "oeuvre");
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(normalize("1712 establishments"), "1712 establishments");
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("!!! --- ???"), "");
    }

    #[test]
    fn parenthetical_titles() {
        // Wikipedia disambiguation suffixes become plain words.
        assert_eq!(normalize("Grand Canal (Venice)"), "grand canal venice");
    }

    #[test]
    fn normalize_into_reuses_buffer() {
        let mut buf = String::new();
        normalize_into("First Title", &mut buf);
        assert_eq!(buf, "first title");
        normalize_into("B", &mut buf);
        assert_eq!(buf, "b");
    }

    proptest::proptest! {
        /// normalize is idempotent and produces only lowercase
        /// alphanumerics + single spaces for any input.
        #[test]
        fn idempotent_and_canonical(input in ".{0,60}") {
            let once = normalize(&input);
            proptest::prop_assert_eq!(&normalize(&once), &once);
            proptest::prop_assert!(!once.starts_with(' '));
            proptest::prop_assert!(!once.ends_with(' '));
            proptest::prop_assert!(!once.contains("  "));
            for c in once.chars() {
                // ASCII output is strictly lowercase alphanumerics and
                // single spaces. Non-ASCII alphanumerics pass through;
                // a few (e.g. '𝐀') have no lowercase mapping at all, so
                // only idempotence is guaranteed for them.
                if c.is_ascii() {
                    proptest::prop_assert!(
                        c == ' ' || c.is_ascii_lowercase() || c.is_ascii_digit(),
                        "unexpected ASCII char {:?} in {:?}", c, once
                    );
                } else {
                    proptest::prop_assert!(
                        c.is_alphanumeric(),
                        "unexpected char {:?} in {:?}", c, once
                    );
                }
            }
        }
    }

    #[test]
    fn idempotent() {
        for s in ["Grand Canal (Venice)", "Bouches-du-Rhône", "  a  b  "] {
            let once = normalize(s);
            assert_eq!(normalize(&once), once, "normalize must be idempotent");
        }
    }
}
