//! Redirect-derived synonyms (§2.1).
//!
//! "Given a term t, we retrieve (if it exists) the article a from
//! Wikipedia whose title is equal to t. Then, the synonyms of t are the
//! titles of the redirects of a." Symmetrically, when `t` is itself a
//! redirect title, the main article's title (and its sibling redirects)
//! are synonyms — that is what lets "regata" reach "Regatta".

use querygraph_text::normalize;
use querygraph_wiki::KnowledgeBase;

/// Synonym surface forms for a term (normalized output, the term itself
/// excluded). Empty when the term matches no title.
pub(crate) fn synonyms_for_term(kb: &KnowledgeBase, term: &str) -> Vec<String> {
    let norm = normalize(term);
    let Some(article) = kb.article_by_normalized_title(&norm) else {
        return Vec::new();
    };
    let main = kb.resolve_redirect(article);
    let mut out = Vec::new();
    // The main title (unless the term *is* the main title).
    let main_title = normalize(kb.title(main));
    if main_title != norm {
        out.push(main_title);
    }
    // Every redirect title other than the input itself.
    for r in kb.redirects_of(main) {
        let t = normalize(kb.title(*r));
        if t != norm {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_wiki::fixture::venice_mini_wiki;

    #[test]
    fn main_title_yields_redirect_titles() {
        let kb = venice_mini_wiki();
        let syns = synonyms_for_term(&kb, "Venice");
        assert_eq!(syns, vec!["la serenissima"]);
    }

    #[test]
    fn redirect_title_yields_main() {
        let kb = venice_mini_wiki();
        let syns = synonyms_for_term(&kb, "Regata");
        assert_eq!(syns, vec!["regatta"]);
    }

    #[test]
    fn unknown_term_has_no_synonyms() {
        let kb = venice_mini_wiki();
        assert!(synonyms_for_term(&kb, "zebra").is_empty());
    }

    #[test]
    fn article_without_redirects() {
        let kb = venice_mini_wiki();
        assert!(synonyms_for_term(&kb, "Sheep").is_empty());
    }

    #[test]
    fn normalization_applies_to_input() {
        let kb = venice_mini_wiki();
        assert_eq!(synonyms_for_term(&kb, "VENICE!"), vec!["la serenissima"]);
    }
}
