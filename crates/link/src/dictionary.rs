//! The title dictionary: normalized article titles → article ids.
//!
//! Includes *all* articles — redirects too, since a redirect title is a
//! legitimate surface form of its main article ("articles with the less
//! used/common titles (redirect articles) point to the article with the
//! most common title", §1). The dictionary also records the maximum
//! title width in tokens, which bounds the linker's n-gram scan.

use querygraph_text::{tokenize, Interner};
use querygraph_wiki::{ArticleId, KnowledgeBase};
use std::collections::HashMap;

/// Immutable lookup table from normalized title phrases to articles.
#[derive(Debug)]
pub struct TitleDictionary {
    /// normalized title → article.
    by_title: HashMap<String, ArticleId>,
    /// Longest title, in tokens.
    max_tokens: usize,
    /// Terms that occur as the first token of some title — a cheap
    /// pre-filter that lets the linker skip windows that cannot start a
    /// title.
    first_tokens: Interner,
}

impl TitleDictionary {
    /// Build the dictionary for a knowledge base.
    pub(crate) fn build(kb: &KnowledgeBase) -> Self {
        let mut by_title = HashMap::with_capacity(kb.num_articles());
        let mut max_tokens = 1;
        let mut first_tokens = Interner::new();
        for a in kb.articles() {
            let toks = tokenize(kb.title(a));
            if toks.is_empty() {
                continue; // unreachable for validated KBs
            }
            max_tokens = max_tokens.max(toks.len());
            first_tokens.intern(&toks[0]);
            by_title.insert(toks.join(" "), a);
        }
        TitleDictionary {
            by_title,
            max_tokens,
            first_tokens,
        }
    }

    /// Look up a normalized phrase (tokens joined by single spaces).
    pub(crate) fn get(&self, normalized_phrase: &str) -> Option<ArticleId> {
        self.by_title.get(normalized_phrase).copied()
    }

    /// Longest title width in tokens.
    pub(crate) fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// True when some title starts with this token — used to prune the
    /// scan.
    pub(crate) fn could_start_title(&self, token: &str) -> bool {
        self.first_tokens.get(token).is_some()
    }

    /// Number of distinct (normalized) titles.
    pub fn len(&self) -> usize {
        self.by_title.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_wiki::fixture::venice_mini_wiki;

    #[test]
    fn contains_all_fixture_titles() {
        let kb = venice_mini_wiki();
        let d = TitleDictionary::build(&kb);
        assert_eq!(d.len(), kb.num_articles());
        for a in kb.articles() {
            let toks = tokenize(kb.title(a));
            assert_eq!(d.get(&toks.join(" ")), Some(a), "missing {}", kb.title(a));
        }
    }

    #[test]
    fn max_tokens_covers_longest_title() {
        let kb = venice_mini_wiki();
        let d = TitleDictionary::build(&kb);
        // "Hand-colouring of photographs" → 4 tokens.
        assert!(d.max_tokens() >= 4);
    }

    #[test]
    fn first_token_prefilter() {
        let kb = venice_mini_wiki();
        let d = TitleDictionary::build(&kb);
        assert!(d.could_start_title("grand")); // Grand Canal (Venice)
        assert!(d.could_start_title("bridge")); // Bridge of Sighs
        assert!(!d.could_start_title("zebra"));
    }

    #[test]
    fn lookup_is_normalized_form_only() {
        let kb = venice_mini_wiki();
        let d = TitleDictionary::build(&kb);
        assert_eq!(
            d.get("grand canal venice"),
            kb.article_by_title("Grand Canal (Venice)")
        );
        assert_eq!(d.get("Grand Canal (Venice)"), None, "raw form must miss");
    }

    #[test]
    fn redirect_titles_are_present() {
        let kb = venice_mini_wiki();
        let d = TitleDictionary::build(&kb);
        let r = d.get("ponte dei sospiri").unwrap();
        assert!(kb.is_redirect(r));
    }
}
