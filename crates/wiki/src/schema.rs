//! Entity types of the Wikipedia schema (paper Fig. 1, Table 1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an article (dense, assigned in insertion order by
/// [`crate::KbBuilder`]). Articles — including redirect articles — occupy
/// graph node ids `0..num_articles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArticleId(pub u32);

/// Identifier of a category (dense). Category `c` occupies graph node id
/// `num_articles + c.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CategoryId(pub(crate) u32);

impl ArticleId {
    /// The id as a `usize` for indexing side tables.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl CategoryId {
    /// The id as a `usize` for indexing side tables.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArticleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for CategoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A Wikipedia article: "describes a single topic, and has a title that
/// … must be recognizable, natural, precise, concise and consistent"
/// (§2). A redirect article carries `redirect_to = Some(main)` and, per
/// the schema, has no categories and no outgoing links of its own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Article {
    /// Display title (original casing preserved).
    pub(crate) title: String,
    /// `Some(main)` when this article is a redirect to `main`.
    pub(crate) redirect_to: Option<ArticleId>,
}

impl Article {
    /// A plain (non-redirect) article.
    pub(crate) fn new(title: impl Into<String>) -> Self {
        Article {
            title: title.into(),
            redirect_to: None,
        }
    }

    /// A redirect article pointing at `main`.
    pub(crate) fn redirect(title: impl Into<String>, main: ArticleId) -> Self {
        Article {
            title: title.into(),
            redirect_to: Some(main),
        }
    }

    /// True when this is a redirect article.
    pub(crate) fn is_redirect(&self) -> bool {
        self.redirect_to.is_some()
    }
}

/// A Wikipedia category. Categories group articles (`belongs`) and nest
/// inside other categories (`inside`), forming a tree-like structure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Category {
    /// Category name (original casing preserved).
    pub(crate) name: String,
}

impl Category {
    /// A category with the given name.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Category { name: name.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn article_constructors() {
        let a = Article::new("Venice");
        assert!(!a.is_redirect());
        let r = Article::redirect("Ponte dei Sospiri", ArticleId(3));
        assert!(r.is_redirect());
        assert_eq!(r.redirect_to, Some(ArticleId(3)));
    }

    #[test]
    fn id_display() {
        assert_eq!(ArticleId(7).to_string(), "a7");
        assert_eq!(CategoryId(2).to_string(), "c2");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(ArticleId(1) < ArticleId(2));
        assert!(CategoryId(0) < CategoryId(9));
    }
}
