//! Knowledge-base-level structural statistics.
//!
//! The headline number is [`kb_stats`]'s `link_reciprocity`: the paper
//! measures that "among all pairs of articles that are connected, 11.47 %
//! form a cycle of length 2" (§3). The synthetic generator is calibrated
//! against this value; `repro_stats` prints paper-vs-measured.

use crate::kb::KnowledgeBase;
use querygraph_graph::stats::link_reciprocity;

/// Aggregate statistics of a knowledge base.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KbStats {
    /// Total articles (redirects included).
    pub(crate) articles: usize,
    /// Redirect articles.
    pub(crate) redirects: usize,
    /// Categories.
    pub(crate) categories: usize,
    /// Directed wiki-link count.
    pub(crate) links: usize,
    /// `belongs` edge count.
    pub(crate) belongs: usize,
    /// `inside` edge count.
    pub(crate) inside: usize,
    /// Fraction of link-connected article pairs with reciprocal links
    /// (paper: 0.1147 for Wikipedia). `None` when there are no links.
    pub link_reciprocity: Option<f64>,
    /// Mean categories per non-redirect article (≥ 1 by schema).
    pub(crate) mean_categories_per_article: f64,
}

/// Compute [`KbStats`] for `kb`.
pub fn kb_stats(kb: &KnowledgeBase) -> KbStats {
    let redirects = kb.articles().filter(|&a| kb.is_redirect(a)).count();
    let mains = kb.num_articles() - redirects;
    let total_cats: usize = kb.main_articles().map(|a| kb.categories_of(a).len()).sum();
    KbStats {
        articles: kb.num_articles(),
        redirects,
        categories: kb.num_categories(),
        links: kb.links().len(),
        belongs: kb.belongs().len(),
        inside: kb.inside().len(),
        link_reciprocity: link_reciprocity(kb.graph()),
        mean_categories_per_article: if mains == 0 {
            0.0
        } else {
            total_cats as f64 / mains as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;
    use crate::fixture::venice_mini_wiki;

    #[test]
    fn fixture_stats_are_consistent() {
        let kb = venice_mini_wiki();
        let s = kb_stats(&kb);
        assert_eq!(s.articles, 22);
        assert_eq!(s.redirects, 5);
        assert_eq!(s.categories, 14);
        assert!(s.mean_categories_per_article >= 1.0);
        let r = s.link_reciprocity.unwrap();
        assert!(r > 0.0 && r < 1.0, "fixture mixes reciprocal/one-way: {r}");
    }

    #[test]
    fn reciprocity_none_without_links() {
        let mut b = KbBuilder::new();
        let a = b.add_article("Lonely");
        let c = b.add_category("Things");
        b.belongs(a, c);
        let s = kb_stats(&b.build().unwrap());
        assert_eq!(s.link_reciprocity, None);
        assert_eq!(s.links, 0);
    }

    #[test]
    fn mean_categories_counts_mains_only() {
        let mut b = KbBuilder::new();
        let a = b.add_article("Main");
        let c1 = b.add_category("One");
        let c2 = b.add_category("Two");
        b.belongs(a, c1);
        b.belongs(a, c2);
        b.add_redirect("Alias", a);
        let s = kb_stats(&b.build().unwrap());
        assert_eq!(s.mean_categories_per_article, 2.0);
    }
}
