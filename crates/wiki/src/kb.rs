//! The frozen knowledge base: entity storage, title lookup, redirect
//! resolution and projection onto a [`TypedGraph`].
//!
//! ## Node-id layout
//!
//! Article `a` occupies graph node `a.0`; category `c` occupies node
//! `num_articles + c.0`. This makes "is this node an article?" a range
//! check — the cycle analysis (§3) relies on it to count category ratios
//! cheaply.

use crate::schema::{Article, ArticleId, Category, CategoryId};
use querygraph_graph::{EdgeType, GraphBuilder, TypedGraph};
use querygraph_text::normalize;
use std::collections::HashMap;

/// An immutable Wikipedia knowledge base. Build via
/// [`crate::KbBuilder`], load via [`crate::serialize`], or generate via
/// [`crate::synth`] / [`crate::fixture`].
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    articles: Vec<Article>,
    categories: Vec<Category>,
    links: Vec<(ArticleId, ArticleId)>,
    belongs: Vec<(ArticleId, CategoryId)>,
    inside: Vec<(CategoryId, CategoryId)>,
    title_index: HashMap<String, ArticleId>,
    categories_of: Vec<Vec<CategoryId>>,
    redirects_of: Vec<Vec<ArticleId>>,
    graph: TypedGraph,
}

impl KnowledgeBase {
    pub(crate) fn from_parts(
        articles: Vec<Article>,
        categories: Vec<Category>,
        links: Vec<(ArticleId, ArticleId)>,
        belongs: Vec<(ArticleId, CategoryId)>,
        inside: Vec<(CategoryId, CategoryId)>,
        title_index: HashMap<String, ArticleId>,
    ) -> Self {
        let n_articles = articles.len() as u32;
        let n_total = n_articles + categories.len() as u32;

        let mut categories_of: Vec<Vec<CategoryId>> = vec![Vec::new(); articles.len()];
        for &(a, c) in &belongs {
            categories_of[a.index()].push(c);
        }
        for v in &mut categories_of {
            v.sort_unstable();
            v.dedup();
        }

        let mut redirects_of: Vec<Vec<ArticleId>> = vec![Vec::new(); articles.len()];
        for (i, art) in articles.iter().enumerate() {
            if let Some(m) = art.redirect_to {
                redirects_of[m.index()].push(ArticleId(i as u32));
            }
        }

        let mut gb = GraphBuilder::with_capacity(
            n_total,
            links.len() + belongs.len() + inside.len() + articles.len(),
        );
        for &(a, b) in &links {
            if a != b {
                gb.add_edge(a.0, b.0, EdgeType::Link);
            }
        }
        for &(a, c) in &belongs {
            gb.add_edge(a.0, n_articles + c.0, EdgeType::Belongs);
        }
        for &(c, p) in &inside {
            if c != p {
                gb.add_edge(n_articles + c.0, n_articles + p.0, EdgeType::Inside);
            }
        }
        for (i, art) in articles.iter().enumerate() {
            if let Some(m) = art.redirect_to {
                gb.add_edge(i as u32, m.0, EdgeType::Redirect);
            }
        }

        KnowledgeBase {
            articles,
            categories,
            links,
            belongs,
            inside,
            title_index,
            categories_of,
            redirects_of,
            graph: gb.build(),
        }
    }

    // ------------------------------------------------------------------
    // Entity accessors
    // ------------------------------------------------------------------

    /// Number of articles, redirects included.
    pub fn num_articles(&self) -> usize {
        self.articles.len()
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.categories.len()
    }

    /// The article record for `a`.
    pub(crate) fn article(&self, a: ArticleId) -> &Article {
        &self.articles[a.index()]
    }

    /// Display title of `a`.
    pub fn title(&self, a: ArticleId) -> &str {
        &self.articles[a.index()].title
    }

    /// Display name of category `c`.
    pub(crate) fn category_name(&self, c: CategoryId) -> &str {
        &self.categories[c.index()].name
    }

    /// Look up an article by title (normalized comparison).
    pub fn article_by_title(&self, title: &str) -> Option<ArticleId> {
        self.title_index.get(&normalize(title)).copied()
    }

    /// Look up by an *already normalized* title (hot path for the entity
    /// linker, which normalizes input text once).
    pub fn article_by_normalized_title(&self, normalized: &str) -> Option<ArticleId> {
        self.title_index.get(normalized).copied()
    }

    /// Iterate all article ids.
    pub fn articles(&self) -> impl Iterator<Item = ArticleId> + '_ {
        (0..self.articles.len() as u32).map(ArticleId)
    }

    /// Iterate all category ids.
    pub(crate) fn category_ids(&self) -> impl Iterator<Item = CategoryId> + '_ {
        (0..self.categories.len() as u32).map(CategoryId)
    }

    /// Iterate ids of non-redirect articles only.
    pub fn main_articles(&self) -> impl Iterator<Item = ArticleId> + '_ {
        self.articles().filter(|&a| !self.is_redirect(a))
    }

    // ------------------------------------------------------------------
    // Redirects (§2.1: synonyms come from redirect titles)
    // ------------------------------------------------------------------

    /// True when `a` is a redirect article.
    pub fn is_redirect(&self, a: ArticleId) -> bool {
        self.articles[a.index()].is_redirect()
    }

    /// Resolve `a` to its main article (identity for non-redirects).
    pub fn resolve_redirect(&self, a: ArticleId) -> ArticleId {
        self.articles[a.index()].redirect_to.unwrap_or(a)
    }

    /// The redirect articles pointing at `a` ("the synonyms of t are the
    /// titles of the redirects of a", §2.1).
    pub fn redirects_of(&self, a: ArticleId) -> &[ArticleId] {
        &self.redirects_of[a.index()]
    }

    // ------------------------------------------------------------------
    // Categories
    // ------------------------------------------------------------------

    /// The categories `a` belongs to (sorted, deduplicated). Empty only
    /// for redirect articles.
    pub fn categories_of(&self, a: ArticleId) -> &[CategoryId] {
        &self.categories_of[a.index()]
    }

    // ------------------------------------------------------------------
    // Raw relations (for serialization and stats)
    // ------------------------------------------------------------------

    /// All `link` pairs as recorded.
    pub fn links(&self) -> &[(ArticleId, ArticleId)] {
        &self.links
    }

    /// All `belongs` pairs as recorded.
    pub(crate) fn belongs(&self) -> &[(ArticleId, CategoryId)] {
        &self.belongs
    }

    /// All `inside` pairs as recorded.
    pub(crate) fn inside(&self) -> &[(CategoryId, CategoryId)] {
        &self.inside
    }

    // ------------------------------------------------------------------
    // Graph projection
    // ------------------------------------------------------------------

    /// The typed graph over all articles and categories. Node-id layout:
    /// articles first, categories after (see module docs).
    pub fn graph(&self) -> &TypedGraph {
        &self.graph
    }

    /// Graph node id of article `a`.
    #[inline]
    pub fn article_node(&self, a: ArticleId) -> u32 {
        a.0
    }

    /// Graph node id of category `c`.
    #[inline]
    pub fn category_node(&self, c: CategoryId) -> u32 {
        self.articles.len() as u32 + c.0
    }

    /// True when graph node `u` is an article (redirects included).
    #[inline]
    pub(crate) fn node_is_article(&self, u: u32) -> bool {
        (u as usize) < self.articles.len()
    }

    /// True when graph node `u` is a category.
    #[inline]
    pub fn node_is_category(&self, u: u32) -> bool {
        !self.node_is_article(u) && (u as usize) < self.articles.len() + self.categories.len()
    }

    /// Map a graph node back to an article id, if it is one.
    #[inline]
    pub fn node_article(&self, u: u32) -> Option<ArticleId> {
        self.node_is_article(u).then_some(ArticleId(u))
    }

    /// Map a graph node back to a category id, if it is one.
    #[inline]
    pub(crate) fn node_category(&self, u: u32) -> Option<CategoryId> {
        self.node_is_category(u)
            .then(|| CategoryId(u - self.articles.len() as u32))
    }

    /// Human-readable label of a graph node (title or category name) —
    /// used by examples and debug output.
    pub fn node_label(&self, u: u32) -> &str {
        if let Some(a) = self.node_article(u) {
            self.title(a)
        } else if let Some(c) = self.node_category(u) {
            self.category_name(c)
        } else {
            "<out of range>"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;

    fn small_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let venice = b.add_article("Venice");
        let gondola = b.add_article("Gondola");
        let canal = b.add_article("Grand Canal (Venice)");
        let cities = b.add_category("Cities and towns in Veneto");
        let boats = b.add_category("Boat types");
        let waterways = b.add_category("Waterways of Italy");
        let italy = b.add_category("Italy");
        b.belongs(venice, cities);
        b.belongs(gondola, boats);
        b.belongs(canal, waterways);
        b.inside(cities, italy);
        b.inside(waterways, italy);
        b.link_reciprocal(venice, gondola);
        b.link(canal, venice);
        let _serenissima = b.add_redirect("La Serenissima", venice);
        let _canalazzo = b.add_redirect("Canalazzo", canal);
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let kb = small_kb();
        assert_eq!(kb.num_articles(), 5);
        assert_eq!(kb.num_categories(), 4);
        assert_eq!(kb.main_articles().count(), 3);
    }

    #[test]
    fn title_lookup_is_normalized() {
        let kb = small_kb();
        let canal = kb.article_by_title("grand canal (VENICE)").unwrap();
        assert_eq!(kb.title(canal), "Grand Canal (Venice)");
        assert!(kb.article_by_title("Rialto").is_none());
    }

    #[test]
    fn redirect_resolution() {
        let kb = small_kb();
        let ser = kb.article_by_title("La Serenissima").unwrap();
        let venice = kb.article_by_title("Venice").unwrap();
        assert!(kb.is_redirect(ser));
        assert_eq!(kb.resolve_redirect(ser), venice);
        assert_eq!(kb.resolve_redirect(venice), venice);
        assert_eq!(kb.redirects_of(venice), &[ser]);
        let syns: Vec<&str> = kb
            .redirects_of(venice)
            .iter()
            .map(|&r| kb.title(r))
            .collect();
        assert_eq!(syns, vec!["La Serenissima"]);
    }

    #[test]
    fn categories_of_articles() {
        let kb = small_kb();
        let venice = kb.article_by_title("Venice").unwrap();
        assert_eq!(kb.categories_of(venice).len(), 1);
        assert_eq!(
            kb.category_name(kb.categories_of(venice)[0]),
            "Cities and towns in Veneto"
        );
        let ser = kb.article_by_title("La Serenissima").unwrap();
        assert!(kb.categories_of(ser).is_empty());
    }

    #[test]
    fn parents() {
        let kb = small_kb();
        let cities = CategoryId(0);
        let italy = CategoryId(3);
        let parents = |c| kb.inside().iter().filter(move |&&(child, _)| child == c);
        assert_eq!(
            parents(cities).map(|&(_, p)| p).collect::<Vec<_>>(),
            vec![italy]
        );
        assert_eq!(parents(italy).count(), 0);
    }

    #[test]
    fn node_layout() {
        let kb = small_kb();
        let venice = kb.article_by_title("Venice").unwrap();
        let vn = kb.article_node(venice);
        assert!(kb.node_is_article(vn));
        assert_eq!(kb.node_article(vn), Some(venice));
        let cn = kb.category_node(CategoryId(0));
        assert!(kb.node_is_category(cn));
        assert_eq!(kb.node_category(cn), Some(CategoryId(0)));
        assert_eq!(cn, 5); // after the 5 articles
        assert_eq!(kb.node_label(vn), "Venice");
        assert_eq!(kb.node_label(cn), "Cities and towns in Veneto");
    }

    #[test]
    fn graph_edges_match_relations() {
        let kb = small_kb();
        let g = kb.graph();
        // 3 links (reciprocal pair + one), 3 belongs, 2 inside, 2 redirects.
        assert_eq!(g.count_edges_of_type(EdgeType::Link), 3);
        assert_eq!(g.count_edges_of_type(EdgeType::Belongs), 3);
        assert_eq!(g.count_edges_of_type(EdgeType::Inside), 2);
        assert_eq!(g.count_edges_of_type(EdgeType::Redirect), 2);
    }

    #[test]
    fn reciprocal_pair_forms_two_cycle() {
        let kb = small_kb();
        let venice = kb.article_by_title("Venice").unwrap();
        let gondola = kb.article_by_title("Gondola").unwrap();
        assert_eq!(
            kb.graph()
                .pair_multiplicity(kb.article_node(venice), kb.article_node(gondola)),
            2
        );
    }
}
