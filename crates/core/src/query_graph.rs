//! Query-graph assembly — §2.3 of the paper.
//!
//! "Each query graph G(q) is built by inducing the subgraph with nodes
//! X(q), their main articles in case of being a redirect, and their
//! categories." X(q) = L(q.k) ∪ A′: the query articles plus the best
//! expansion articles found by the ground-truth search.
//!
//! The assembled graph keeps a *role* per node (query article, expansion
//! article, main-of-redirect, category) — Fig. 3 draws exactly these
//! four shapes — and exposes the Table 3 statistics of its largest
//! connected component.

use querygraph_graph::components::connected_components;
use querygraph_graph::subgraph::{induce, Subgraph};
use querygraph_graph::triangles::tpr_of_subset;
use querygraph_wiki::{ArticleId, CategoryId, KnowledgeBase};
use serde::{Deserialize, Serialize};

/// Why a node is part of the query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum NodeRole {
    /// Article of L(q.k) — triangular boxes in Fig. 3.
    QueryArticle,
    /// Article of A′ (best expansion features) — circle boxes.
    ExpansionArticle,
    /// Main article pulled in because a member of X(q) is a redirect —
    /// unboxed nodes in Fig. 3.
    MainArticle,
    /// Category of any included article — squared boxes.
    Category,
}

/// The query graph G(q): an induced subgraph of the Wikipedia graph plus
/// per-node roles.
#[derive(Debug)]
pub struct QueryGraph {
    /// The induced subgraph (local node ids) with mapping to KB graph
    /// nodes.
    pub sub: Subgraph,
    /// Role of each local node.
    pub(crate) roles: Vec<NodeRole>,
    /// Local ids of the L(q.k) articles present in the graph.
    pub(crate) query_nodes: Vec<u32>,
    /// |L(q.k)| as given (denominator of the expansion ratio).
    pub(crate) num_query_articles: usize,
}

/// Statistics of the largest connected component — one row set of
/// Table 3, plus the TPR of §3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LccStats {
    /// Relative size of the largest component: |LCC| / |G(q)|.
    pub size_ratio: f64,
    /// Fraction of L(q.k) articles inside the LCC.
    pub(crate) query_node_ratio: f64,
    /// Fraction of LCC nodes that are articles.
    pub(crate) article_ratio: f64,
    /// Fraction of LCC nodes that are categories.
    pub(crate) category_ratio: f64,
    /// |X(q) ∩ LCC| / |L(q.k) ∩ LCC|; 0 when no query article is inside
    /// (the paper's sentinel).
    pub expansion_ratio: f64,
    /// Triangle participation ratio of the LCC (§3: ≈ 0.3 on average).
    pub tpr: f64,
    /// Absolute node count of the whole query graph (the paper reports
    /// an average of 208.22).
    pub(crate) total_nodes: usize,
}

/// Assemble G(q) from the knowledge base, the query articles L(q.k) and
/// the expansion articles A′.
///
/// Redirects inside either set contribute their main article (kept with
/// `NodeRole::MainArticle`); every included article contributes its
/// categories. Roles are assigned with precedence
/// query > expansion > main > category.
pub fn assemble(
    kb: &KnowledgeBase,
    query_articles: &[ArticleId],
    expansion_articles: &[ArticleId],
) -> QueryGraph {
    let mut nodes: Vec<u32> = Vec::new();
    let mut mains: Vec<ArticleId> = Vec::new();
    let mut categories: Vec<CategoryId> = Vec::new();

    let mut x_articles: Vec<ArticleId> = Vec::new();
    x_articles.extend_from_slice(query_articles);
    for &a in expansion_articles {
        if !x_articles.contains(&a) {
            x_articles.push(a);
        }
    }

    for &a in &x_articles {
        nodes.push(kb.article_node(a));
        let main = kb.resolve_redirect(a);
        if main != a && !x_articles.contains(&main) && !mains.contains(&main) {
            mains.push(main);
        }
    }
    for &a in x_articles.iter().chain(mains.iter()) {
        for &c in kb.categories_of(a) {
            if !categories.contains(&c) {
                categories.push(c);
            }
        }
    }
    nodes.extend(mains.iter().map(|&a| kb.article_node(a)));
    nodes.extend(categories.iter().map(|&c| kb.category_node(c)));

    let sub = induce(kb.graph(), &nodes);

    // Assign roles through the local→parent mapping.
    let mut roles = vec![NodeRole::Category; sub.node_count() as usize];
    for local in 0..sub.node_count() {
        let parent = sub.parent_of(local);
        let role = if let Some(a) = kb.node_article(parent) {
            if query_articles.contains(&a) {
                NodeRole::QueryArticle
            } else if expansion_articles.contains(&a) {
                NodeRole::ExpansionArticle
            } else {
                NodeRole::MainArticle
            }
        } else {
            NodeRole::Category
        };
        roles[local as usize] = role;
    }
    let query_nodes: Vec<u32> = (0..sub.node_count())
        .filter(|&l| roles[l as usize] == NodeRole::QueryArticle)
        .collect();

    QueryGraph {
        sub,
        roles,
        query_nodes,
        num_query_articles: query_articles.len(),
    }
}

impl QueryGraph {
    /// Local node ids of all articles (any article role).
    pub fn article_nodes(&self) -> Vec<u32> {
        (0..self.sub.node_count())
            .filter(|&l| self.roles[l as usize] != NodeRole::Category)
            .collect()
    }

    /// Local node ids of categories.
    pub fn category_nodes(&self) -> Vec<u32> {
        (0..self.sub.node_count())
            .filter(|&l| self.roles[l as usize] == NodeRole::Category)
            .collect()
    }

    /// Table 3 statistics of the largest connected component.
    pub fn lcc_stats(&self) -> LccStats {
        let n = self.sub.node_count() as usize;
        if n == 0 {
            return LccStats {
                size_ratio: 0.0,
                query_node_ratio: 0.0,
                article_ratio: 0.0,
                category_ratio: 0.0,
                expansion_ratio: 0.0,
                tpr: 0.0,
                total_nodes: 0,
            };
        }
        let comps = connected_components(&self.sub.graph);
        let members = comps.largest_members();
        let lcc_size = members.len();

        let in_lcc = |l: u32| members.binary_search(&l).is_ok();
        let query_in = self.query_nodes.iter().filter(|&&l| in_lcc(l)).count();
        let articles_in = members
            .iter()
            .filter(|&&l| self.roles[l as usize] != NodeRole::Category)
            .count();
        let x_in = members
            .iter()
            .filter(|&&l| {
                matches!(
                    self.roles[l as usize],
                    NodeRole::QueryArticle | NodeRole::ExpansionArticle
                )
            })
            .count();

        LccStats {
            size_ratio: lcc_size as f64 / n as f64,
            query_node_ratio: if self.num_query_articles == 0 {
                0.0
            } else {
                query_in as f64 / self.num_query_articles as f64
            },
            article_ratio: articles_in as f64 / lcc_size as f64,
            category_ratio: (lcc_size - articles_in) as f64 / lcc_size as f64,
            expansion_ratio: if query_in == 0 {
                0.0
            } else {
                x_in as f64 / query_in as f64
            },
            tpr: tpr_of_subset(&self.sub.graph, &members),
            total_nodes: n,
        }
    }

    /// Number of categories among `local_nodes` (cycle category counts).
    pub(crate) fn count_categories(&self, local_nodes: &[u32]) -> usize {
        local_nodes
            .iter()
            .filter(|&&l| self.roles[l as usize] == NodeRole::Category)
            .count()
    }

    /// Map a local node back to an article id, if it is an article.
    pub(crate) fn local_article(&self, kb: &KnowledgeBase, local: u32) -> Option<ArticleId> {
        kb.node_article(self.sub.parent_of(local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_wiki::fixture::venice_mini_wiki;

    fn venice_graph(kb: &KnowledgeBase) -> QueryGraph {
        let gondola = kb.article_by_title("Gondola").unwrap();
        let venice = kb.article_by_title("Venice").unwrap();
        let canal = kb.article_by_title("Grand Canal (Venice)").unwrap();
        let bridge = kb.article_by_title("Bridge of Sighs").unwrap();
        let cann = kb.article_by_title("Cannaregio").unwrap();
        assemble(kb, &[gondola, venice], &[canal, bridge, cann])
    }

    #[test]
    fn includes_x_mains_and_categories() {
        let kb = venice_mini_wiki();
        let g = venice_graph(&kb);
        // 5 articles + their categories; no redirects in X(q) here.
        assert!(g.category_nodes().len() >= 5);
        assert_eq!(g.article_nodes().len(), 5);
        assert_eq!(g.query_nodes.len(), 2);
    }

    #[test]
    fn roles_have_precedence() {
        let kb = venice_mini_wiki();
        let venice = kb.article_by_title("Venice").unwrap();
        // venice listed both as query and expansion: query wins.
        let g = assemble(&kb, &[venice], &[venice]);
        let vn = g.sub.local_of(kb.article_node(venice)).unwrap();
        assert_eq!(g.roles[vn as usize], NodeRole::QueryArticle);
    }

    #[test]
    fn redirects_pull_in_main_articles() {
        let kb = venice_mini_wiki();
        let ponte = kb.article_by_title("Ponte dei Sospiri").unwrap();
        let bridge = kb.article_by_title("Bridge of Sighs").unwrap();
        let g = assemble(&kb, &[ponte], &[]);
        let main_local = g.sub.local_of(kb.article_node(bridge)).unwrap();
        assert_eq!(g.roles[main_local as usize], NodeRole::MainArticle);
        // The redirect node itself is a query article.
        let r_local = g.sub.local_of(kb.article_node(ponte)).unwrap();
        assert_eq!(g.roles[r_local as usize], NodeRole::QueryArticle);
    }

    #[test]
    fn lcc_stats_are_consistent() {
        let kb = venice_mini_wiki();
        let g = venice_graph(&kb);
        let s = g.lcc_stats();
        assert!(s.size_ratio > 0.0 && s.size_ratio <= 1.0);
        assert!((s.article_ratio + s.category_ratio - 1.0).abs() < 1e-12);
        assert_eq!(s.query_node_ratio, 1.0, "venice & gondola are connected");
        assert!(s.expansion_ratio >= 1.0);
        assert_eq!(s.total_nodes, g.sub.node_count() as usize);
        assert!(s.tpr > 0.0, "fixture has triangles in the LCC");
    }

    #[test]
    fn categories_dominate_fixture_graph() {
        // Table 3: "the largest connected component is clearly dominated
        // by categories".
        let kb = venice_mini_wiki();
        let g = venice_graph(&kb);
        let s = g.lcc_stats();
        assert!(
            s.category_ratio > s.article_ratio,
            "expected category domination, got articles {} vs categories {}",
            s.article_ratio,
            s.category_ratio
        );
    }

    #[test]
    fn empty_query_graph() {
        let kb = venice_mini_wiki();
        let g = assemble(&kb, &[], &[]);
        assert_eq!(g.sub.node_count(), 0);
        let s = g.lcc_stats();
        assert_eq!(s.total_nodes, 0);
        assert_eq!(s.expansion_ratio, 0.0);
    }

    #[test]
    fn count_categories_on_cycles() {
        let kb = venice_mini_wiki();
        let g = venice_graph(&kb);
        let all: Vec<u32> = (0..g.sub.node_count()).collect();
        assert_eq!(g.count_categories(&all), g.category_nodes().len());
    }

    #[test]
    fn disconnected_trap_forms_second_component() {
        let kb = venice_mini_wiki();
        let venice = kb.article_by_title("Venice").unwrap();
        let sheep = kb.article_by_title("Sheep").unwrap();
        // Venice + sheep: two components (fixture keeps the trap apart).
        let g = assemble(&kb, &[venice], &[sheep]);
        let s = g.lcc_stats();
        assert!(s.size_ratio < 1.0, "graph must be disconnected");
    }
}
