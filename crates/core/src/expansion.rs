//! Query-expansion strategies: the paper's findings turned into a usable
//! system, plus its baseline. Each strategy is one function, and
//! [`crate::service::ExpansionStrategy`] is the one place that selects
//! between them.
//!
//! The paper is an analysis, but its conclusion prescribes a technique:
//! *"dense cycles, in which the ratio of categories stands around the
//! 30 %, are specially useful to identify new expansion features. Among
//! \[them\], small cycles help to describe better the user needs … while
//! larger cycles introduce expansion features that widen the search
//! space"*. [`cycle_features`] implements exactly that prescription;
//! [`link_features`] is the link-neighbourhood baseline of the related
//! work ([1, 2, 3] in the paper).

use querygraph_graph::cycles::{induced_cycle_edges, CycleFinder};
use querygraph_graph::subgraph::induce_reach;
use querygraph_graph::traversal::ball;
use querygraph_graph::EdgeType;
use querygraph_wiki::{ArticleId, KnowledgeBase};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::cycle_analysis::max_edges;

/// Configuration of the cycle strategy ([`cycle_features`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleExpanderConfig {
    /// Maximum cycle length (the paper stops at 5).
    pub max_len: usize,
    /// Which cycle lengths contribute features (Table 4's best row uses
    /// all of 2, 3, 4, 5).
    pub lengths: Vec<usize>,
    /// Accepted category-ratio band for cycles of length ≥ 3; the
    /// paper's finding centres it on ≈ 0.30. Length-2 cycles (which
    /// cannot contain categories) always pass.
    pub category_ratio_band: (f64, f64),
    /// Minimum density of extra edges when defined ("the denser the
    /// cycle, the better its contribution").
    pub min_density: f64,
    /// BFS radius around the query articles used to bound the search —
    /// the paper's §4 real-time challenge makes a local search
    /// mandatory on a 5M-article graph.
    pub neighborhood_radius: u32,
    /// Hard cap on neighbourhood size (nodes).
    pub max_neighborhood: usize,
    /// Hard cap on enumerated cycles.
    pub max_cycles: usize,
    /// Maximum number of features returned.
    pub max_features: usize,
}

impl Default for CycleExpanderConfig {
    fn default() -> Self {
        CycleExpanderConfig {
            max_len: 5,
            lengths: vec![2, 3, 4, 5],
            category_ratio_band: (0.2, 0.55),
            min_density: 0.0,
            neighborhood_radius: 2,
            max_neighborhood: 600,
            max_cycles: 20_000,
            max_features: 10,
        }
    }
}

/// Expansion from the individual wiki-links of the query articles — the
/// strategy of the related work the paper contrasts itself against
/// ("information extraction strategies by using the individual links of
/// each Wikipedia article, without going deeper into further
/// relationships"). Articles rank by how many query-article links, in
/// either direction, reach them.
pub fn link_features(
    kb: &KnowledgeBase,
    query_articles: &[ArticleId],
    max_features: usize,
) -> Vec<ArticleId> {
    let g = kb.graph();
    let mut counts: HashMap<ArticleId, usize> = HashMap::new();
    for &qa in query_articles {
        let node = kb.article_node(kb.resolve_redirect(qa));
        for (v, t) in g.out_edges(node).chain(g.in_edges(node)) {
            if t == EdgeType::Link {
                if let Some(a) = kb.node_article(v) {
                    *counts.entry(a).or_insert(0) += 1;
                }
            }
        }
    }
    rank_features(counts, query_articles, max_features)
}

/// The paper's prescription: enumerate cycles through the query
/// articles in their graph neighbourhood, keep dense cycles whose
/// category ratio sits in the configured band, and rank candidate
/// articles by how many qualifying cycles they appear in (short cycles
/// weighted higher — they "describe better the user needs").
pub fn cycle_features(
    kb: &KnowledgeBase,
    cfg: &CycleExpanderConfig,
    query_articles: &[ArticleId],
) -> Vec<ArticleId> {
    let g = kb.graph();
    let query_nodes: Vec<u32> = query_articles
        .iter()
        .map(|&a| kb.article_node(kb.resolve_redirect(a)))
        .collect();
    if query_nodes.is_empty() {
        return Vec::new();
    }

    // Bounded neighbourhood (BFS ball, truncated deterministically
    // by node id after the radius cut), plus the query nodes, which the
    // cut may have dropped; `induce_reach` reads `kept` as a set, so a
    // repeat is harmless.
    let mut kept = ball(g, &query_nodes, cfg.neighborhood_radius);
    kept.truncate(cfg.max_neighborhood);
    kept.extend_from_slice(&query_nodes);
    // Every node of a cycle of length ≤ max_len through a query node
    // is within ⌊max_len/2⌋ hops of it round the cycle, through kept
    // nodes: induce only that reach. It is induced from the same graph
    // as the kept set, with locals in the same order, so the search
    // emits the same cycles in the same order.
    let hops = u32::try_from(cfg.max_len / 2).unwrap_or(u32::MAX);
    let sub = induce_reach(g, &kept, &query_nodes, hops);
    let local_query: Vec<u32> = query_nodes
        .iter()
        .filter_map(|&qn| sub.local_of(qn))
        .collect();

    // What is asked of each cycle node, looked up once per local node
    // instead of once per cycle it lies on: is it a category, and which
    // article (if any) does its score count for.
    let is_category: Vec<bool> = sub
        .to_parent
        .iter()
        .map(|&p| kb.node_is_category(p))
        .collect();
    let scored_article: Vec<Option<ArticleId>> = sub
        .to_parent
        .iter()
        .map(|&p| kb.node_article(p).filter(|&a| !kb.is_redirect(a)))
        .collect();
    // Scores by local node, categories included (theirs are dropped at
    // the end). Node → article is one-to-one, so each article's sum
    // sees the additions a per-article map would, in the same order.
    let mut scores = vec![0.0f64; sub.to_parent.len()];
    let finder = CycleFinder::new(&sub.graph)
        .max_len(cfg.max_len)
        .require_any_of(&local_query)
        .limit(cfg.max_cycles);
    finder.for_each(|nodes| {
        let len = nodes.len();
        if !cfg.lengths.contains(&len) {
            return;
        }
        if len >= 3 {
            let categories = nodes.iter().filter(|&&l| is_category[l as usize]).count();
            let ratio = categories as f64 / len as f64;
            if ratio < cfg.category_ratio_band.0 || ratio > cfg.category_ratio_band.1 {
                return;
            }
            // E(C) ≥ |C| on every cycle, so a density is never below a
            // floor of zero: only a positive floor needs the edge count.
            if cfg.min_density > 0.0 {
                let e = induced_cycle_edges(&sub.graph, nodes);
                let m = max_edges(len - categories, categories);
                if m > len && ((e - len) as f64 / (m - len) as f64) < cfg.min_density {
                    return;
                }
            }
        }
        // Short cycles weigh more: weight 1/len.
        let w = 1.0 / len as f64;
        for &l in nodes {
            scores[l as usize] += w;
        }
    });

    // Every addition is positive, so a zero is a node on no kept cycle.
    let scored = scored_article
        .iter()
        .zip(&scores)
        .filter_map(|(&article, &s)| match article {
            Some(a) if s != 0.0 => Some((a, (s * 1_000_000.0) as usize)),
            _ => None,
        });
    rank_features(scored, query_articles, cfg.max_features)
}

/// Rank candidate features by score (descending), dropping the query
/// articles themselves; ties break by ascending article id for
/// determinism.
fn rank_features(
    scores: impl IntoIterator<Item = (ArticleId, usize)>,
    query_articles: &[ArticleId],
    max_features: usize,
) -> Vec<ArticleId> {
    let mut items: Vec<(ArticleId, usize)> = scores
        .into_iter()
        .filter(|(a, _)| !query_articles.contains(a))
        .collect();
    items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(max_features);
    items.into_iter().map(|(a, _)| a).collect()
}

/// The expanded title list for a query: query-article titles followed
/// by feature titles — ready for
/// [`querygraph_retrieval::QueryNode::phrases_of_titles`].
pub fn expanded_titles<'kb>(
    kb: &'kb KnowledgeBase,
    query_articles: &[ArticleId],
    features: &[ArticleId],
) -> Vec<&'kb str> {
    query_articles
        .iter()
        .chain(features.iter())
        .map(|&a| kb.title(a))
        .collect()
}

/// A shim for the repo benchmark's trace replay (`benchmark/src/trace.rs`),
/// the one caller that still names the served strategies as types. Each
/// impl forwards to its function; select a strategy through
/// [`crate::service::ExpansionStrategy`] instead. Delete the shim with
/// that caller's port.
pub trait Expander {
    /// Produce expansion features for the given query articles.
    fn expand(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId>;
}

/// [`link_features`] behind the [`Expander`] shim.
pub struct DirectLinkExpander {
    /// Maximum number of features returned.
    pub max_features: usize,
}

impl Expander for DirectLinkExpander {
    fn expand(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId> {
        link_features(kb, query_articles, self.max_features)
    }
}

/// [`cycle_features`] behind the [`Expander`] shim.
pub struct CycleExpander {
    /// The strategy's tuning.
    pub config: CycleExpanderConfig,
}

impl Expander for CycleExpander {
    fn expand(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId> {
        cycle_features(kb, &self.config, query_articles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_wiki::fixture::venice_mini_wiki;

    fn venice_query(kb: &KnowledgeBase) -> Vec<ArticleId> {
        vec![
            kb.article_by_title("Gondola").unwrap(),
            kb.article_by_title("Venice").unwrap(),
        ]
    }

    #[test]
    fn direct_links_find_neighbours() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = link_features(&kb, &q, 10);
        assert!(!feats.is_empty());
        let titles: Vec<&str> = feats.iter().map(|&a| kb.title(a)).collect();
        assert!(titles.contains(&"Cannaregio"), "{titles:?}");
        // Query articles never appear as features.
        assert!(!titles.contains(&"Venice"));
        assert!(!titles.contains(&"Gondola"));
    }

    #[test]
    fn cycle_expander_prefers_cycle_members() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = cycle_features(&kb, &CycleExpanderConfig::default(), &q);
        assert!(!feats.is_empty());
        let titles: Vec<&str> = feats.iter().map(|&a| kb.title(a)).collect();
        // The strongest features are the densely cycled neighbours of
        // the query: the Grand Canal triangle and the Cannaregio
        // 2-cycle (Fig. 4a/4b).
        assert!(titles[..3].contains(&"Cannaregio"), "{titles:?}");
        assert!(titles[..3].contains(&"Grand Canal (Venice)"), "{titles:?}");
        // The anthrax trap is nowhere near the query neighbourhood.
        assert!(!titles.contains(&"Anthrax"));
        assert!(!titles.contains(&"Sheep"));
    }

    #[test]
    fn cycle_expander_category_band_filters() {
        let kb = venice_mini_wiki();
        let sheep = vec![kb.article_by_title("Sheep").unwrap()];
        // The trap triangle has category ratio 0 — a band starting
        // above 0 must reject it, so quarantine/anthrax are not
        // suggested from the trap cycle.
        let config = CycleExpanderConfig {
            category_ratio_band: (0.2, 0.55),
            lengths: vec![3, 4, 5],
            ..CycleExpanderConfig::default()
        };
        let feats = cycle_features(&kb, &config, &sheep);
        let titles: Vec<&str> = feats.iter().map(|&a| kb.title(a)).collect();
        assert!(
            !titles.contains(&"Anthrax"),
            "category-free trap must be filtered: {titles:?}"
        );
    }

    #[test]
    fn cycle_expander_accepts_trap_without_band() {
        let kb = venice_mini_wiki();
        let sheep = vec![kb.article_by_title("Sheep").unwrap()];
        let config = CycleExpanderConfig {
            category_ratio_band: (0.0, 1.0),
            ..CycleExpanderConfig::default()
        };
        let feats = cycle_features(&kb, &config, &sheep);
        let titles: Vec<&str> = feats.iter().map(|&a| kb.title(a)).collect();
        assert!(
            titles.contains(&"Anthrax"),
            "without the band the trap leaks through: {titles:?}"
        );
    }

    #[test]
    fn max_features_is_respected() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        assert_eq!(link_features(&kb, &q, 1).len(), 1);
    }

    #[test]
    fn features_never_include_redirect_articles_for_cycles() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = cycle_features(&kb, &CycleExpanderConfig::default(), &q);
        for &f in &feats {
            assert!(!kb.is_redirect(f), "cycle features are main articles");
        }
    }

    #[test]
    fn expanded_titles_concatenates() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = vec![kb.article_by_title("Cannaregio").unwrap()];
        let titles = expanded_titles(&kb, &q, &feats);
        assert_eq!(titles, vec!["Gondola", "Venice", "Cannaregio"]);
    }

    #[test]
    fn deterministic_expansion() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let config = CycleExpanderConfig::default();
        assert_eq!(
            cycle_features(&kb, &config, &q),
            cycle_features(&kb, &config, &q)
        );
    }
}
