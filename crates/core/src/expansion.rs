//! Query-expansion engines: the paper's findings turned into a usable
//! system, plus baselines.
//!
//! The paper is an analysis, but its conclusion prescribes a technique:
//! *"dense cycles, in which the ratio of categories stands around the
//! 30 %, are specially useful to identify new expansion features. Among
//! \[them\], small cycles help to describe better the user needs … while
//! larger cycles introduce expansion features that widen the search
//! space"*. [`CycleExpander`] implements exactly that prescription;
//! [`DirectLinkExpander`] is the link-neighbourhood baseline of the
//! related work ([1, 2, 3] in the paper); [`RedirectExpander`] is the
//! §4 future-work idea of using redirect titles as features.

use querygraph_graph::cycles::{induced_cycle_edges, CycleFinder};
use querygraph_graph::subgraph::induce;
use querygraph_graph::traversal::ball;
use querygraph_wiki::{ArticleId, KnowledgeBase};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::cycle_analysis::max_edges;

/// A query-expansion engine: maps the query's articles to expansion
/// feature articles (whose titles are then added to the query).
pub trait Expander {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Produce expansion features for the given query articles.
    fn expand(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId>;
}

/// No expansion — the unexpanded-query baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopExpander;

impl Expander for NoopExpander {
    fn name(&self) -> &'static str {
        "none"
    }

    fn expand(&self, _kb: &KnowledgeBase, _query_articles: &[ArticleId]) -> Vec<ArticleId> {
        Vec::new()
    }
}

/// Expansion from the individual wiki-links of the query articles — the
/// strategy of the related work the paper contrasts itself against
/// ("information extraction strategies by using the individual links of
/// each Wikipedia article, without going deeper into further
/// relationships").
#[derive(Debug, Clone, Copy)]
pub struct DirectLinkExpander {
    /// Maximum number of features returned.
    pub max_features: usize,
}

impl Expander for DirectLinkExpander {
    fn name(&self) -> &'static str {
        "direct-links"
    }

    fn expand(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId> {
        let g = kb.graph();
        let mut counts: HashMap<ArticleId, usize> = HashMap::new();
        for &qa in query_articles {
            let node = kb.article_node(kb.resolve_redirect(qa));
            for (v, t) in g.out_edges(node) {
                if t == querygraph_graph::EdgeType::Link {
                    if let Some(a) = kb.node_article(v) {
                        *counts.entry(a).or_insert(0) += 1;
                    }
                }
            }
            for (v, t) in g.in_edges(node) {
                if t == querygraph_graph::EdgeType::Link {
                    if let Some(a) = kb.node_article(v) {
                        *counts.entry(a).or_insert(0) += 1;
                    }
                }
            }
        }
        rank_features(counts, query_articles, self.max_features)
    }
}

/// §4 future work: redirect titles of the query articles as features
/// ("they represent less common ways to refer a concept").
#[derive(Debug, Clone, Copy)]
pub struct RedirectExpander {
    /// Maximum number of features returned.
    pub max_features: usize,
}

impl Expander for RedirectExpander {
    fn name(&self) -> &'static str {
        "redirects"
    }

    fn expand(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId> {
        let mut out = Vec::new();
        for &qa in query_articles {
            let main = kb.resolve_redirect(qa);
            for &r in kb.redirects_of(main) {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out.truncate(self.max_features);
        out
    }
}

/// Configuration of the cycle-based expander.
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

/// The paper's prescription as an expander: enumerate cycles through
/// the query articles in their graph neighbourhood, keep dense cycles
/// whose category ratio sits in the configured band, and rank candidate
/// articles by how many qualifying cycles they appear in (short cycles
/// weighted higher — they "describe better the user needs").
#[derive(Debug, Clone, Default)]
pub struct CycleExpander {
    /// Tuning; `Default` follows the paper's findings.
    pub config: CycleExpanderConfig,
}

impl Expander for CycleExpander {
    fn name(&self) -> &'static str {
        "cycles"
    }

    fn expand(&self, kb: &KnowledgeBase, query_articles: &[ArticleId]) -> Vec<ArticleId> {
        cycle_features(kb, &self.config, query_articles)
    }
}

/// [`CycleExpander`]'s features under a borrowed `cfg` — what a caller
/// that owns a config (the serving facade, once per request) runs
/// without cloning it into an expander.
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
    // by node id after the radius cut).
    let mut neighborhood = ball(g, &query_nodes, cfg.neighborhood_radius);
    neighborhood.truncate(cfg.max_neighborhood);
    // The kept ball ascends; behind it sit only re-added query nodes.
    let kept = neighborhood.len();
    for &qn in &query_nodes {
        let (in_ball, readded) = neighborhood.split_at(kept);
        if in_ball.binary_search(&qn).is_err() && !readded.contains(&qn) {
            neighborhood.push(qn);
        }
    }
    let sub = induce(g, &neighborhood);
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
    fn noop_returns_nothing() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        assert!(NoopExpander.expand(&kb, &q).is_empty());
    }

    #[test]
    fn direct_links_find_neighbours() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = DirectLinkExpander { max_features: 10 }.expand(&kb, &q);
        assert!(!feats.is_empty());
        let titles: Vec<&str> = feats.iter().map(|&a| kb.title(a)).collect();
        assert!(titles.contains(&"Cannaregio"), "{titles:?}");
        // Query articles never appear as features.
        assert!(!titles.contains(&"Venice"));
        assert!(!titles.contains(&"Gondola"));
    }

    #[test]
    fn redirect_expander_returns_aliases() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = RedirectExpander { max_features: 10 }.expand(&kb, &q);
        let titles: Vec<&str> = feats.iter().map(|&a| kb.title(a)).collect();
        // Venice has one alias; Gondola has none (Gondoliere aliases
        // Gondolier, a different article).
        assert_eq!(titles, vec!["La Serenissima"]);
        let gondolier = vec![kb.article_by_title("Gondolier").unwrap()];
        let feats2 = RedirectExpander { max_features: 10 }.expand(&kb, &gondolier);
        let titles2: Vec<&str> = feats2.iter().map(|&a| kb.title(a)).collect();
        assert_eq!(titles2, vec!["Gondoliere"]);
    }

    #[test]
    fn cycle_expander_prefers_cycle_members() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = CycleExpander::default().expand(&kb, &q);
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
        let expander = CycleExpander {
            config: CycleExpanderConfig {
                category_ratio_band: (0.2, 0.55),
                lengths: vec![3, 4, 5],
                ..CycleExpanderConfig::default()
            },
        };
        let feats = expander.expand(&kb, &sheep);
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
        let expander = CycleExpander {
            config: CycleExpanderConfig {
                category_ratio_band: (0.0, 1.0),
                ..CycleExpanderConfig::default()
            },
        };
        let feats = expander.expand(&kb, &sheep);
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
        let feats = DirectLinkExpander { max_features: 1 }.expand(&kb, &q);
        assert_eq!(feats.len(), 1);
    }

    #[test]
    fn features_never_include_redirect_articles_for_cycles() {
        let kb = venice_mini_wiki();
        let q = venice_query(&kb);
        let feats = CycleExpander::default().expand(&kb, &q);
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
        let a = CycleExpander::default().expand(&kb, &q);
        let b = CycleExpander::default().expand(&kb, &q);
        assert_eq!(a, b);
    }
}
