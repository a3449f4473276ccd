//! Cycle metrics — the measurements behind §3 of the paper.
//!
//! For every cycle C of a query graph that passes through at least one
//! query article, this module computes:
//!
//! * **length** |C| (2..=5);
//! * **category count** and **category ratio** (Fig. 7a; only cycles of
//!   length ≥ 3 can contain categories, a direct consequence of the
//!   schema);
//! * **E(C)** — edges of the induced subgraph under the paper's counting
//!   convention (directed links individually, belongs/inside once per
//!   pair);
//! * **M(C)** — the maximum possible edges,
//!   `A(A−1) + A·C + C(C−1)/2`;
//! * **density of extra edges** — `(E − |C|) / (M − |C|)` (Fig. 7b),
//!   undefined when `M = |C|` (always the case for length 2);
//! * **contribution** — the retrieval-quality delta (Figs. 5 and 9),
//!   filled in by `fill_contributions` because it needs a search
//!   engine.

use crate::contribution::contribution;
use crate::ground_truth::QualityEvaluator;
use crate::query_graph::QueryGraph;
use querygraph_graph::cycles::{induced_cycle_edges, CycleFinder};
use querygraph_retrieval::stats::{pearson, spearman};
use querygraph_wiki::{ArticleId, KnowledgeBase};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// All measurements for one cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Local node ids within the query graph, in cycle order.
    pub local_nodes: Vec<u32>,
    /// |C|.
    pub len: usize,
    /// Number of category nodes in the cycle.
    pub categories: usize,
    /// categories / |C|.
    pub category_ratio: f64,
    /// E(C).
    pub(crate) edge_count: usize,
    /// M(C).
    pub(crate) max_edges: usize,
    /// `(E − |C|) / (M − |C|)`, `None` when `M = |C|`.
    pub extra_edge_density: Option<f64>,
    /// The cycle's article entities (knowledge-base ids).
    pub articles: Vec<ArticleId>,
    /// Retrieval contribution in percent; `None` until
    /// `fill_contributions` runs.
    pub contribution: Option<f64>,
}

/// The paper's M(C): maximum edges of a node set with `a` articles and
/// `c` categories — `a(a−1)` directed article links, `a·c` belongs
/// pairs, `c(c−1)/2` category pairs.
pub fn max_edges(a: usize, c: usize) -> usize {
    a * a.saturating_sub(1) + a * c + c * c.saturating_sub(1) / 2
}

/// Enumerate the cycles of `qg` (lengths 2..=`max_len`) through its
/// query articles and measure each. `limit` bounds the number of cycles
/// (the paper's §4 performance challenge is real: cycle counts grow
/// exponentially with length).
pub fn enumerate_cycles(
    qg: &QueryGraph,
    kb: &KnowledgeBase,
    max_len: usize,
    limit: usize,
) -> Vec<CycleRecord> {
    if qg.query_nodes.is_empty() {
        return Vec::new();
    }
    let finder = CycleFinder::new(&qg.sub.graph)
        .max_len(max_len)
        .require_any_of(&qg.query_nodes)
        .limit(limit);
    let mut records = Vec::new();
    finder.for_each(|nodes| {
        let len = nodes.len();
        let categories = qg.count_categories(nodes);
        let articles: Vec<ArticleId> = nodes
            .iter()
            .filter_map(|&l| qg.local_article(kb, l))
            .collect();
        let edge_count = induced_cycle_edges(&qg.sub.graph, nodes);
        let m = max_edges(articles.len(), categories);
        let density = if m > len {
            Some(((edge_count - len) as f64 / (m - len) as f64).clamp(0.0, 1.0))
        } else {
            None
        };
        records.push(CycleRecord {
            local_nodes: nodes.to_vec(),
            len,
            categories,
            category_ratio: categories as f64 / len as f64,
            edge_count,
            max_edges: m,
            extra_edge_density: density,
            articles,
            contribution: None,
        });
    });
    records
}

/// Fill each record's contribution: O(L(q.k) ∪ C_articles) vs the
/// baseline O(L(q.k)). Cycle article sets repeat heavily across cycles,
/// so evaluations are memoized per distinct article set.
pub(crate) fn fill_contributions(
    records: &mut [CycleRecord],
    evaluator: &QualityEvaluator<'_>,
    query_articles: &[ArticleId],
    baseline_quality: f64,
) {
    let mut memo: HashMap<Vec<ArticleId>, f64> = HashMap::new();
    for rec in records.iter_mut() {
        let mut key: Vec<ArticleId> = rec.articles.clone();
        key.sort_unstable();
        key.dedup();
        let c = *memo
            .entry(key)
            .or_insert_with_key(|k| contribution(evaluator, query_articles, baseline_quality, k));
        rec.contribution = Some(c);
    }
}

/// §4 future work: "how the frequency of a given article in the cycles
/// and the goodness of its title as expansion feature are correlated".
/// Returns `(pearson, spearman)` between an article's cycle frequency
/// and its single-feature contribution, over the non-query articles
/// appearing in the records. `None` when fewer than two such articles
/// exist or a correlation is undefined.
pub(crate) fn article_frequency_correlation(
    records: &[CycleRecord],
    evaluator: &QualityEvaluator<'_>,
    query_articles: &[ArticleId],
    baseline_quality: f64,
) -> Option<(f64, f64)> {
    let mut freq: HashMap<ArticleId, usize> = HashMap::new();
    for rec in records {
        for &a in &rec.articles {
            if !query_articles.contains(&a) {
                *freq.entry(a).or_insert(0) += 1;
            }
        }
    }
    if freq.len() < 2 {
        return None;
    }
    let mut items: Vec<(ArticleId, usize)> = freq.into_iter().collect();
    items.sort_unstable_by_key(|&(a, _)| a); // deterministic order
    let xs: Vec<f64> = items.iter().map(|&(_, f)| f as f64).collect();
    let ys: Vec<f64> = items
        .iter()
        .map(|&(a, _)| contribution(evaluator, query_articles, baseline_quality, &[a]))
        .collect();
    Some((pearson(&xs, &ys)?, spearman(&xs, &ys)?))
}

/// Group mean of a per-cycle metric by cycle length: `out[len] = mean`.
/// Lengths without cycles yield `None`.
pub(crate) fn mean_by_length<F>(
    records: &[CycleRecord],
    max_len: usize,
    metric: F,
) -> Vec<Option<f64>>
where
    F: Fn(&CycleRecord) -> Option<f64>,
{
    let mut sums = vec![0.0; max_len + 1];
    let mut counts = vec![0usize; max_len + 1];
    for rec in records {
        if let Some(v) = metric(rec) {
            if rec.len <= max_len {
                sums[rec.len] += v;
                counts[rec.len] += 1;
            }
        }
    }
    (0..=max_len)
        .map(|l| {
            if counts[l] > 0 {
                Some(sums[l] / counts[l] as f64)
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::assemble;
    use querygraph_wiki::fixture::venice_mini_wiki;

    fn venice_records() -> (KnowledgeBase, Vec<CycleRecord>) {
        let kb = venice_mini_wiki();
        let q: Vec<ArticleId> = ["Gondola", "Venice"]
            .iter()
            .map(|t| kb.article_by_title(t).unwrap())
            .collect();
        let exp: Vec<ArticleId> = [
            "Grand Canal (Venice)",
            "Palazzo Bembo",
            "Bridge of Sighs",
            "Cannaregio",
            "Gondolier",
        ]
        .iter()
        .map(|t| kb.article_by_title(t).unwrap())
        .collect();
        let qg = assemble(&kb, &q, &exp);
        let records = enumerate_cycles(&qg, &kb, 5, usize::MAX);
        (kb, records)
    }

    #[test]
    fn m_formula_matches_paper_example() {
        // 2 articles + 2 categories: 2·1 + 2·2 + 1 = 7.
        assert_eq!(max_edges(2, 2), 7);
        assert_eq!(max_edges(3, 0), 6);
        assert_eq!(max_edges(2, 0), 2);
        assert_eq!(max_edges(0, 3), 3);
        assert_eq!(max_edges(1, 1), 1);
    }

    #[test]
    fn finds_the_fixture_cycles() {
        let (_, records) = venice_records();
        assert!(!records.is_empty());
        let by_len = |l: usize| records.iter().filter(|r| r.len == l).count();
        assert!(by_len(2) >= 1, "venice–cannaregio 2-cycle");
        assert!(by_len(3) >= 1, "venice–grand canal–palazzo bembo");
        assert!(by_len(4) >= 1, "Fig. 4c 4-cycle");
    }

    #[test]
    fn two_cycles_have_no_categories() {
        let (_, records) = venice_records();
        for r in records.iter().filter(|r| r.len == 2) {
            assert_eq!(r.categories, 0, "schema: only len ≥ 3 can have categories");
            assert!(r.extra_edge_density.is_none(), "M = |C| for 2-cycles");
        }
    }

    #[test]
    fn category_ratio_is_consistent() {
        let (_, records) = venice_records();
        for r in &records {
            assert!((r.category_ratio - r.categories as f64 / r.len as f64).abs() < 1e-12);
            assert_eq!(r.articles.len() + r.categories, r.len);
        }
    }

    #[test]
    fn density_bounds() {
        let (_, records) = venice_records();
        for r in &records {
            assert!(r.edge_count >= r.len, "E(C) ≥ |C| for {r:?}");
            assert!(r.edge_count <= r.max_edges.max(r.edge_count));
            if let Some(d) = r.extra_edge_density {
                assert!((0.0..=1.0).contains(&d));
            }
        }
    }

    #[test]
    fn all_cycles_touch_a_query_article() {
        let (kb, records) = venice_records();
        let q: Vec<ArticleId> = ["Gondola", "Venice"]
            .iter()
            .map(|t| kb.article_by_title(t).unwrap())
            .collect();
        for r in &records {
            assert!(
                r.articles.iter().any(|a| q.contains(a)),
                "cycle without query article: {r:?}"
            );
        }
    }

    #[test]
    fn mean_by_length_groups() {
        let (_, records) = venice_records();
        let means = mean_by_length(&records, 5, |r| Some(r.category_ratio));
        assert!(means[0].is_none() && means[1].is_none());
        if let Some(m2) = means[2] {
            assert_eq!(m2, 0.0, "2-cycles never contain categories");
        }
        for m in means.iter().flatten() {
            assert!((0.0..=1.0).contains(m));
        }
    }

    #[test]
    fn empty_query_nodes_yield_no_cycles() {
        let kb = venice_mini_wiki();
        let qg = assemble(&kb, &[], &[]);
        assert!(enumerate_cycles(&qg, &kb, 5, usize::MAX).is_empty());
    }

    #[test]
    fn limit_is_respected() {
        let kb = venice_mini_wiki();
        let q: Vec<ArticleId> = ["Gondola", "Venice"]
            .iter()
            .map(|t| kb.article_by_title(t).unwrap())
            .collect();
        let exp: Vec<ArticleId> = ["Grand Canal (Venice)", "Cannaregio"]
            .iter()
            .map(|t| kb.article_by_title(t).unwrap())
            .collect();
        let qg = assemble(&kb, &q, &exp);
        let records = enumerate_cycles(&qg, &kb, 5, 2);
        assert!(records.len() <= 2);
    }

    #[test]
    fn trap_cycle_is_category_free() {
        let kb = venice_mini_wiki();
        let sheep = kb.article_by_title("Sheep").unwrap();
        let exp: Vec<ArticleId> = ["Quarantine", "Anthrax"]
            .iter()
            .map(|t| kb.article_by_title(t).unwrap())
            .collect();
        let qg = assemble(&kb, &[sheep], &exp);
        let records = enumerate_cycles(&qg, &kb, 5, usize::MAX);
        let trap = records.iter().find(|r| r.len == 3).expect("trap triangle");
        assert_eq!(trap.categories, 0);
        assert_eq!(trap.category_ratio, 0.0);
    }
}
