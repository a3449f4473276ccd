//! Cycle contribution — the quality delta of Figs. 5 and 9.
//!
//! "We define the contribution of a cycle C for a query q as the
//! percentual difference between O(L(q.k), q.D) and O(L(q.k) ∪ C, q.D)"
//! where only the *articles* of C are used as expansion features
//! (footnote 3: categories are ignored).
//!
//! Deviation note (documented per DESIGN.md §4): when the baseline
//! O(L(q.k)) is zero the percentual difference is undefined; this
//! implementation falls back to absolute percentage points
//! (`100 · O_after`), which preserves ordering and keeps averages
//! finite.

use crate::ground_truth::QualityEvaluator;
use querygraph_wiki::ArticleId;

/// Percentual contribution of adding `cycle_articles` to the query
/// articles.
pub(crate) fn contribution(
    evaluator: &QualityEvaluator<'_>,
    query_articles: &[ArticleId],
    baseline_quality: f64,
    cycle_articles: &[ArticleId],
) -> f64 {
    let mut set: Vec<ArticleId> = query_articles.to_vec();
    for &a in cycle_articles {
        if !set.contains(&a) {
            set.push(a);
        }
    }
    let after = evaluator.quality(&set);
    percent_change(baseline_quality, after)
}

/// The percentual difference `100 · (after − before) / before`, with the
/// zero-baseline fallback described in the module docs.
pub(crate) fn percent_change(before: f64, after: f64) -> f64 {
    if before > 0.0 {
        100.0 * (after - before) / before
    } else {
        100.0 * after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_and_negative_changes() {
        assert_eq!(percent_change(0.5, 0.75), 50.0);
        assert_eq!(percent_change(0.5, 0.25), -50.0);
        assert_eq!(percent_change(0.4, 0.4), 0.0);
    }

    #[test]
    fn zero_baseline_fallback() {
        assert_eq!(percent_change(0.0, 0.3), 30.0);
        assert_eq!(percent_change(0.0, 0.0), 0.0);
    }

    #[test]
    fn contribution_against_real_evaluator() {
        use querygraph_retrieval::engine::SearchEngine;
        use querygraph_retrieval::index::IndexBuilder;
        use querygraph_wiki::KbBuilder;

        let mut b = KbBuilder::new();
        let alpha = b.add_article("alpha");
        let beta = b.add_article("beta");
        let c = b.add_category("things");
        b.belongs(alpha, c);
        b.belongs(beta, c);
        let kb = b.build().unwrap();

        let mut ib = IndexBuilder::new();
        ib.add_document("beta relevant document"); // 0: relevant
        ib.add_document("alpha unrelated noise"); // 1
        let engine = SearchEngine::new(ib.build());
        let evaluator = QualityEvaluator::new(&kb, &engine, &[0], 15);

        let baseline = evaluator.quality(&[alpha]);
        let contrib = contribution(&evaluator, &[alpha], baseline, &[beta]);
        assert!(contrib > 0.0, "beta finds the relevant doc: {contrib}");
    }
}
