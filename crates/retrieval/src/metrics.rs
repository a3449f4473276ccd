//! Retrieval-quality metrics: the paper's Eq. 1 and friends.
//!
//! `P(A, r, D) = |T(A, r) ∩ D| / r` — top-r precision of results
//! against the expected set `D` — and `O(A, D)`, the mean of `P` over
//! `R = {1, 5, 10, 15}` (Eq. 1). The ground-truth construction, the
//! contribution measure of Fig. 5/9, and Tables 2 and 4 are all defined
//! in terms of these two functions.

use crate::engine::SearchHit;

/// The paper's evaluation cutoffs `R = {1, 5, 10, 15}`.
pub const EVAL_CUTOFFS: [usize; 4] = [1, 5, 10, 15];

/// Top-`r` precision of a ranked result list against a sorted relevant
/// set. `relevant` must be sorted ascending (binary search is used).
///
/// Matches the paper's definition exactly: the denominator is `r` even
/// when fewer than `r` documents were retrieved.
pub fn precision_at(results: &[SearchHit], relevant: &[u32], r: usize) -> f64 {
    if r == 0 {
        return 0.0;
    }
    let hits = results
        .iter()
        .take(r)
        .filter(|h| relevant.binary_search(&h.doc).is_ok())
        .count();
    hits as f64 / r as f64
}

/// The paper's Eq. 1: mean of top-r precision over [`EVAL_CUTOFFS`].
pub fn average_quality(results: &[SearchHit], relevant: &[u32]) -> f64 {
    let sum: f64 = EVAL_CUTOFFS
        .iter()
        .map(|&r| precision_at(results, relevant, r))
        .sum();
    sum / EVAL_CUTOFFS.len() as f64
}

/// Per-cutoff precisions in `EVAL_CUTOFFS` order — the row shape of
/// Tables 2 and 4.
pub fn precisions(results: &[SearchHit], relevant: &[u32]) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (i, &r) in EVAL_CUTOFFS.iter().enumerate() {
        out[i] = precision_at(results, relevant, r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(docs: &[u32]) -> Vec<SearchHit> {
        docs.iter()
            .enumerate()
            .map(|(i, &doc)| SearchHit {
                doc,
                score: -(i as f64),
            })
            .collect()
    }

    #[test]
    fn precision_at_basic() {
        let results = hits(&[1, 2, 3, 4, 5]);
        let relevant = [2, 4, 9];
        assert_eq!(precision_at(&results, &relevant, 1), 0.0);
        assert_eq!(precision_at(&results, &relevant, 2), 0.5);
        assert_eq!(precision_at(&results, &relevant, 5), 0.4);
    }

    #[test]
    fn denominator_is_r_even_when_short() {
        // 2 results, both relevant, r=10 → 0.2 (paper's definition).
        let results = hits(&[1, 2]);
        let relevant = [1, 2];
        assert_eq!(precision_at(&results, &relevant, 10), 0.2);
    }

    #[test]
    fn r_zero_is_zero() {
        assert_eq!(precision_at(&hits(&[1]), &[1], 0), 0.0);
    }

    #[test]
    fn average_quality_is_mean_over_cutoffs() {
        let results = hits(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        let relevant: Vec<u32> = (1..=15).collect();
        // Perfect ranking: P@1 = P@5 = P@10 = P@15 = 1.
        assert_eq!(average_quality(&results, &relevant), 1.0);
    }

    #[test]
    fn average_quality_partial() {
        let results = hits(&[1, 99, 98, 97, 96]);
        let relevant = [1];
        // P@1=1, P@5=0.2, P@10=0.1, P@15=1/15.
        let expect = (1.0 + 0.2 + 0.1 + 1.0 / 15.0) / 4.0;
        assert!((average_quality(&results, &relevant) - expect).abs() < 1e-12);
    }

    #[test]
    fn precisions_match_individual_calls() {
        let results = hits(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let relevant = [1, 2, 3];
        let p = precisions(&results, &relevant);
        for (i, &r) in EVAL_CUTOFFS.iter().enumerate() {
            assert_eq!(p[i], precision_at(&results, &relevant, r));
        }
    }

    #[test]
    fn empty_results_zero_precision() {
        assert_eq!(average_quality(&[], &[1, 2]), 0.0);
    }
}
