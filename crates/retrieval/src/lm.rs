//! Dirichlet-smoothed query-likelihood scoring — INDRI's retrieval
//! model.
//!
//! The belief of a query component `w` in document `d` is
//!
//! ```text
//! b(w, d) = log( (tf(w, d) + μ · P(w | collection)) / (|d| + μ) )
//! ```
//!
//! and `#combine` averages the log-beliefs of its children. `μ` defaults
//! to INDRI's 2500. For *phrases*, `P(phrase | collection)` is the exact
//! phrase collection frequency over total tokens (computed by running
//! the matcher over the whole collection once and cached by the engine);
//! unseen components fall back to the index's epsilon probability so the
//! logarithm stays finite.

/// Default Dirichlet prior (INDRI's default).
pub(crate) const DEFAULT_MU: f64 = 2500.0;

/// Scoring parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmParams {
    /// Dirichlet prior μ.
    pub mu: f64,
}

impl Default for LmParams {
    fn default() -> Self {
        LmParams { mu: DEFAULT_MU }
    }
}

/// Log-belief of a component with term frequency `tf` in a document of
/// length `doc_len`, given the component's collection probability.
///
/// `collection_prob` is clamped below by `epsilon` — the collection's
/// smoothing floor ([`crate::backend::RetrievalBackend::epsilon_prob`],
/// aggregated across shards where there are shards) — so that a phrase
/// that never occurs anywhere still yields a finite score. Every scorer
/// in the workspace evaluates this one expression, which is what makes
/// their scores bit-identical.
#[inline]
pub(crate) fn log_belief_with_floor(
    params: LmParams,
    epsilon: f64,
    tf: u32,
    doc_len: u32,
    collection_prob: f64,
) -> f64 {
    let p = collection_prob.max(epsilon);
    let numerator = tf as f64 + params.mu * p;
    let denominator = doc_len as f64 + params.mu;
    (numerator / denominator).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexBuilder, InvertedIndex};

    fn idx() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document("a b c d e f g h");
        b.add_document("a a a a");
        b.build()
    }

    #[test]
    fn higher_tf_scores_higher() {
        let index = idx();
        let p = 5.0 / 12.0; // cf("a") / total tokens
        let params = LmParams::default();
        let s1 = log_belief_with_floor(params, index.epsilon_prob(), 1, 10, p);
        let s4 = log_belief_with_floor(params, index.epsilon_prob(), 4, 10, p);
        assert!(s4 > s1);
    }

    #[test]
    fn longer_docs_dilute() {
        let index = idx();
        let p = 5.0 / 12.0; // cf("a") / total tokens
        let params = LmParams::default();
        let short = log_belief_with_floor(params, index.epsilon_prob(), 1, 5, p);
        let long = log_belief_with_floor(params, index.epsilon_prob(), 1, 500, p);
        assert!(short > long);
    }

    #[test]
    fn zero_tf_uses_background() {
        let index = idx();
        let p = 5.0 / 12.0; // cf("a") / total tokens
        let params = LmParams::default();
        let s = log_belief_with_floor(params, index.epsilon_prob(), 0, 10, p);
        assert!(s.is_finite());
        assert!(s < 0.0);
    }

    #[test]
    fn unseen_component_is_finite() {
        let index = idx();
        let params = LmParams::default();
        let s = log_belief_with_floor(params, index.epsilon_prob(), 0, 10, 0.0);
        assert!(s.is_finite());
    }

    #[test]
    fn mu_zero_degenerates_to_mle() {
        let index = idx();
        let params = LmParams { mu: 0.0 };
        let s = log_belief_with_floor(params, index.epsilon_prob(), 2, 4, 0.25);
        assert!((s - (2.0f64 / 4.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn score_monotone_in_collection_prob() {
        let index = idx();
        let params = LmParams::default();
        // Both probabilities above the epsilon floor (0.5/12 ≈ 0.042).
        let lo = log_belief_with_floor(params, index.epsilon_prob(), 0, 10, 0.05);
        let hi = log_belief_with_floor(params, index.epsilon_prob(), 0, 10, 0.5);
        assert!(hi > lo);
    }

    #[test]
    fn tiny_probs_clamp_to_epsilon() {
        let index = idx();
        let params = LmParams::default();
        let a = log_belief_with_floor(params, index.epsilon_prob(), 0, 10, 1e-12);
        let b = log_belief_with_floor(params, index.epsilon_prob(), 0, 10, 0.0);
        assert_eq!(a, b, "below-epsilon probabilities are equivalent");
    }
}
