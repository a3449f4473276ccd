//! Link reciprocity: the measurement behind the paper's "11.47 % of
//! all pairs of articles that are connected form a cycle of length 2"
//! observation (§3): among unordered node pairs joined by at least one
//! `Link` edge, the fraction joined in *both* directions.

use crate::csr::TypedGraph;
use crate::edge::EdgeType;

/// Link reciprocity: over unordered pairs `{u, v}` connected by at least
/// one `Link` edge, the fraction connected by `Link` edges in both
/// directions. Returns `None` when no linked pair exists.
///
/// This is the statistic the paper reports as 11.47 % for Wikipedia; the
/// synthetic generator in `querygraph-wiki` is calibrated against it.
pub fn link_reciprocity(g: &TypedGraph) -> Option<f64> {
    let mut connected_pairs = 0usize;
    let mut reciprocal_pairs = 0usize;
    for u in 0..g.node_count() {
        for (v, t) in g.out_edges(u) {
            if t != EdgeType::Link {
                continue;
            }
            let back = g.has_edge(v, u, EdgeType::Link);
            if back {
                // Count the reciprocal pair once, at the smaller id.
                if u < v {
                    connected_pairs += 1;
                    reciprocal_pairs += 1;
                }
            } else {
                connected_pairs += 1;
            }
        }
    }
    if connected_pairs == 0 {
        None
    } else {
        Some(reciprocal_pairs as f64 / connected_pairs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn reciprocity_half() {
        // Pairs: {0,1} reciprocal, {1,2} one-way → 1/2.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        assert_eq!(link_reciprocity(&b.build()), Some(0.5));
    }

    #[test]
    fn reciprocity_ignores_non_link_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Belongs);
        assert_eq!(link_reciprocity(&b.build()), None);
    }

    #[test]
    fn reciprocity_all_reciprocal() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link);
        assert_eq!(link_reciprocity(&b.build()), Some(1.0));
    }
}
