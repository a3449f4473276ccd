//! Breadth-first traversals over the undirected cycle view.
//!
//! `cycle_features` (`querygraph-core`) bounds its cycle search to the
//! nodes within a small radius of the query articles — the local search
//! the paper's §4 real-time challenge ("6 minutes per query graph")
//! makes mandatory on a multi-million-article graph — and the search
//! itself ([`crate::cycles`]) steers by distance to the query nodes.
//!
//! Costs, for a graph of |V| nodes and |E| undirected-view edges:
//!
//! * [`bfs_distances`] — O(|V| + |E|): the plain full-graph routine.
//!   `CycleFinder` runs it once per search, on the graph it searches;
//!   it is also the oracle [`ball`] is property-tested against.
//! * [`ball`] — O(nodes and edges within `radius` + |V|/64): it never
//!   leaves the ball, and the only |V|-sized state is a one-bit-per-node
//!   visited set.

use crate::csr::TypedGraph;
use std::collections::VecDeque;

/// Distance label for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Multi-source BFS over the undirected cycle view. Returns one distance
/// per node; sources have distance 0; unreachable nodes get
/// [`UNREACHABLE`]. O(|V| + |E|).
pub fn bfs_distances(g: &TypedGraph, sources: &[u32]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count() as usize];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.und_neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All nodes within `radius` hops of `sources` (including the sources),
/// ascending.
///
/// A level-synchronous BFS that expands `radius` frontiers and stops, so
/// the cost is the ball's own nodes and edges plus a ⌈|V|/64⌉-word
/// visited bitset; the result is read off the bitset's set bits, which
/// is what makes it ascending without a sort.
///
/// # Panics
/// If a source is not a node of `g`.
pub fn ball(g: &TypedGraph, sources: &[u32], radius: u32) -> Vec<u32> {
    let n = g.node_count();
    let mut visited = vec![0u64; (n as usize).div_ceil(64)];
    // Marks `u`; true when it was not marked before.
    let mut visit = |u: u32| {
        let (word, bit) = (&mut visited[(u / 64) as usize], 1u64 << (u % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    };

    // Reached nodes in BFS order; the last level is `reached[level..]`.
    let mut reached: Vec<u32> = Vec::new();
    for &s in sources {
        assert!(s < n, "source {s} out of range (n={n})");
        if visit(s) {
            reached.push(s);
        }
    }
    let mut level = 0;
    for _ in 0..radius {
        let end = reached.len();
        if level == end {
            break;
        }
        for i in level..end {
            for &v in g.und_neighbors(reached[i]) {
                if visit(v) {
                    reached.push(v);
                }
            }
        }
        level = end;
    }

    // The same nodes, ascending: read them back off the bitset.
    reached.clear();
    for (w, &word) in visited.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            reached.push(w as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeType, GraphBuilder};

    fn chain() -> TypedGraph {
        // 0 - 1 - 2 - 3 (links), 4 isolated, 5 -redirect-> 0.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(2, 3, EdgeType::Link);
        b.add_edge(5, 0, EdgeType::Redirect);
        b.build()
    }

    #[test]
    fn single_source_distances() {
        let d = bfs_distances(&chain(), &[0]);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[3], 3);
        assert_eq!(d[4], UNREACHABLE);
        // Redirect edges are not traversed.
        assert_eq!(d[5], UNREACHABLE);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let d = bfs_distances(&chain(), &[0, 3]);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
    }

    #[test]
    fn ball_radius() {
        let g = chain();
        assert_eq!(ball(&g, &[1], 1), vec![0, 1, 2]);
        assert_eq!(ball(&g, &[1], 0), vec![1]);
        assert_eq!(ball(&g, &[1], 10), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ball_crosses_bitset_words() {
        // A path 0 - 1 - … - 199 spans four 64-bit words.
        let mut b = GraphBuilder::new(200);
        for u in 0..199 {
            b.add_edge(u + 1, u, EdgeType::Belongs);
        }
        let g = b.build();
        assert_eq!(ball(&g, &[64], 2), vec![62, 63, 64, 65, 66]);
        assert_eq!(ball(&g, &[199, 0], 1), vec![0, 1, 198, 199]);
        assert_eq!(ball(&g, &[100], u32::MAX).len(), 200);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ball_rejects_a_source_outside_the_graph() {
        ball(&chain(), &[6], 0);
    }

    #[test]
    fn duplicate_sources_are_fine() {
        let d = bfs_distances(&chain(), &[0, 0, 0]);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
    }

    proptest::proptest! {
        /// `ball` against its oracle: sparse random graphs of every edge
        /// type (so: redirect-only nodes, isolated nodes, several
        /// components), sources empty, duplicated or many.
        #[test]
        fn ball_is_the_filtered_full_bfs(
            edges in proptest::collection::vec((0u32..70, 0u32..70, 0u8..4), 0..90),
            sources in proptest::collection::vec(0u32..70, 0..5),
            radius in 0u32..=5,
        ) {
            let radius = if radius == 5 { u32::MAX } else { radius };
            let mut b = GraphBuilder::new(70);
            for (u, v, t) in edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::from_u8(t).expect("0..4"));
                }
            }
            let g = b.build();
            let expected: Vec<u32> = bfs_distances(&g, &sources)
                .into_iter()
                .enumerate()
                .filter(|&(_, d)| d != UNREACHABLE && d <= radius)
                .map(|(i, _)| i as u32)
                .collect();
            let got = ball(&g, &sources, radius);
            proptest::prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
            proptest::prop_assert_eq!(got, expected);
        }
    }
}
