//! Mutable edge-list builder that freezes into an immutable
//! [`TypedGraph`].

use crate::csr::TypedGraph;
use crate::edge::EdgeType;

/// Accumulates nodes and typed directed edges, then [`GraphBuilder::build`]s
/// a CSR graph.
///
/// Exact duplicate edges (same source, target *and* type) are
/// deduplicated at build time: the Wikipedia model treats relations as
/// sets, and duplicate wiki-links inside one article body carry no extra
/// structure. Parallel edges of *different* types (or opposite
/// directions) are preserved — they are what makes length-2 cycles
/// possible.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(u32, u32, EdgeType)>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` pre-allocated nodes (ids `0..n`).
    pub fn new(n: u32) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Builder with an edge-capacity hint.
    pub fn with_capacity(n: u32, edges: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a directed typed edge. Self-loops are rejected (the Wikipedia
    /// schema has none and every algorithm in this crate assumes their
    /// absence).
    ///
    /// # Panics
    /// If `src`/`dst` are out of range or equal.
    pub fn add_edge(&mut self, src: u32, dst: u32, ty: EdgeType) {
        assert!(src < self.n, "source {src} out of range (n={})", self.n);
        assert!(dst < self.n, "target {dst} out of range (n={})", self.n);
        assert_ne!(src, dst, "self-loops are not representable in the schema");
        self.edges.push((src, dst, ty));
    }

    /// Freeze into an immutable CSR graph.
    pub fn build(mut self) -> TypedGraph {
        self.edges
            .sort_unstable_by_key(|&(s, d, t)| (s, d, t.as_u8()));
        self.edges.dedup();
        TypedGraph::from_sorted_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_duplicates_are_removed() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(0, 1, EdgeType::Link);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn different_types_between_same_pair_are_kept() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(0, 1, EdgeType::Redirect);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 0, EdgeType::Link);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 5, EdgeType::Link);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
