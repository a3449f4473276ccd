//! Induced subgraphs with old↔new node mappings.
//!
//! Query-graph assembly (§2.3 of the paper) induces the Wikipedia
//! subgraph over X(q) ∪ {main articles} ∪ {categories}. The induced
//! subgraph keeps every edge whose endpoints are both selected,
//! preserving edge types.

use crate::csr::TypedGraph;

/// An induced subgraph plus the mapping between its dense local ids and
/// the parent graph's ids.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The induced graph over local ids `0..to_parent.len()`.
    pub graph: TypedGraph,
    /// `to_parent[local] = parent id`; ascending (locals are assigned in
    /// parent-id order, so the mapping is monotonic).
    pub to_parent: Vec<u32>,
}

impl Subgraph {
    /// Map a parent node id to its local id, if selected.
    pub fn local_of(&self, parent: u32) -> Option<u32> {
        self.to_parent.binary_search(&parent).ok().map(|i| i as u32)
    }

    /// Map a local id back to the parent graph.
    pub fn parent_of(&self, local: u32) -> u32 {
        self.to_parent[local as usize]
    }

    /// Number of nodes in the subgraph.
    pub fn node_count(&self) -> u32 {
        self.graph.node_count()
    }
}

/// Induce the subgraph of `g` over `nodes` (duplicates ignored).
/// Edges of every type whose endpoints are both selected are kept.
///
/// Costs O(selected nodes and their out-edges + |V|/64). A node's local
/// id is its rank among the selected, read off a membership bitset plus
/// a count of selected nodes before each word — no |V|-sized id table.
/// Locals follow parent-id order, so walking the selected nodes'
/// `out_edges` — each `(dst, type)`-sorted and deduplicated in the
/// parent CSR — yields the induced edge list already in CSR order: it
/// is frozen as is, with no sort or dedup pass.
pub fn induce(g: &TypedGraph, nodes: &[u32]) -> Subgraph {
    let mut selected: Vec<u32> = nodes.to_vec();
    selected.sort_unstable();
    selected.dedup();
    debug_assert!(selected.iter().all(|&u| u < g.node_count()));

    let mut member = vec![0u64; (g.node_count() as usize).div_ceil(64)];
    for &p in &selected {
        member[(p / 64) as usize] |= 1 << (p % 64);
    }
    let mut before = Vec::with_capacity(member.len());
    let mut count = 0u32;
    for word in &member {
        before.push(count);
        count += word.count_ones();
    }
    let local_of = |q: u32| {
        let (word, bit) = (member[(q / 64) as usize], 1u64 << (q % 64));
        (word & bit != 0).then(|| before[(q / 64) as usize] + (word & (bit - 1)).count_ones())
    };

    let mut edges = Vec::new();
    for (lp, &p) in selected.iter().enumerate() {
        for (q, t) in g.out_edges(p) {
            if let Some(lq) = local_of(q) {
                edges.push((lp as u32, lq, t));
            }
        }
    }
    Subgraph {
        graph: TypedGraph::from_sorted_edges(selected.len() as u32, &edges),
        to_parent: selected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeType, GraphBuilder};

    fn path_graph() -> TypedGraph {
        // 0 →link 1 →belongs 2 →inside 3, plus 4 →redirect 0
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Belongs);
        b.add_edge(2, 3, EdgeType::Inside);
        b.add_edge(4, 0, EdgeType::Redirect);
        b.build()
    }

    #[test]
    fn induces_internal_edges_only() {
        let g = path_graph();
        let s = induce(&g, &[0, 1, 2]);
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.graph.edge_count(), 2); // 0→1, 1→2
    }

    #[test]
    fn preserves_edge_types() {
        let g = path_graph();
        let s = induce(&g, &[1, 2, 3]);
        let l1 = s.local_of(1).unwrap();
        let l2 = s.local_of(2).unwrap();
        let l3 = s.local_of(3).unwrap();
        assert!(s.graph.has_edge(l1, l2, EdgeType::Belongs));
        assert!(s.graph.has_edge(l2, l3, EdgeType::Inside));
    }

    #[test]
    fn mapping_round_trips() {
        let g = path_graph();
        let s = induce(&g, &[4, 2, 0]); // unsorted input
        assert_eq!(s.to_parent, vec![0, 2, 4]);
        for local in 0..s.node_count() {
            let parent = s.parent_of(local);
            assert_eq!(s.local_of(parent), Some(local));
        }
        assert_eq!(s.local_of(1), None);
    }

    #[test]
    fn duplicates_in_selection_ignored() {
        let g = path_graph();
        let s = induce(&g, &[0, 0, 1, 1]);
        assert_eq!(s.node_count(), 2);
    }

    #[test]
    fn empty_selection() {
        let g = path_graph();
        let s = induce(&g, &[]);
        assert_eq!(s.node_count(), 0);
        assert_eq!(s.graph.edge_count(), 0);
    }

    #[test]
    fn redirect_edges_survive_induction() {
        let g = path_graph();
        let s = induce(&g, &[0, 4]);
        let l4 = s.local_of(4).unwrap();
        let l0 = s.local_of(0).unwrap();
        assert!(s.graph.has_edge(l4, l0, EdgeType::Redirect));
    }

    /// Induction the long way: relabel, then let the builder sort and
    /// dedup.
    fn induce_through_builder(g: &TypedGraph, nodes: &[u32]) -> Subgraph {
        let mut selected = nodes.to_vec();
        selected.sort_unstable();
        selected.dedup();
        let mut b = GraphBuilder::new(selected.len() as u32);
        for (u, v, t) in g.edges() {
            if let (Ok(lu), Ok(lv)) = (selected.binary_search(&u), selected.binary_search(&v)) {
                b.add_edge(lu as u32, lv as u32, t);
            }
        }
        Subgraph {
            graph: b.build(),
            to_parent: selected,
        }
    }

    proptest::proptest! {
        /// The direct freeze builds the graph the sorting builder would:
        /// same node map and the same three adjacency views. 150 parent
        /// nodes, so local ids are ranks across several bitset words.
        #[test]
        fn direct_induction_equals_builder_induction(
            edges in proptest::collection::vec((0u32..150, 0u32..150, 0u8..4), 0..400),
            nodes in proptest::collection::vec(0u32..150, 0..100),
        ) {
            let mut b = GraphBuilder::new(150);
            for (u, v, t) in edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::from_u8(t).expect("0..4"));
                }
            }
            let g = b.build();
            let got = induce(&g, &nodes);
            let want = induce_through_builder(&g, &nodes);
            proptest::prop_assert_eq!(&got.to_parent, &want.to_parent);
            proptest::prop_assert_eq!(got.graph.edge_count(), want.graph.edge_count());
            for u in 0..want.node_count() {
                proptest::prop_assert!(got.graph.out_edges(u).eq(want.graph.out_edges(u)));
                proptest::prop_assert!(got.graph.in_edges(u).eq(want.graph.in_edges(u)));
                proptest::prop_assert_eq!(got.graph.und_neighbors(u), want.graph.und_neighbors(u));
                for v in 0..want.node_count() {
                    proptest::prop_assert_eq!(
                        got.graph.pair_multiplicity(u, v),
                        want.graph.pair_multiplicity(u, v)
                    );
                }
            }
        }
    }
}
