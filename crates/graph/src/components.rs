//! Connected components of the undirected view of a graph.
//!
//! The paper observes (§3, Table 3) that query graphs are "disconnected
//! graphs composed by a moderately large connected component"; every
//! Table 3 statistic is computed on that largest component. Components
//! here treat *all* edge types as undirected connections (including
//! `Redirect`, which attaches a redirect article to its main article in
//! the query graph), unlike the cycle view which excludes redirects.

use crate::csr::TypedGraph;
use crate::unionfind::UnionFind;

/// A labeling of every node with a dense component id, plus component
/// sizes.
#[derive(Debug, Clone)]
pub struct Components {
    /// `assignment[node] = component id`, ids dense from 0.
    pub(crate) assignment: Vec<u32>,
    /// `sizes[component id] = member count`.
    pub(crate) sizes: Vec<usize>,
}

impl Components {
    /// Id of the largest component (ties broken by lower id, which is
    /// deterministic because ids are assigned in node order).
    pub(crate) fn largest(&self) -> Option<u32> {
        if self.sizes.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &s) in self.sizes.iter().enumerate() {
            if s > self.sizes[best] {
                best = i;
            }
        }
        Some(best as u32)
    }

    /// All members of component `c`, in ascending node order.
    pub(crate) fn members(&self, c: u32) -> Vec<u32> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Members of the largest component (empty for an empty graph).
    pub fn largest_members(&self) -> Vec<u32> {
        match self.largest() {
            Some(c) => self.members(c),
            None => Vec::new(),
        }
    }
}

/// Compute connected components treating every edge (all types) as
/// undirected.
pub fn connected_components(g: &TypedGraph) -> Components {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    for (s, d, _) in g.edges() {
        uf.union(s, d);
    }
    relabel(&mut uf, n)
}

fn relabel(uf: &mut UnionFind, n: u32) -> Components {
    let mut label_of_root = vec![u32::MAX; n as usize];
    let mut assignment = vec![0u32; n as usize];
    let mut sizes = Vec::new();
    for u in 0..n {
        let root = uf.find(u);
        let label = if label_of_root[root as usize] == u32::MAX {
            let l = sizes.len() as u32;
            label_of_root[root as usize] = l;
            sizes.push(0usize);
            l
        } else {
            label_of_root[root as usize]
        };
        assignment[u as usize] = label;
        sizes[label as usize] += 1;
    }
    Components { assignment, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeType, GraphBuilder};

    fn two_components() -> TypedGraph {
        // Component A: 0-1-2 (links + belongs). Component B: 3-4
        // (redirect only). Node 5 isolated.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Belongs);
        b.add_edge(3, 4, EdgeType::Redirect);
        b.build()
    }

    #[test]
    fn counts_components_with_redirects() {
        let c = connected_components(&two_components());
        assert_eq!(c.sizes.len(), 3);
        assert_eq!(c.sizes.iter().sum::<usize>(), 6);
    }

    #[test]
    fn largest_component_members() {
        let c = connected_components(&two_components());
        assert_eq!(c.largest_members(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let c = connected_components(&g);
        assert_eq!(c.sizes.len(), 0);
        assert_eq!(c.largest(), None);
        assert!(c.largest_members().is_empty());
    }

    #[test]
    fn fully_connected_single_component() {
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    b.add_edge(u, v, EdgeType::Link);
                }
            }
        }
        let c = connected_components(&b.build());
        assert_eq!(c.sizes.len(), 1);
        assert_eq!(c.sizes[0], 4);
    }

    proptest::proptest! {
        /// Union-find labelling must agree with a BFS reference on
        /// random graphs: same partition (up to label renaming).
        #[test]
        fn matches_bfs_reference(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
        ) {
            let mut b = GraphBuilder::new(12);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::Link);
                }
            }
            let g = b.build();
            let c = connected_components(&g);
            // BFS reference over the undirected view.
            let mut label = [u32::MAX; 12];
            let mut next = 0u32;
            for s in 0..12u32 {
                if label[s as usize] != u32::MAX {
                    continue;
                }
                let mut queue = vec![s];
                label[s as usize] = next;
                while let Some(u) = queue.pop() {
                    for &v in g.und_neighbors(u) {
                        if label[v as usize] == u32::MAX {
                            label[v as usize] = next;
                            queue.push(v);
                        }
                    }
                }
                next += 1;
            }
            // Same partition: nodes share a component iff they share a
            // BFS label.
            for u in 0..12usize {
                for v in 0..12usize {
                    proptest::prop_assert_eq!(
                        c.assignment[u] == c.assignment[v],
                        label[u] == label[v],
                        "nodes {} and {}", u, v
                    );
                }
            }
        }
    }

    #[test]
    fn assignment_is_dense_in_node_order() {
        let c = connected_components(&two_components());
        // First seen node gets component 0, etc.
        assert_eq!(c.assignment[0], 0);
        assert_eq!(c.assignment[3], 1);
        assert_eq!(c.assignment[5], 2);
    }
}
