//! Triangle detection and the triangle participation ratio (TPR).
//!
//! §3 of the paper reports that the largest connected components of the
//! query graphs have an average TPR around 0.3 — "particularly large if
//! we consider that the category graph in Wikipedia is tree-like and
//! therefore triangles are not present". TPR is the fraction of nodes
//! that belong to at least one triangle, computed on the undirected cycle
//! view (redirect edges excluded — a redirect can never be in a
//! triangle anyway).

use crate::csr::TypedGraph;

/// Mark every node that participates in at least one triangle of the
/// undirected cycle view. Returns a boolean per node.
pub(crate) fn triangle_participants(g: &TypedGraph) -> Vec<bool> {
    let n = g.node_count() as usize;
    let mut in_triangle = vec![false; n];
    for u in 0..g.node_count() {
        for &v in g.und_neighbors(u) {
            if v <= u {
                continue; // each edge handled once, u < v
            }
            // Any common neighbor w of u and v forms a triangle
            // {u, v, w}. Marking only needs existence per edge, but to
            // mark *all* participants we must mark each common w too.
            let nu = g.und_neighbors(u);
            let nv = g.und_neighbors(v);
            let (mut i, mut j) = (0, 0);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = nu[i];
                        if w != u && w != v {
                            in_triangle[u as usize] = true;
                            in_triangle[v as usize] = true;
                            in_triangle[w as usize] = true;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    in_triangle
}

/// TPR restricted to a node subset (the paper computes TPR on the
/// *largest connected component* of each query graph). `members` need not
/// be sorted. Returns 0.0 for an empty subset.
pub fn tpr_of_subset(g: &TypedGraph, members: &[u32]) -> f64 {
    if members.is_empty() {
        return 0.0;
    }
    let marks = triangle_participants(g);
    let hit = members.iter().filter(|&&m| marks[m as usize]).count();
    hit as f64 / members.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeType, GraphBuilder};

    fn triangle_plus_tail() -> TypedGraph {
        // Triangle 0-1-2 plus tail 2-3 plus isolated 4.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(0, 2, EdgeType::Belongs);
        b.add_edge(2, 3, EdgeType::Inside);
        b.build()
    }

    #[test]
    fn participants_marked_exactly() {
        let marks = triangle_participants(&triangle_plus_tail());
        assert_eq!(marks, vec![true, true, true, false, false]);
    }

    #[test]
    fn tpr_whole_graph() {
        let tpr = tpr_of_subset(&triangle_plus_tail(), &[0, 1, 2, 3, 4]);
        assert!((tpr - 0.6).abs() < 1e-12, "3 of 5 nodes → 0.6, got {tpr}");
    }

    #[test]
    fn tpr_of_component_subset() {
        let g = triangle_plus_tail();
        let tpr = tpr_of_subset(&g, &[0, 1, 2, 3]);
        assert!((tpr - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tree_has_zero_tpr() {
        // The paper: category graph is tree-like, so no triangles.
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)] {
            b.add_edge(u, v, EdgeType::Inside);
        }
        let g = b.build();
        assert_eq!(triangle_participants(&g), vec![false; 7]);
        assert_eq!(tpr_of_subset(&g, &[0, 1, 2, 3, 4, 5, 6]), 0.0);
    }

    #[test]
    fn redirect_edges_cannot_form_triangles() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(2, 0, EdgeType::Redirect); // would close the triangle
        let g = b.build();
        assert_eq!(triangle_participants(&g), vec![false; 3]);
    }

    #[test]
    fn reciprocal_links_do_not_double_count() {
        // 0 ⇄ 1 is one undirected edge, so only the triangle {0, 1, 2}
        // exists; 1 — 2 alone (no 0 — 2) would close none.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(2, 0, EdgeType::Link);
        b.add_edge(1, 3, EdgeType::Link);
        b.add_edge(3, 1, EdgeType::Link);
        let g = b.build();
        assert_eq!(triangle_participants(&g), vec![true, true, true, false]);
        assert_eq!(tpr_of_subset(&g, &[0, 1, 2, 3]), 0.75);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = GraphBuilder::new(0).build();
        assert!(triangle_participants(&g).is_empty());
        assert_eq!(tpr_of_subset(&g, &[]), 0.0);
    }

    #[test]
    fn k4_every_node_participates() {
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, EdgeType::Link);
            }
        }
        let g = b.build();
        assert_eq!(triangle_participants(&g), vec![true; 4]);
        assert_eq!(tpr_of_subset(&g, &[0, 1, 2, 3]), 1.0);
    }
}
