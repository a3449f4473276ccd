//! Immutable CSR (compressed sparse row) storage for typed directed
//! multigraphs, with a precomputed undirected *cycle view*.
//!
//! Three parallel adjacency structures are stored:
//!
//! * **out** — directed out-edges `(target, type)`, sorted per node;
//! * **in** — directed in-edges `(source, type)`, sorted per node;
//! * **und** — the undirected cycle view: for every node, the sorted,
//!   deduplicated set of neighbors reachable through *cycle-eligible*
//!   edges (everything except `Redirect`) in either direction. All cycle,
//!   triangle and density computations of the paper run on this view.

use crate::edge::EdgeType;

/// An immutable typed directed multigraph in CSR form. Construct through
/// [`crate::GraphBuilder`].
#[derive(Debug, Clone)]
pub struct TypedGraph {
    n: u32,
    edge_count: usize,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    out_types: Vec<u8>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
    in_types: Vec<u8>,
    und_offsets: Vec<u32>,
    und_neighbors: Vec<u32>,
}

impl TypedGraph {
    /// Build from an edge list that is already sorted by
    /// `(src, dst, type)` and deduplicated. Called by
    /// [`crate::GraphBuilder::build`], which sorts first, and by
    /// [`crate::subgraph::induce`], whose edges come out of a parent CSR
    /// in that order already.
    pub(crate) fn from_sorted_edges(n: u32, edges: &[(u32, u32, EdgeType)]) -> TypedGraph {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending by (src, dst, type)"
        );
        let nu = n as usize;

        // Out-CSR: edges are already grouped by source.
        let mut out_offsets = vec![0u32; nu + 1];
        for &(s, _, _) in edges {
            out_offsets[s as usize + 1] += 1;
        }
        for i in 0..nu {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(edges.len());
        let mut out_types = Vec::with_capacity(edges.len());
        for &(_, d, t) in edges {
            out_targets.push(d);
            out_types.push(t.as_u8());
        }

        // In-CSR: counting sort by target.
        let mut in_offsets = vec![0u32; nu + 1];
        for &(_, d, _) in edges {
            in_offsets[d as usize + 1] += 1;
        }
        for i in 0..nu {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets[..nu].to_vec();
        let mut in_sources = vec![0u32; edges.len()];
        let mut in_types = vec![0u8; edges.len()];
        for &(s, d, t) in edges {
            let slot = cursor[d as usize] as usize;
            in_sources[slot] = s;
            in_types[slot] = t.as_u8();
            cursor[d as usize] += 1;
        }
        // The counting sort is stable and `edges` ascends by
        // (source, target, type), so every in-bucket already ascends by
        // (source, type) — the order `in_edges` documents.

        // Undirected cycle view: per node, the union of its out-targets
        // and in-sources over cycle-eligible edges. Both runs ascend, so
        // a merge that drops repeats leaves each list sorted and unique.
        fn eligible<'a>(ids: &'a [u32], types: &'a [u8]) -> impl Iterator<Item = u32> + 'a {
            let redirect = EdgeType::Redirect.as_u8();
            ids.iter()
                .zip(types)
                .filter(move |&(_, &t)| t != redirect)
                .map(|(&u, _)| u)
        }
        let mut und_offsets = Vec::with_capacity(nu + 1);
        und_offsets.push(0u32);
        let mut und_neighbors: Vec<u32> = Vec::with_capacity(edges.len());
        for v in 0..nu {
            let (lo, hi) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
            let mut outs = eligible(&out_targets[lo..hi], &out_types[lo..hi]).peekable();
            let (lo, hi) = (in_offsets[v] as usize, in_offsets[v + 1] as usize);
            let mut ins = eligible(&in_sources[lo..hi], &in_types[lo..hi]).peekable();
            let start = und_neighbors.len();
            while let Some(u) = match (outs.peek(), ins.peek()) {
                (Some(a), Some(b)) if a <= b => outs.next(),
                (Some(_), None) => outs.next(),
                _ => ins.next(),
            } {
                if und_neighbors[start..].last() != Some(&u) {
                    und_neighbors.push(u);
                }
            }
            und_offsets.push(und_neighbors.len() as u32);
        }

        TypedGraph {
            n,
            edge_count: edges.len(),
            out_offsets,
            out_targets,
            out_types,
            in_offsets,
            in_sources,
            in_types,
            und_offsets,
            und_neighbors,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Number of directed edges (after deduplication).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Directed out-edges of `u` as parallel `(targets, types)` slices,
    /// sorted by `(target, type)`.
    #[inline]
    pub fn out_edges(&self, u: u32) -> impl Iterator<Item = (u32, EdgeType)> + '_ {
        let (lo, hi) = (
            self.out_offsets[u as usize] as usize,
            self.out_offsets[u as usize + 1] as usize,
        );
        self.out_targets[lo..hi]
            .iter()
            .zip(&self.out_types[lo..hi])
            .map(|(&d, &t)| (d, EdgeType::from_u8(t).expect("valid stored type")))
    }

    /// Directed in-edges of `u` as `(source, type)`, sorted by
    /// `(source, type)`.
    #[inline]
    pub fn in_edges(&self, u: u32) -> impl Iterator<Item = (u32, EdgeType)> + '_ {
        let (lo, hi) = (
            self.in_offsets[u as usize] as usize,
            self.in_offsets[u as usize + 1] as usize,
        );
        self.in_sources[lo..hi]
            .iter()
            .zip(&self.in_types[lo..hi])
            .map(|(&s, &t)| (s, EdgeType::from_u8(t).expect("valid stored type")))
    }

    /// Out-degree of `u` (directed, all types).
    #[inline]
    pub fn out_degree(&self, u: u32) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `u` (directed, all types).
    #[inline]
    pub fn in_degree(&self, u: u32) -> usize {
        (self.in_offsets[u as usize + 1] - self.in_offsets[u as usize]) as usize
    }

    /// Sorted unique neighbors of `u` in the undirected cycle view
    /// (redirect edges excluded).
    #[inline]
    pub fn und_neighbors(&self, u: u32) -> &[u32] {
        let (lo, hi) = (
            self.und_offsets[u as usize] as usize,
            self.und_offsets[u as usize + 1] as usize,
        );
        &self.und_neighbors[lo..hi]
    }

    /// Degree in the undirected cycle view.
    #[inline]
    pub fn und_degree(&self, u: u32) -> usize {
        self.und_neighbors(u).len()
    }

    /// True when `u` and `v` are adjacent in the undirected cycle view.
    #[inline]
    pub fn und_adjacent(&self, u: u32, v: u32) -> bool {
        self.und_neighbors(u).binary_search(&v).is_ok()
    }

    /// True when the directed edge `u → v` of type `ty` exists.
    pub fn has_edge(&self, u: u32, v: u32, ty: EdgeType) -> bool {
        let (lo, hi) = (
            self.out_offsets[u as usize] as usize,
            self.out_offsets[u as usize + 1] as usize,
        );
        let targets = &self.out_targets[lo..hi];
        let types = &self.out_types[lo..hi];
        // Edges are sorted by (target, type); scan the target's run.
        let start = targets.partition_point(|&t| t < v);
        let mut i = start;
        while i < targets.len() && targets[i] == v {
            if types[i] == ty.as_u8() {
                return true;
            }
            i += 1;
        }
        false
    }

    /// True when any directed edge `u → v` (any type) exists.
    pub fn has_any_edge(&self, u: u32, v: u32) -> bool {
        let (lo, hi) = (
            self.out_offsets[u as usize] as usize,
            self.out_offsets[u as usize + 1] as usize,
        );
        self.out_targets[lo..hi].binary_search(&v).is_ok()
    }

    /// Number of distinct directed cycle-eligible edges between `u` and
    /// `v`, counting both directions. A value ≥ 2 means the pair forms a
    /// length-2 cycle in the paper's sense (e.g. reciprocal wiki-links).
    pub fn pair_multiplicity(&self, u: u32, v: u32) -> usize {
        let count_dir = |a: u32, b: u32| {
            let (lo, hi) = (
                self.out_offsets[a as usize] as usize,
                self.out_offsets[a as usize + 1] as usize,
            );
            let targets = &self.out_targets[lo..hi];
            let types = &self.out_types[lo..hi];
            let start = targets.partition_point(|&t| t < b);
            let mut n = 0;
            let mut i = start;
            while i < targets.len() && targets[i] == b {
                if EdgeType::from_u8(types[i])
                    .expect("valid stored type")
                    .cycle_eligible()
                {
                    n += 1;
                }
                i += 1;
            }
            n
        };
        count_dir(u, v) + count_dir(v, u)
    }

    /// Iterate all directed edges `(src, dst, type)` in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, EdgeType)> + '_ {
        (0..self.n).flat_map(move |u| self.out_edges(u).map(move |(d, t)| (u, d, t)))
    }

    /// Count directed edges of one type.
    pub fn count_edges_of_type(&self, ty: EdgeType) -> usize {
        self.out_types.iter().filter(|&&t| t == ty.as_u8()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> TypedGraph {
        // 0→1 link, 1→0 link (reciprocal), 0→2 belongs, 1→2 belongs,
        // 2→3 inside, 0→4 redirect target? (4 redirects to 0)
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link);
        b.add_edge(0, 2, EdgeType::Belongs);
        b.add_edge(1, 2, EdgeType::Belongs);
        b.add_edge(2, 3, EdgeType::Inside);
        b.add_edge(4, 0, EdgeType::Redirect);
        b.build()
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 2); // from 1 (link) and 4 (redirect)
        assert_eq!(g.out_degree(4), 1);
        assert_eq!(g.in_degree(3), 1);
    }

    #[test]
    fn out_edges_sorted() {
        let g = diamond();
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, EdgeType::Link), (2, EdgeType::Belongs)]);
    }

    #[test]
    fn in_edges_sorted() {
        let g = diamond();
        let in0: Vec<_> = g.in_edges(0).collect();
        assert_eq!(in0, vec![(1, EdgeType::Link), (4, EdgeType::Redirect)]);
    }

    #[test]
    fn undirected_view_excludes_redirects() {
        let g = diamond();
        assert_eq!(g.und_neighbors(0), &[1, 2]);
        assert_eq!(g.und_neighbors(4), &[] as &[u32]);
        assert!(!g.und_adjacent(0, 4));
        assert!(g.und_adjacent(0, 1));
        assert!(g.und_adjacent(2, 0)); // symmetric
    }

    #[test]
    fn has_edge_by_type() {
        let g = diamond();
        assert!(g.has_edge(0, 1, EdgeType::Link));
        assert!(!g.has_edge(0, 1, EdgeType::Belongs));
        assert!(g.has_edge(4, 0, EdgeType::Redirect));
        assert!(!g.has_edge(0, 4, EdgeType::Redirect));
    }

    #[test]
    fn pair_multiplicity_counts_both_directions() {
        let g = diamond();
        assert_eq!(g.pair_multiplicity(0, 1), 2); // reciprocal links
        assert_eq!(g.pair_multiplicity(0, 2), 1); // single belongs
        assert_eq!(g.pair_multiplicity(0, 4), 0); // redirect only: ineligible
        assert_eq!(g.pair_multiplicity(1, 3), 0); // not adjacent
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = diamond();
        assert_eq!(g.edges().count(), g.edge_count());
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn count_by_type() {
        let g = diamond();
        assert_eq!(g.count_edges_of_type(EdgeType::Link), 2);
        assert_eq!(g.count_edges_of_type(EdgeType::Belongs), 2);
        assert_eq!(g.count_edges_of_type(EdgeType::Inside), 1);
        assert_eq!(g.count_edges_of_type(EdgeType::Redirect), 1);
    }

    #[test]
    fn isolated_node_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.node_count(), 3);
        for u in 0..3 {
            assert_eq!(g.out_degree(u), 0);
            assert_eq!(g.und_degree(u), 0);
        }
    }

    proptest::proptest! {
        /// The three views against the edge list they were frozen from:
        /// `from_sorted_edges` relies on its counting sort being stable
        /// instead of sorting each in-bucket.
        #[test]
        fn views_are_sorted_projections_of_the_edge_list(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0u8..4), 0..80),
        ) {
            let mut b = GraphBuilder::new(12);
            for &(u, v, t) in &edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::from_u8(t).expect("0..4"));
                }
            }
            let g = b.build();
            let all: Vec<(u32, u32, EdgeType)> = g.edges().collect();
            proptest::prop_assert!(all.windows(2).all(|w| w[0] < w[1]));
            for u in 0..12 {
                let mut ins: Vec<(u32, EdgeType)> = all
                    .iter()
                    .filter(|&&(_, d, _)| d == u)
                    .map(|&(s, _, t)| (s, t))
                    .collect();
                ins.sort_unstable();
                proptest::prop_assert_eq!(g.in_edges(u).collect::<Vec<_>>(), ins);
                let mut und: Vec<u32> = all
                    .iter()
                    .filter(|&&(_, _, t)| t.cycle_eligible())
                    .filter_map(|&(s, d, _)| match (s == u, d == u) {
                        (true, _) => Some(d),
                        (_, true) => Some(s),
                        _ => None,
                    })
                    .collect();
                und.sort_unstable();
                und.dedup();
                proptest::prop_assert_eq!(g.und_neighbors(u), &und[..]);
            }
        }
    }
}
