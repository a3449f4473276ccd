//! Enumeration of simple cycles of bounded length — the paper's central
//! structural primitive (§3).
//!
//! The paper defines a cycle as "a sequence of |C| nodes (either articles
//! or categories) starting and ending at the same node, with at least one
//! edge among each pair of consecutive nodes", undirected, *not*
//! necessarily chordless, with |C| ≤ 5 "as the cost of finding the cycles
//! grows exponentially with the length". Length-2 cycles are pairs of
//! nodes joined by two distinct edges (in Wikipedia: reciprocal
//! article↔article links — the schema admits no other doubled pair).
//! Redirect edges never participate (§4).
//!
//! ## Enumeration strategy
//!
//! For every *anchor* node `v` (ascending), a depth-first search explores
//! simple paths `v → n₁ → … → nₖ` through nodes strictly greater than
//! `v`, so each cycle is discovered exactly once with its minimum node as
//! anchor. A cycle is emitted when the last node is adjacent to the
//! anchor; the reflection duplicate is suppressed by requiring
//! `n₁ < nₖ`. Length-2 cycles are found by a separate pass over adjacent
//! pairs with edge multiplicity ≥ 2.
//!
//! Complexity is O(Σ_v d^(L−1)) for maximum length L — exponential in L,
//! exactly the cost the paper calls out as a graph-technology challenge
//! (§4, "6 minutes per query graph"). The Criterion bench
//! `cycle_enum` measures this growth.

use crate::csr::TypedGraph;
use crate::edge::EdgeType;

/// A simple cycle: `nodes` in cycle order, `nodes[0]` is the minimum
/// node id (the anchor). `nodes.len()` is the cycle length |C|.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cycle {
    /// Cycle vertices in traversal order starting at the anchor.
    pub nodes: Vec<u32>,
}

impl Cycle {
    /// Cycle length |C| (number of nodes == number of required edges).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Cycles always have ≥ 2 nodes; provided for clippy completeness.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when the cycle contains node `u`.
    pub fn contains(&self, u: u32) -> bool {
        self.nodes.contains(&u)
    }
}

/// Configurable enumerator of bounded-length simple cycles. See the
/// module docs for semantics.
pub struct CycleFinder<'g> {
    g: &'g TypedGraph,
    max_len: usize,
    min_len: usize,
    require_any: Option<Vec<bool>>,
    limit: usize,
}

impl<'g> CycleFinder<'g> {
    /// New finder with the paper's defaults: lengths 2..=5, no node
    /// filter, no output limit.
    pub fn new(g: &'g TypedGraph) -> Self {
        CycleFinder {
            g,
            max_len: 5,
            min_len: 2,
            require_any: None,
            limit: usize::MAX,
        }
    }

    /// Maximum cycle length (inclusive). Values below 2 yield no cycles.
    pub fn max_len(mut self, l: usize) -> Self {
        self.max_len = l;
        self
    }

    /// Minimum cycle length (inclusive, default 2).
    pub fn min_len(mut self, l: usize) -> Self {
        self.min_len = l.max(2);
        self
    }

    /// Only emit cycles containing at least one of `nodes` — the paper
    /// keeps only cycles through an article of L(q.k).
    pub fn require_any_of(mut self, nodes: &[u32]) -> Self {
        let mut mask = vec![false; self.g.node_count() as usize];
        for &u in nodes {
            if (u as usize) < mask.len() {
                mask[u as usize] = true;
            }
        }
        self.require_any = Some(mask);
        self
    }

    /// Stop after collecting `limit` cycles (a safety valve for dense
    /// graphs; the default is unlimited).
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Collect all cycles into a vector.
    pub fn find_all(&self) -> Vec<Cycle> {
        let mut out = Vec::new();
        self.for_each(|c| out.push(Cycle { nodes: c.to_vec() }));
        out
    }

    /// Count cycles per length without materializing them. Index `k` of
    /// the result holds the number of cycles of length `k`
    /// (indices 0 and 1 are always zero).
    pub fn count_by_length(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.max_len + 1];
        self.for_each(|c| counts[c.len()] += 1);
        counts
    }

    /// Visit each cycle's node slice (anchor-first order) without
    /// allocating per cycle. Respects the configured limit.
    pub fn for_each<F: FnMut(&[u32])>(&self, mut visit: F) {
        if self.max_len < 2 || self.limit == 0 {
            return;
        }
        let mut emitted = 0usize;

        // Length-2 pass: adjacent pairs with multiplicity ≥ 2.
        if self.min_len <= 2 {
            'outer: for u in 0..self.g.node_count() {
                for &v in self.g.und_neighbors(u) {
                    if v <= u {
                        continue;
                    }
                    if self.g.pair_multiplicity(u, v) >= 2 && self.passes_filter2(u, v) {
                        visit(&[u, v]);
                        emitted += 1;
                        if emitted >= self.limit {
                            break 'outer;
                        }
                    }
                }
            }
        }
        if emitted >= self.limit || self.max_len < 3 {
            return;
        }

        // Lengths ≥ 3: anchored DFS.
        let n = self.g.node_count() as usize;
        let mut in_path = vec![false; n];
        let mut path: Vec<u32> = Vec::with_capacity(self.max_len);
        for anchor in 0..self.g.node_count() {
            path.clear();
            path.push(anchor);
            in_path[anchor as usize] = true;
            self.dfs(anchor, &mut path, &mut in_path, &mut emitted, &mut visit);
            in_path[anchor as usize] = false;
            if emitted >= self.limit {
                return;
            }
        }
    }

    fn passes_filter2(&self, u: u32, v: u32) -> bool {
        match &self.require_any {
            None => true,
            Some(mask) => mask[u as usize] || mask[v as usize],
        }
    }

    fn passes_filter(&self, path: &[u32]) -> bool {
        match &self.require_any {
            None => true,
            Some(mask) => path.iter().any(|&u| mask[u as usize]),
        }
    }

    fn dfs<F: FnMut(&[u32])>(
        &self,
        anchor: u32,
        path: &mut Vec<u32>,
        in_path: &mut Vec<bool>,
        emitted: &mut usize,
        visit: &mut F,
    ) {
        if *emitted >= self.limit {
            return;
        }
        let last = *path.last().expect("path never empty");
        for &w in self.g.und_neighbors(last) {
            if *emitted >= self.limit {
                return;
            }
            if w <= anchor || in_path[w as usize] {
                continue;
            }
            path.push(w);
            in_path[w as usize] = true;

            // Close the cycle if long enough, w is adjacent to the
            // anchor, and we are on the canonical (non-reflected) side.
            if path.len() >= self.min_len.max(3)
                && path.len() >= 3
                && path[1] < w
                && self.g.und_adjacent(w, anchor)
                && self.passes_filter(path)
            {
                visit(path);
                *emitted += 1;
                if *emitted >= self.limit {
                    in_path[w as usize] = false;
                    path.pop();
                    return;
                }
            }
            if path.len() < self.max_len {
                self.dfs(anchor, path, in_path, emitted, visit);
            }
            in_path[w as usize] = false;
            path.pop();
        }
    }
}

/// Count the edges of the subgraph induced by `nodes` (distinct node
/// ids — a cycle's), with the paper's E(C) conventions (§3):
///
/// * article→article `Link` edges count individually (a reciprocal pair
///   contributes 2 — matching the `A·(A−1)` term of M(C));
/// * `Belongs` edges count once each (`A·C` term);
/// * `Inside` edges count once per unordered category pair
///   (`C·(C−1)/2` term);
/// * `Redirect` edges never count.
pub fn induced_cycle_edges(g: &TypedGraph, nodes: &[u32]) -> usize {
    let mut count = 0usize;
    for &u in nodes {
        for (v, t) in g.out_edges(u) {
            if !nodes.contains(&v) {
                continue;
            }
            match t {
                EdgeType::Link | EdgeType::Belongs => count += 1,
                // An unordered pair is counted from its lower endpoint
                // when that direction exists, else from the higher one.
                EdgeType::Inside => {
                    if u < v || !g.has_edge(v, u, EdgeType::Inside) {
                        count += 1;
                    }
                }
                EdgeType::Redirect => {}
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeType, GraphBuilder};
    use std::collections::HashSet;

    /// Naive reference enumerator: all closed walks that are simple
    /// cycles, canonicalized (min-node rotation + direction) into a set.
    fn naive_cycles(g: &TypedGraph, max_len: usize) -> HashSet<Vec<u32>> {
        let mut found: HashSet<Vec<u32>> = HashSet::new();
        // 2-cycles.
        for u in 0..g.node_count() {
            for &v in g.und_neighbors(u) {
                if v > u && g.pair_multiplicity(u, v) >= 2 {
                    found.insert(vec![u, v]);
                }
            }
        }
        // k ≥ 3 via unrestricted DFS + canonicalization.
        fn canon(path: &[u32]) -> Vec<u32> {
            let k = path.len();
            let min_pos = (0..k).min_by_key(|&i| path[i]).unwrap();
            let fwd: Vec<u32> = (0..k).map(|i| path[(min_pos + i) % k]).collect();
            let bwd: Vec<u32> = (0..k).map(|i| path[(min_pos + k - i) % k]).collect();
            if fwd <= bwd {
                fwd
            } else {
                bwd
            }
        }
        fn extend(
            g: &TypedGraph,
            path: &mut Vec<u32>,
            max_len: usize,
            found: &mut HashSet<Vec<u32>>,
        ) {
            let last = *path.last().unwrap();
            for &w in g.und_neighbors(last) {
                if path.contains(&w) {
                    if w == path[0] && path.len() >= 3 {
                        found.insert(canon(path));
                    }
                    continue;
                }
                if path.len() < max_len {
                    path.push(w);
                    extend(g, path, max_len, found);
                    path.pop();
                }
            }
        }
        for s in 0..g.node_count() {
            let mut path = vec![s];
            extend(g, &mut path, max_len, &mut found);
        }
        found
    }

    fn finder_cycles(g: &TypedGraph, max_len: usize) -> HashSet<Vec<u32>> {
        CycleFinder::new(g)
            .max_len(max_len)
            .find_all()
            .into_iter()
            .map(|c| {
                // The finder emits anchor-first; canonicalize direction
                // the same way the naive enumerator does.
                let k = c.nodes.len();
                if k == 2 {
                    return c.nodes;
                }
                let fwd = c.nodes.clone();
                let mut bwd = vec![c.nodes[0]];
                bwd.extend(c.nodes[1..].iter().rev());
                if fwd <= bwd {
                    fwd
                } else {
                    bwd
                }
            })
            .collect()
    }

    #[test]
    fn triangle_found_once() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(2, 0, EdgeType::Belongs);
        let g = b.build();
        let cycles = CycleFinder::new(&g).find_all();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn two_cycle_requires_multiplicity() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Link);
        let g = b.build();
        assert!(CycleFinder::new(&g).find_all().is_empty());

        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link);
        let g = b.build();
        let cycles = CycleFinder::new(&g).find_all();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn redirect_never_closes_a_cycle() {
        // §4 of the paper. 0→1→2 links, 2→0 redirect.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(2, 0, EdgeType::Redirect);
        let g = b.build();
        assert!(CycleFinder::new(&g).find_all().is_empty());
    }

    #[test]
    fn square_counts_one_four_cycle() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(2, 3, EdgeType::Link);
        b.add_edge(3, 0, EdgeType::Link);
        let g = b.build();
        let counts = CycleFinder::new(&g).count_by_length();
        assert_eq!(counts[4], 1);
        assert_eq!(counts[3], 0);
    }

    #[test]
    fn k4_cycle_census() {
        // K4 has 4 triangles and 3 four-cycles.
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v, EdgeType::Link);
            }
        }
        let g = b.build();
        let counts = CycleFinder::new(&g).count_by_length();
        assert_eq!(counts[3], 4);
        assert_eq!(counts[4], 3);
        assert_eq!(counts[2], 0);
    }

    #[test]
    fn five_cycle_found_at_max_len() {
        let mut b = GraphBuilder::new(5);
        for i in 0..5u32 {
            b.add_edge(i, (i + 1) % 5, EdgeType::Link);
        }
        let g = b.build();
        assert_eq!(CycleFinder::new(&g).max_len(4).find_all().len(), 0);
        let cycles = CycleFinder::new(&g).max_len(5).find_all();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 5);
    }

    #[test]
    fn min_len_filters_short_cycles() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Link);
        b.add_edge(2, 0, EdgeType::Link);
        let g = b.build();
        let cycles = CycleFinder::new(&g).min_len(3).find_all();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
    }

    #[test]
    fn require_any_of_filters() {
        // Two disjoint triangles; require a node from the second.
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(u, v, EdgeType::Link);
        }
        let g = b.build();
        let cycles = CycleFinder::new(&g).require_any_of(&[4]).find_all();
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].contains(4));
    }

    #[test]
    fn limit_caps_output() {
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v, EdgeType::Link);
            }
        }
        let g = b.build();
        assert_eq!(CycleFinder::new(&g).limit(2).find_all().len(), 2);
        assert_eq!(CycleFinder::new(&g).limit(0).find_all().len(), 0);
    }

    #[test]
    fn cycles_within_cycles_are_all_reported() {
        // Square with one diagonal: 2 triangles + the 4-cycle (cycles
        // need not be chordless per the paper's definition).
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            b.add_edge(u, v, EdgeType::Link);
        }
        let g = b.build();
        let counts = CycleFinder::new(&g).count_by_length();
        assert_eq!(counts[3], 2);
        assert_eq!(counts[4], 1);
    }

    #[test]
    fn matches_naive_on_fixed_graphs() {
        let graphs: Vec<TypedGraph> = vec![
            {
                let mut b = GraphBuilder::new(6);
                for (u, v) in [
                    (0, 1),
                    (1, 2),
                    (2, 0),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 2),
                    (1, 4),
                ] {
                    b.add_edge(u, v, EdgeType::Link);
                }
                b.add_edge(1, 0, EdgeType::Link);
                b.build()
            },
            {
                let mut b = GraphBuilder::new(5);
                for (u, v) in [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4)] {
                    b.add_edge(u, v, EdgeType::Belongs);
                }
                b.build()
            },
        ];
        for g in &graphs {
            for max_len in 3..=5 {
                let naive = naive_cycles(g, max_len);
                let fast = finder_cycles(g, max_len);
                assert_eq!(fast, naive, "max_len={max_len}");
            }
        }
    }

    #[test]
    fn induced_edges_counts_link_directions() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link); // reciprocal: counts 2
        b.add_edge(1, 2, EdgeType::Belongs); // counts 1
        b.add_edge(0, 2, EdgeType::Belongs); // counts 1
        let g = b.build();
        assert_eq!(induced_cycle_edges(&g, &[0, 1, 2]), 4);
        assert_eq!(induced_cycle_edges(&g, &[0, 1]), 2);
        assert_eq!(induced_cycle_edges(&g, &[0, 2]), 1);
    }

    #[test]
    fn induced_edges_inside_pairs_count_once() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, EdgeType::Inside);
        b.add_edge(1, 0, EdgeType::Inside); // pathological both-ways: 1 pair
        b.add_edge(1, 2, EdgeType::Inside);
        let g = b.build();
        assert_eq!(induced_cycle_edges(&g, &[0, 1, 2]), 2);
    }

    #[test]
    fn induced_edges_ignore_redirects() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Redirect);
        let g = b.build();
        assert_eq!(induced_cycle_edges(&g, &[0, 1]), 0);
    }

    proptest::proptest! {
        /// E(C) against the definition: links and memberships one by
        /// one, `Inside` edges as a set of unordered pairs.
        #[test]
        fn induced_edges_match_the_definition(
            edges in proptest::collection::vec((0u32..8, 0u32..8, 0u8..4), 0..40),
            nodes in proptest::collection::btree_set(0u32..8, 1..6),
        ) {
            let mut b = GraphBuilder::new(8);
            for (u, v, t) in edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::from_u8(t).expect("0..4"));
                }
            }
            let g = b.build();
            let nodes: Vec<u32> = nodes.into_iter().collect();
            let inside = |&(u, v, _): &(u32, u32, EdgeType)| nodes.contains(&u) && nodes.contains(&v);
            let directed = g
                .edges()
                .filter(inside)
                .filter(|&(_, _, t)| matches!(t, EdgeType::Link | EdgeType::Belongs))
                .count();
            let category_pairs: HashSet<(u32, u32)> = g
                .edges()
                .filter(inside)
                .filter(|&(_, _, t)| t == EdgeType::Inside)
                .map(|(u, v, _)| (u.min(v), u.max(v)))
                .collect();
            proptest::prop_assert_eq!(
                induced_cycle_edges(&g, &nodes),
                directed + category_pairs.len()
            );
        }

        #[test]
        fn matches_naive_on_random_graphs(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..24),
            max_len in 3usize..=5,
        ) {
            let mut b = GraphBuilder::new(8);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::Link);
                }
            }
            let g = b.build();
            let naive = naive_cycles(&g, max_len);
            let fast = finder_cycles(&g, max_len);
            proptest::prop_assert_eq!(fast, naive);
        }

        #[test]
        fn every_emitted_cycle_is_valid(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..30),
        ) {
            let mut b = GraphBuilder::new(10);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::Link);
                }
            }
            let g = b.build();
            for c in CycleFinder::new(&g).find_all() {
                let k = c.nodes.len();
                proptest::prop_assert!((2..=5).contains(&k));
                // Distinct nodes.
                let mut sorted = c.nodes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                proptest::prop_assert_eq!(sorted.len(), k);
                // Anchor is the minimum.
                proptest::prop_assert_eq!(
                    c.nodes[0],
                    *c.nodes.iter().min().unwrap()
                );
                // Consecutive adjacency (including the closing edge).
                if k >= 3 {
                    for i in 0..k {
                        let (u, v) = (c.nodes[i], c.nodes[(i + 1) % k]);
                        proptest::prop_assert!(g.und_adjacent(u, v));
                    }
                } else {
                    proptest::prop_assert!(g.pair_multiplicity(c.nodes[0], c.nodes[1]) >= 2);
                }
            }
        }
    }
}
