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
//! `v`, neighbours in ascending order, so each cycle is discovered
//! exactly once with its minimum node as anchor. A cycle is emitted, in
//! pre-order, when the last node is adjacent to the anchor; the
//! reflection duplicate is suppressed by requiring `n₁ < nₖ`. Length-2
//! cycles come first, from a separate pass over adjacent pairs with edge
//! multiplicity ≥ 2. That sequence is part of the contract: `limit`
//! truncates it, and callers accumulate floating-point scores in it.
//!
//! The search does not walk every simple path. It skips a subtree when
//! it can tell beforehand that no cycle in it will be emitted — and
//! *only* then, which is the invariant every prune has to keep: **a
//! prune may only skip a subtree that emits nothing, so the order of
//! what is emitted is untouched**. Three prunes, `L` the maximum length
//! and `k` the nodes on the path before `w` joins it:
//!
//! * **Distance to a required node.** With `require_any_of`, one
//!   multi-source BFS gives every node's distance `d(u)` to the nearest
//!   required node (without a filter `d ≡ 0`, which makes the rules
//!   below no-ops). On a cycle of length ≤ L every node is within ⌊L/2⌋
//!   hops, round the cycle, of the cycle's required node, so an anchor
//!   with `d(v) > ⌊L/2⌋` is skipped; the anchor is its cycle's minimum,
//!   so anchors stop at the largest required id; a length-2 cycle needs
//!   an endpoint with `d = 0`. An empty required set returns at once.
//! * **Room for the detour.** While the path holds no required node, the
//!   rest of the cycle must run from `w` through one and on to the
//!   anchor: at least `d(w) + d(v)` more edges, of the `L − k` that are
//!   left. `w` is skipped when they do not fit. Once the path holds a
//!   required node every cycle closing below it is emitted, so nothing
//!   there is wasted on the filter.
//! * **Closing marks.** Before an anchor's search its neighbours above
//!   it are stamped `closes`, and those plus *their* neighbours above
//!   the anchor `near` (the stamp is `v + 1`, so nothing is ever
//!   cleared). "`w` closes the cycle" is then a table look-up, not a
//!   binary search of an adjacency list; the last node that fits
//!   (`k + 1 = L`) is taken only from the closing nodes past `n₁`, and
//!   the one before it (`k + 2 = L`) only from the `near` ones — any
//!   other could not get back to the anchor in the edges left. An anchor
//!   with fewer than two neighbours above it is on no cycle as minimum.
//!
//! ## Complexity
//!
//! Unfiltered, the walk is still O(Σ_v d^(L−1)) for maximum length L —
//! exponential in L, exactly the cost the paper calls out as a
//! graph-technology challenge (§4, "6 minutes per query graph") — with
//! the closing marks taking the two deepest levels down to the nodes
//! that can close. Through a required set the cost follows the cycles
//! *emitted*, not all cycles of the graph: on the neighbourhoods a
//! served query induces, ~2.3 path extensions per emitted cycle, where
//! the unpruned walk visited four to five cycles to keep one. The
//! Criterion bench `cycle_enum` measures both: growth with L and graph
//! size, and `cycles/query_neighbourhood` on served-request inputs.

use crate::csr::TypedGraph;
use crate::edge::EdgeType;
use crate::traversal::bfs_distances;

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

/// The neighbours of `u` (undirected cycle view) with ids above `floor`.
fn neighbors_above(g: &TypedGraph, u: u32, floor: u32) -> &[u32] {
    let all = g.und_neighbors(u);
    &all[all.partition_point(|&v| v <= floor)..]
}

/// Configurable enumerator of bounded-length simple cycles. See the
/// module docs for semantics.
pub struct CycleFinder<'g> {
    g: &'g TypedGraph,
    max_len: usize,
    min_len: usize,
    /// The in-range nodes of `require_any_of`, as given.
    require_any: Option<Vec<u32>>,
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
    /// keeps only cycles through an article of L(q.k). Ids that are not
    /// nodes of the graph are ignored; with none left, no cycle
    /// qualifies.
    pub fn require_any_of(mut self, nodes: &[u32]) -> Self {
        let n = self.g.node_count();
        self.require_any = Some(nodes.iter().copied().filter(|&u| u < n).collect());
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
        if self.max_len < 2 || self.min_len > self.max_len || self.limit == 0 {
            return;
        }
        let (g, n) = (self.g, self.g.node_count());
        // `to_required[u]`: hops from `u` to the nearest required node
        // (0 on one; all 0 without a filter). A cycle's minimum node is
        // at most its required node, which ends the anchor range.
        let (to_required, anchors) = match &self.require_any {
            None => (vec![0; n as usize], n),
            Some(required) => match required.iter().max() {
                None => return,
                Some(&last) => (bfs_distances(g, required), last + 1),
            },
        };
        // No node of a qualifying cycle is further than this from the
        // cycle's required node, going round the cycle.
        let reach = self.max_len / 2;
        let mut emitted = 0usize;

        // Length-2 pass: adjacent pairs with multiplicity ≥ 2.
        if self.min_len <= 2 {
            for u in (0..anchors).filter(|&u| to_required[u as usize] <= 1) {
                for &v in neighbors_above(g, u, u) {
                    if (to_required[u as usize] == 0 || to_required[v as usize] == 0)
                        && g.pair_multiplicity(u, v) >= 2
                    {
                        visit(&[u, v]);
                        emitted += 1;
                        if emitted >= self.limit {
                            return;
                        }
                    }
                }
            }
        }
        if self.max_len < 3 {
            return;
        }

        // Lengths ≥ 3: anchored DFS.
        let mut search = Search {
            finder: self,
            to_required: &to_required,
            emitted,
            anchor: 0,
            closes: vec![0; n as usize],
            near: vec![0; n as usize],
            in_path: vec![false; n as usize],
            path: Vec::with_capacity(self.max_len),
            visit: &mut visit,
        };
        for anchor in (0..anchors).filter(|&a| to_required[a as usize] as usize <= reach) {
            let higher = neighbors_above(g, anchor, anchor);
            if higher.len() < 2 {
                continue;
            }
            // Stamp this anchor's closing marks; `anchor + 1` is larger
            // than every earlier stamp, so nothing needs clearing.
            search.anchor = anchor;
            let stamp = anchor + 1;
            for &u in higher {
                search.closes[u as usize] = stamp;
                search.near[u as usize] = stamp;
                for &x in neighbors_above(g, u, anchor) {
                    search.near[x as usize] = stamp;
                }
            }
            search.path.push(anchor);
            search.extend(to_required[anchor as usize] == 0);
            search.path.pop();
            if search.emitted >= self.limit {
                return;
            }
        }
    }
}

/// The state of one `for_each` call's depth-first search.
struct Search<'a, F> {
    finder: &'a CycleFinder<'a>,
    /// Hops from each node to the nearest required node.
    to_required: &'a [u32],
    emitted: usize,
    /// The current anchor; the marks below are live where they equal
    /// `anchor + 1`.
    anchor: u32,
    /// Marks the anchor's neighbours above it: the nodes that close a
    /// cycle.
    closes: Vec<u32>,
    /// Marks those, and their neighbours above the anchor: the nodes
    /// from which one more node can close a cycle.
    near: Vec<u32>,
    in_path: Vec<bool>,
    /// The simple path from the anchor; never empty inside `extend`.
    path: Vec<u32>,
    visit: &'a mut F,
}

impl<F: FnMut(&[u32])> Search<'_, F> {
    /// Extend the path by each neighbour of its last node that can
    /// still lead to an emitted cycle, emitting each cycle that closes.
    /// `through_required` says whether the path already holds a
    /// required node. Once the limit is met this returns at once,
    /// leaving the path as it is.
    fn extend(&mut self, through_required: bool) {
        let CycleFinder {
            g,
            max_len,
            min_len,
            limit,
            ..
        } = *self.finder;
        let stamp = self.anchor + 1;
        let from_anchor = self.to_required[self.anchor as usize];
        let k = self.path.len();
        // Nodes that may still join the path, `w` included.
        let room = max_len - k;
        // The last node to join must close on the canonical side, past
        // the second node; any other only has to be past the anchor.
        let floor = if room == 1 { self.path[1] } else { self.anchor };
        for &w in neighbors_above(g, self.path[k - 1], floor) {
            if self.in_path[w as usize] {
                continue;
            }
            let closes = self.closes[w as usize] == stamp;
            // The reflection of a cycle is its second node swapped with
            // its last: only the side with the smaller second is kept.
            let canonical = self.path.get(1).is_some_and(|&second| second < w);
            let cannot_close = match room {
                1 => !closes,
                2 => self.near[w as usize] != stamp,
                _ => false,
            };
            let through_required = through_required || self.to_required[w as usize] == 0;
            // Without a required node so far, the rest of the cycle
            // must run from `w` through one and on to the anchor.
            let detour = self.to_required[w as usize].saturating_add(from_anchor);
            if cannot_close || (!through_required && detour as usize > room) {
                continue;
            }
            self.path.push(w);
            if closes && canonical && through_required && k + 1 >= min_len {
                (self.visit)(&self.path);
                self.emitted += 1;
                if self.emitted >= limit {
                    return;
                }
            }
            if room > 1 {
                self.in_path[w as usize] = true;
                self.extend(through_required);
                if self.emitted >= limit {
                    return;
                }
                self.in_path[w as usize] = false;
            }
            self.path.pop();
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

    impl CycleFinder<'_> {
        /// The search before it learned to prune — every simple path
        /// from every anchor, the filter applied when a cycle closes —
        /// kept as the order oracle: same cycles, same sequence.
        fn reference_for_each<F: FnMut(&[u32])>(&self, mut visit: F) {
            if self.max_len < 2 || self.limit == 0 {
                return;
            }
            let n = self.g.node_count();
            let mask: Option<Vec<bool>> = self.require_any.as_ref().map(|required| {
                let mut mask = vec![false; n as usize];
                for &u in required {
                    mask[u as usize] = true;
                }
                mask
            });
            let passes = |path: &[u32]| {
                mask.as_ref()
                    .is_none_or(|m| path.iter().any(|&u| m[u as usize]))
            };
            let mut emitted = 0usize;
            if self.min_len <= 2 {
                'outer: for u in 0..n {
                    for &v in self.g.und_neighbors(u) {
                        if v <= u {
                            continue;
                        }
                        if self.g.pair_multiplicity(u, v) >= 2 && passes(&[u, v]) {
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
            let mut in_path = vec![false; n as usize];
            let mut path: Vec<u32> = Vec::with_capacity(self.max_len);
            for anchor in 0..n {
                path.clear();
                path.push(anchor);
                in_path[anchor as usize] = true;
                self.reference_dfs(&mut path, &mut in_path, &mut emitted, &passes, &mut visit);
                in_path[anchor as usize] = false;
                if emitted >= self.limit {
                    return;
                }
            }
        }

        fn reference_dfs(
            &self,
            path: &mut Vec<u32>,
            in_path: &mut Vec<bool>,
            emitted: &mut usize,
            passes: &dyn Fn(&[u32]) -> bool,
            visit: &mut dyn FnMut(&[u32]),
        ) {
            if *emitted >= self.limit {
                return;
            }
            let (anchor, last) = (path[0], *path.last().expect("path never empty"));
            for &w in self.g.und_neighbors(last) {
                if *emitted >= self.limit {
                    return;
                }
                if w <= anchor || in_path[w as usize] {
                    continue;
                }
                path.push(w);
                in_path[w as usize] = true;
                if path.len() >= self.min_len.max(3)
                    && path[1] < w
                    && self.g.und_adjacent(w, anchor)
                    && passes(path)
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
                    self.reference_dfs(path, in_path, emitted, passes, visit);
                }
                in_path[w as usize] = false;
                path.pop();
            }
        }

        fn reference_find_all(&self) -> Vec<Vec<u32>> {
            let mut out = Vec::new();
            self.reference_for_each(|c| out.push(c.to_vec()));
            out
        }
    }

    /// `nodes` nodes, the first `k` of them a clique.
    fn clique(nodes: u32, k: u32) -> GraphBuilder {
        let mut b = GraphBuilder::new(nodes);
        for u in 0..k {
            for v in (u + 1)..k {
                b.add_edge(u, v, EdgeType::Link);
            }
        }
        b
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
    fn nothing_required_returns_without_searching() {
        // K40 has ~10^14 simple paths of 10 nodes: this returns only
        // because no anchor is ever searched.
        let g = clique(40, 40).build();
        for required in [&[][..], &[40, 41, u32::MAX]] {
            let finder = CycleFinder::new(&g).max_len(10).require_any_of(required);
            assert!(finder.find_all().is_empty(), "{required:?}");
        }
    }

    #[test]
    fn out_of_range_required_ids_are_ignored() {
        let g = clique(4, 4).build();
        let cycles = CycleFinder::new(&g).require_any_of(&[3, 3, 99]).find_all();
        assert_eq!(cycles.len(), 3 + 3, "K4: every cycle through one node");
        assert!(cycles.iter().all(|c| c.contains(3)));
    }

    #[test]
    fn cost_follows_the_required_nodes_not_the_graph() {
        // A triangle hanging off K40 by one edge: the search must not
        // wander the clique, whose 10-node paths it could never finish.
        let mut b = clique(43, 40);
        for (u, v) in [(39, 40), (40, 41), (41, 42), (42, 40)] {
            b.add_edge(u, v, EdgeType::Link);
        }
        let g = b.build();
        let cycles = CycleFinder::new(&g)
            .max_len(6)
            .require_any_of(&[42])
            .find_all();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].nodes, vec![40, 41, 42]);
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

        /// The pruned search against the unpruned one, as *sequences*:
        /// a prune may only skip a subtree that emits nothing, so the
        /// order — and with it what `limit` keeps — cannot move.
        #[test]
        fn same_sequence_as_the_unpruned_search(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0u8..4), 0..60),
            reciprocal in proptest::collection::vec((0u32..12, 0u32..12), 0..6),
            required in proptest::collection::vec(0u32..16, 0..6),
            min_len in 2usize..=4,
            max_len in 2usize..=6,
        ) {
            let mut b = GraphBuilder::new(12);
            for (u, v, t) in edges {
                if u != v {
                    b.add_edge(u, v, EdgeType::from_u8(t).expect("0..4"));
                }
            }
            for (u, v) in reciprocal {
                if u != v {
                    b.add_edge(u, v, EdgeType::Link);
                    b.add_edge(v, u, EdgeType::Link);
                }
            }
            let g = b.build();
            let all: Vec<u32> = (0..12).collect();
            // No filter; the sampled ids (may be empty, repeat, or lie
            // outside the graph); every node.
            for required in [None, Some(&required), Some(&all)] {
                let finder = |limit: usize| {
                    let finder = CycleFinder::new(&g).min_len(min_len).max_len(max_len).limit(limit);
                    match required {
                        Some(nodes) => finder.require_any_of(nodes),
                        None => finder,
                    }
                };
                let total = finder(usize::MAX).reference_find_all().len();
                for limit in [0, 1, (total / 2).max(1), usize::MAX] {
                    let found: Vec<Vec<u32>> =
                        finder(limit).find_all().into_iter().map(|c| c.nodes).collect();
                    proptest::prop_assert_eq!(
                        &found,
                        &finder(limit).reference_find_all(),
                        "required {:?} lengths {}..={} limit {}",
                        required, min_len, max_len, limit
                    );
                    proptest::prop_assert_eq!(found.len(), total.min(limit));
                }
            }
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
