//! Disjoint-set union (union-find) with path halving and union by size.

/// Union-find over `0..n`.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub(crate) fn new(n: u32) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n as usize],
        }
    }

    /// Representative of `x`'s set (with path halving).
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true when they were
    /// previously distinct.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_ne!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(2), 2);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0)); // already merged
        assert_ne!(uf.find(0), uf.find(2));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 3));
        assert_eq!(uf.find(0), uf.find(3));
    }

    #[test]
    fn transitive_connectivity() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(2), uf.find(3));
    }
}
