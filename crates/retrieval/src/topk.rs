//! Deterministic bounded top-k selection.
//!
//! Retrieval results must be reproducible run to run: equal scores are
//! broken by ascending doc id, matching what a stable sort over the full
//! score list would produce. Floating-point scores are compared
//! totally via `f64::total_cmp` (scores are finite by construction —
//! the LM layer never emits NaN).

use crate::engine::SearchHit;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry ordered so the heap root is the *worst* kept result.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry(SearchHit);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by "badness": lower score = greater entry. Ties:
        // higher doc id = greater entry (so it is evicted first).
        match other.0.score.total_cmp(&self.0.score) {
            Ordering::Equal => self.0.doc.cmp(&other.0.doc),
            o => o,
        }
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded top-k collector.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Collector that keeps the best `k` entries.
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer one scored document.
    pub(crate) fn push(&mut self, doc: u32, score: f64) {
        if self.k == 0 {
            return;
        }
        let entry = HeapEntry(SearchHit { doc, score });
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry < *worst {
                self.heap.push(entry);
                self.heap.pop();
            }
        }
    }

    /// The current pruning floor: the worst entry that would survive
    /// [`TopK::into_sorted`] right now, available only once the
    /// collector holds `k` entries (before that, every candidate is
    /// kept, so there is no floor to beat). A candidate whose score
    /// upper bound is strictly below `floor().score` can be skipped
    /// without being scored — it could never displace the root under
    /// the total order (descending score, ties by ascending doc id).
    /// This is the threshold the WAND-style pruned search loops test
    /// against.
    pub(crate) fn floor(&self) -> Option<SearchHit> {
        if self.k > 0 && self.heap.len() == self.k {
            self.heap.peek().map(|e| e.0)
        } else {
            None
        }
    }

    /// Finish: results sorted by descending score, ties by ascending doc
    /// id.
    pub(crate) fn into_sorted(self) -> Vec<SearchHit> {
        let mut v: Vec<SearchHit> = self.heap.into_iter().map(|e| e.0).collect();
        v.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        v
    }
}

/// Candidate entry for [`BoundHeap`]: a hit whose `score` is the
/// candidate's score *upper bound*, ordered so the heap root is the
/// candidate the pruned loop must visit next (highest bound, ties by
/// ascending doc id).
#[derive(Debug, Clone, Copy, PartialEq)]
struct BoundEntry(SearchHit);

impl Eq for BoundEntry {}

impl Ord for BoundEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by upper bound; ties: lower doc id = greater entry,
        // so it pops first.
        match self.0.score.total_cmp(&other.0.score) {
            Ordering::Equal => other.0.doc.cmp(&self.0.doc),
            o => o,
        }
    }
}

impl PartialOrd for BoundEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy descending-bound candidate stream for the pruned search loops.
///
/// Pops candidates (`score` = upper bound) in exactly the order a full
/// `sort_unstable_by` (bound descending, doc ascending) would visit
/// them, but builds in O(n) and pays O(log n) only per pop — so a
/// WAND-style loop that stops after `m` candidates costs O(n + m log n)
/// instead of O(n log n). With typical `m ≈ k ≪ n` the sort was the
/// dominant cost of the pruned path on broad queries.
#[derive(Debug)]
pub(crate) struct BoundHeap {
    heap: BinaryHeap<BoundEntry>,
}

impl BoundHeap {
    /// Heapify a candidate list in O(n).
    pub(crate) fn from_candidates(candidates: Vec<SearchHit>) -> Self {
        BoundHeap {
            heap: BinaryHeap::from(candidates.into_iter().map(BoundEntry).collect::<Vec<_>>()),
        }
    }

    /// Next candidate in (bound descending, doc ascending) order.
    pub(crate) fn pop(&mut self) -> Option<SearchHit> {
        self.heap.pop().map(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut t = TopK::new(3);
        for (d, s) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0), (4, 2.0)] {
            t.push(d, s);
        }
        let out = t.into_sorted();
        let docs: Vec<u32> = out.iter().map(|s| s.doc).collect();
        assert_eq!(docs, vec![1, 3, 2]);
    }

    #[test]
    fn ties_break_by_doc_id() {
        let mut t = TopK::new(2);
        for d in [5, 1, 9, 3] {
            t.push(d, 7.0);
        }
        let docs: Vec<u32> = t.into_sorted().iter().map(|s| s.doc).collect();
        assert_eq!(docs, vec![1, 3]);
    }

    #[test]
    fn fewer_than_k() {
        let mut t = TopK::new(10);
        t.push(4, 1.0);
        t.push(2, 2.0);
        let docs: Vec<u32> = t.into_sorted().iter().map(|s| s.doc).collect();
        assert_eq!(docs, vec![2, 4]);
    }

    #[test]
    fn zero_k() {
        let mut t = TopK::new(0);
        t.push(0, 1.0);
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn matches_full_sort_reference() {
        let scores: Vec<(u32, f64)> = (0..100).map(|i| (i, ((i * 37) % 11) as f64)).collect();
        let mut t = TopK::new(10);
        for &(d, s) in &scores {
            t.push(d, s);
        }
        let fast: Vec<u32> = t.into_sorted().iter().map(|s| s.doc).collect();
        let mut reference = scores;
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let slow: Vec<u32> = reference.iter().take(10).map(|&(d, _)| d).collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn negative_scores_ordered_correctly() {
        let mut t = TopK::new(2);
        t.push(0, -5.0);
        t.push(1, -1.0);
        t.push(2, -3.0);
        let docs: Vec<u32> = t.into_sorted().iter().map(|s| s.doc).collect();
        assert_eq!(docs, vec![1, 2]);
    }

    #[test]
    fn floor_appears_only_when_full() {
        let mut t = TopK::new(2);
        assert!(t.floor().is_none(), "empty collector has no floor");
        t.push(3, 1.0);
        assert!(t.floor().is_none(), "underfull collector has no floor");
        t.push(7, 5.0);
        let f = t.floor().expect("full collector exposes its floor");
        assert_eq!((f.doc, f.score), (3, 1.0));
        // A better entry evicts the floor; the floor tracks the new worst.
        t.push(1, 9.0);
        let f = t.floor().unwrap();
        assert_eq!((f.doc, f.score), (7, 5.0));
        // Equal score, higher doc id: loses the tiebreak, floor unchanged.
        t.push(8, 5.0);
        let f = t.floor().unwrap();
        assert_eq!((f.doc, f.score), (7, 5.0));
        // k = 0 never has a floor (nothing is ever kept).
        let mut z = TopK::new(0);
        z.push(0, 1.0);
        assert!(z.floor().is_none());
    }

    #[test]
    fn bound_heap_pops_in_sorted_order() {
        // Ties included: pop order must match the sort it replaced
        // (bound descending, doc ascending) element for element.
        let cands: Vec<SearchHit> = (0..64u32)
            .map(|doc| SearchHit {
                doc,
                score: ((doc * 13) % 7) as f64,
            })
            .collect();
        let mut reference = cands.clone();
        reference
            .sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        let mut heap = BoundHeap::from_candidates(cands);
        let mut popped = Vec::new();
        while let Some(p) = heap.pop() {
            popped.push(p);
        }
        assert_eq!(popped, reference);
        assert!(BoundHeap::from_candidates(Vec::new()).pop().is_none());
    }

    proptest::proptest! {
        // TopK must agree with the reference "sort everything, truncate
        // to k" on arbitrary score lists. Scores are drawn from a small
        // integer domain so exact ties (doc-id tiebreak) occur in nearly
        // every case; k sweeps the degenerate corners {0, 1, len, len+5}.
        #[test]
        fn equals_full_sort_then_truncate(
            raw in proptest::collection::vec(-6i32..7, 0..48),
        ) {
            let scores: Vec<(u32, f64)> = raw
                .iter()
                .enumerate()
                .map(|(doc, &s)| (doc as u32, s as f64))
                .collect();
            let mut reference = scores.clone();
            reference.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for k in [0, 1, scores.len(), scores.len() + 5] {
                let mut t = TopK::new(k);
                for &(d, s) in &scores {
                    t.push(d, s);
                }
                let got: Vec<(u32, f64)> =
                    t.into_sorted().iter().map(|s| (s.doc, s.score)).collect();
                let want: Vec<(u32, f64)> = reference.iter().take(k).copied().collect();
                proptest::prop_assert_eq!(got, want, "k={}", k);
            }
        }

        // The score workspace pushes candidates in no particular order
        // and relies on this: any permutation of the same pushes —
        // ties included — yields the identical sorted result.
        #[test]
        fn push_order_never_changes_the_result(
            raw in proptest::collection::vec(-3i32..4, 0..40),
            keys in proptest::collection::vec(0u32..1000, 40..41),
            k in 0usize..12,
        ) {
            let scores: Vec<(u32, f64)> = raw
                .iter()
                .enumerate()
                .map(|(doc, &s)| (doc as u32 * 7 % 41, s as f64 * 0.5))
                .collect();
            let run = |order: &[usize]| {
                let mut t = TopK::new(k);
                for &i in order {
                    t.push(scores[i].0, scores[i].1);
                }
                t.into_sorted()
            };
            let forward: Vec<usize> = (0..scores.len()).collect();
            let reversed: Vec<usize> = forward.iter().rev().copied().collect();
            let mut shuffled = forward.clone();
            shuffled.sort_by_key(|&i| (keys[i], i));
            let want = run(&forward);
            proptest::prop_assert_eq!(run(&reversed), want.clone());
            proptest::prop_assert_eq!(run(&shuffled), want);
        }
    }
}
