//! Deterministic work-stealing `parallel_map` — the workspace's one
//! parallel execution primitive.
//!
//! Extracted from `core::pipeline` (which re-exports it unchanged) so
//! the retrieval layer itself can scatter work — the sharded engine
//! fans per-shard retrieval and per-shard artifact loads over it —
//! without a dependency cycle. Every parallel consumer in the
//! workspace (`run_queries`, shard scatter-gather,
//! parallel segment loading) runs on this one runner, so the
//! determinism argument is made once: the steal schedule only decides
//! *who* computes an index, never *what* is computed.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `0..n` through `f` across `threads` workers with chunked work
/// stealing, reassembling results in index order.
///
/// Output is **deterministic** for pure `f`: slot `i` always receives
/// `f(i)`. `threads <= 1` runs inline on the calling thread (no spawn
/// overhead); workers are capped at `n`.
///
/// The calling thread is worker 0 and only `workers - 1` scoped threads
/// are spawned: a caller asleep on the joins leaves every worker to the
/// scheduler's fork placement, which on a two-core guest stacks both on
/// one core (the other idle) about one call in five — twice the wall
/// clock, in no pattern. A caller that keeps its own core leaves the
/// spawned worker the idle one.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let queue = StealQueue::new(n, workers);
    let drain = |w: usize| {
        let mut local = Vec::new();
        while let Some(i) = queue.claim(w) {
            local.push((i, f(i)));
        }
        local
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let drain = &drain;
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || drain(w)))
            .collect();
        let mut claimed = drain(0);
        for handle in handles {
            claimed.extend(handle.join().expect("parallel_map worker panicked"));
        }
        for (i, value) in claimed {
            debug_assert!(slots[i].is_none(), "index {i} claimed twice");
            slots[i] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index mapped exactly once"))
        .collect()
}

/// Chunked work-stealing index queue over `0..n`.
///
/// Worker `w` drains its own chunk with `fetch_add`, then sweeps the
/// other chunks in ring order. A cursor may overshoot its chunk end by
/// at most one claim per polling worker; overshoots are discarded, so
/// every index in `0..n` is handed out exactly once.
struct StealQueue {
    cursors: Vec<AtomicUsize>,
    ends: Vec<usize>,
}

impl StealQueue {
    fn new(n: usize, workers: usize) -> StealQueue {
        let base = n / workers;
        let extra = n % workers;
        let mut cursors = Vec::with_capacity(workers);
        let mut ends = Vec::with_capacity(workers);
        let mut next = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            cursors.push(AtomicUsize::new(next));
            next += len;
            ends.push(next);
        }
        StealQueue { cursors, ends }
    }

    /// Claim the next index for `worker`, stealing when its own chunk is
    /// drained. Returns `None` when the whole queue is exhausted.
    fn claim(&self, worker: usize) -> Option<usize> {
        let w = self.cursors.len();
        for k in 0..w {
            let chunk = (worker + k) % w;
            let idx = self.cursors[chunk].fetch_add(1, Ordering::Relaxed);
            if idx < self.ends[chunk] {
                return Some(idx);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_queue_hands_out_every_index_once() {
        for (n, workers) in [(0, 3), (1, 4), (7, 3), (24, 4), (5, 8)] {
            let queue = StealQueue::new(n, workers.min(n.max(1)));
            let mut seen = vec![0usize; n];
            for w in 0..queue.cursors.len() {
                while let Some(idx) = queue.claim(w) {
                    seen[idx] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "n={n} w={workers}: {seen:?}");
        }
    }

    #[test]
    fn steal_queue_is_exhaustive_under_contention() {
        let n = 97;
        let workers = 8;
        let queue = StealQueue::new(n, workers);
        let claimed: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(idx) = queue.claim(w) {
                            mine.push(idx);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("claimer panicked"))
                .collect()
        });
        let mut sorted = claimed;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_sequential_at_any_thread_count() {
        let f = |i: usize| i * i + 1;
        let expected: Vec<usize> = (0..31).map(f).collect();
        for threads in [0, 1, 2, 8, 64] {
            assert_eq!(parallel_map(31, threads, f), expected, "threads={threads}");
        }
        assert!(parallel_map(0, 4, f).is_empty());
    }

    #[test]
    fn caller_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        for workers in [2, 3] {
            let ran_on = parallel_map(12, workers, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                std::thread::current().id()
            });
            let mut spawned: Vec<_> = ran_on.into_iter().filter(|id| *id != caller).collect();
            spawned.sort_by_key(|id| format!("{id:?}"));
            spawned.dedup();
            assert!(spawned.len() < workers, "{workers} workers: {spawned:?}");
        }
    }
}
