//! Thread-scaling benchmark of `retrieval::par::parallel_map` — the
//! one work-stealing runner every parallel consumer in the workspace
//! shares (`run_queries`, shard scatter-gather,
//! segment loading).
//!
//! Two shapes at 1/2/4/8 workers:
//!
//! * `scaling/<t>`: 64 CPU-bound items (~20 µs of integer mixing
//!   each). On an N-core box, throughput should rise ~linearly up to
//!   N workers and flatten past it; on a 1-core box every row
//!   measures the same work plus steal/spawn overhead, which is
//!   exactly the number to watch.
//! * `overhead/<t>`: a single trivial item, isolating the fixed cost
//!   of spinning up (or, for `threads == 1`, skipping) the scoped
//!   worker pool.
//!
//! The checked XOR of the results pins `parallel_map`'s determinism
//! contract while keeping the compiler from eliding the work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use querygraph_retrieval::par::parallel_map;
use std::hint::black_box;

/// ~20 µs of dependency-chained integer mixing — CPU-bound, no
/// allocation, deterministic in `i`.
fn work_unit(i: usize) -> u64 {
    let mut x = (i as u64) ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..20_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x ^= x >> 29;
    }
    x
}

fn bench_thread_scaling(c: &mut Criterion) {
    // The expected fold of the fixed workload, computed once; every
    // iteration must reproduce it regardless of the steal schedule.
    let expected = (0..64).map(work_unit).fold(0u64, |a, v| a ^ v);
    let mut group = c.benchmark_group("par/scaling");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let out = parallel_map(64, threads, |i| work_unit(black_box(i)));
                    let folded = out.iter().fold(0u64, |a, v| a ^ v);
                    assert_eq!(folded, expected, "steal schedule changed the output");
                    black_box(folded)
                });
            },
        );
    }
    group.finish();
}

fn bench_spawn_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("par/overhead");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                // Workers are capped at n, so a single item always runs
                // inline — this times the dispatch decision itself.
                b.iter(|| black_box(parallel_map(1, threads, |i| i as u64 + 1)[0]));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_thread_scaling, bench_spawn_overhead);
criterion_main!(benches);
