//! Offline shim of the `criterion` benchmarking surface.
//!
//! No statistics engine — each benchmark's closure is warmed up once and
//! then timed over a fixed iteration budget, split into equal batches.
//! Each batch yields one per-call time; a row prints their median and
//! interquartile range `[q1–q3]`, so two runs of one row can be told
//! apart from noise. Enough to keep `cargo bench` runnable and the bench
//! sources honest until a real harness can be vendored.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Timed batches per benchmark (after one warm-up call).
const BATCHES: usize = 10;

/// Calls per batch: `BATCHES * BATCH_ITERS` = 20 timed calls in all.
const BATCH_ITERS: u32 = 2;

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Run one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _criterion: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for source compatibility; the shim's budget is fixed.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for source compatibility; the shim does not scale
    /// results by throughput.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, name), &mut f);
        self
    }

    /// Run one parameterized benchmark inside the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id.0), &mut |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// A benchmark identifier (function name and/or parameter).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> BenchmarkId {
        BenchmarkId(format!("{function_name}/{parameter}"))
    }

    /// Parameter-only id.
    pub fn from_parameter<P: Display>(parameter: P) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Throughput annotation (accepted, not used by the shim).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Passed to each benchmark closure; `iter` times the workload.
pub struct Bencher {
    /// Per-call time of each batch.
    per_call: Vec<Duration>,
}

impl Bencher {
    /// Time `routine` over the shim's budget, one sample per batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine()); // warm-up, also forces lazy init
        self.per_call.clear();
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..BATCH_ITERS {
                black_box(routine());
            }
            self.per_call.push(start.elapsed() / BATCH_ITERS);
        }
    }
}

/// `(q1, median, q3)` of `samples` in seconds, each quantile linearly
/// interpolated between the two nearest order statistics. All three are
/// 0 for no samples.
fn quartiles(samples: &[Duration]) -> (f64, f64, f64) {
    let mut secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    secs.sort_by(f64::total_cmp);
    let at = |p: f64| {
        if secs.is_empty() {
            return 0.0;
        }
        let rank = p * (secs.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        secs[lo] + (secs[hi] - secs[lo]) * (rank - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, f: &mut F) {
    let mut b = Bencher {
        per_call: Vec::with_capacity(BATCHES),
    };
    f(&mut b);
    let (q1, median, q3) = quartiles(&b.per_call);
    println!(
        "bench {name:<40} {:>12.3} µs/iter [{:.3}–{:.3}]",
        median * 1e6,
        q1 * 1e6,
        q3 * 1e6
    );
}

/// Collect benchmark functions under a group name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micros(us: &[u64]) -> Vec<Duration> {
        us.iter().map(|&u| Duration::from_micros(u)).collect()
    }

    fn in_micros((q1, median, q3): (f64, f64, f64)) -> (f64, f64, f64) {
        (q1 * 1e6, median * 1e6, q3 * 1e6)
    }

    fn close(got: (f64, f64, f64), want: (f64, f64, f64)) -> bool {
        (got.0 - want.0).abs() < 1e-6
            && (got.1 - want.1).abs() < 1e-6
            && (got.2 - want.2).abs() < 1e-6
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        // Ten batches, shuffled: 1..=10 µs.
        let got = in_micros(quartiles(&micros(&[7, 2, 10, 1, 5, 9, 3, 8, 4, 6])));
        assert!(close(got, (3.25, 5.5, 7.75)), "{got:?}");
        // Odd count: the quartiles land on samples.
        let got = in_micros(quartiles(&micros(&[5, 1, 3, 4, 2])));
        assert!(close(got, (2.0, 3.0, 4.0)), "{got:?}");
    }

    #[test]
    fn one_outlier_moves_neither_median_nor_quartiles() {
        let steady = in_micros(quartiles(&micros(&[100; 10])));
        let spiked = in_micros(quartiles(&micros(&[
            100, 100, 100, 100, 100, 100, 100, 100, 100, 5000,
        ])));
        assert_eq!(steady, spiked);
    }

    #[test]
    fn no_samples_read_zero() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn iter_times_every_batch() {
        let mut b = Bencher {
            per_call: Vec::new(),
        };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(calls, 1 + BATCHES as u32 * BATCH_ITERS);
        assert_eq!(b.per_call.len(), BATCHES);
    }
}
