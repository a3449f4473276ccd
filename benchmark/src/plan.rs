//! The request plan: everything the system under test is sent, as a
//! pure function of `--seed`.
//!
//! The harness owns its random generator (SplitMix64) instead of using
//! the repository's `rand` shim, so a change to that shim can never
//! change the benchmark's inputs between a parent and a change commit.

use querygraph_wiki::synth::SynthWiki;
use querygraph_wiki::ArticleId;

/// Queries in every serving workload's pool.
pub const POOL_SIZE: usize = 1024;

/// Share of pool entries that join two titles of one topic — the
/// corpus generator's `two_entity_query_prob`, so the pool looks like
/// the repository's own synthetic query set.
const TWO_ENTITY_PROB: f64 = 0.6;

/// SplitMix64: small, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on independent stream `stream` (pool,
    /// mix, arrivals… never share a sequence).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Build the query pool from the tier's own knowledge base: a seeded
/// choice of main-article titles, 60 % of them joined with a second
/// title of the same topic.
pub fn query_pool(wiki: &SynthWiki, seed: u64) -> Vec<String> {
    let kb = &wiki.kb;
    let mains: Vec<Vec<ArticleId>> = wiki
        .topics
        .iter()
        .map(|t| {
            t.articles
                .iter()
                .copied()
                .filter(|&a| !kb.is_redirect(a))
                .collect::<Vec<_>>()
        })
        .filter(|articles| !articles.is_empty())
        .collect();
    assert!(!mains.is_empty(), "the knowledge base has no main articles");
    let mut rng = Rng::new(seed, 1);
    (0..POOL_SIZE)
        .map(|_| {
            let topic = &mains[rng.below(mains.len())];
            let first = topic[rng.below(topic.len())];
            let mut text = kb.title(first).to_string();
            if topic.len() > 1 && rng.unit() < TWO_ENTITY_PROB {
                let second = topic[rng.below(topic.len())];
                if second != first {
                    text.push(' ');
                    text.push_str(kb.title(second));
                }
            }
            text
        })
        .collect()
}

/// How query indices are drawn from the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Every pool entry equally likely.
    Uniform,
    /// Zipf with this exponent over a seeded rank order.
    Zipf(f64),
}

/// A seeded stream of pool indices.
#[derive(Debug, Clone)]
pub struct MixSampler {
    rng: Rng,
    /// Pool index at each popularity rank (a seeded shuffle, so the hot
    /// queries differ per seed).
    ranks: Vec<usize>,
    /// Cumulative probability per rank; empty for the uniform mix.
    cdf: Vec<f64>,
}

impl MixSampler {
    /// A sampler over `0..pool` for `mix`, drawing on `stream`. The
    /// rank order depends on the seed alone, so every stream of one run
    /// agrees on which queries are hot.
    pub fn new(pool: usize, mix: Mix, seed: u64, stream: u64) -> MixSampler {
        let mut shuffle = Rng::new(seed, 0);
        let mut ranks: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            ranks.swap(i, shuffle.below(i + 1));
        }
        let rng = Rng::new(seed, stream);
        let cdf = match mix {
            Mix::Uniform => Vec::new(),
            Mix::Zipf(s) => {
                let weights: Vec<f64> = (1..=pool).map(|r| 1.0 / (r as f64).powf(s)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
        };
        MixSampler { rng, ranks, cdf }
    }

    /// The next pool index.
    pub fn sample(&mut self) -> usize {
        if self.cdf.is_empty() {
            return self.ranks[self.rng.below(self.ranks.len())];
        }
        let u = self.rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u);
        self.ranks[rank.min(self.ranks.len() - 1)]
    }

    /// The next `n` pool indices.
    pub fn take(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.sample()).collect()
    }
}

/// One open-loop window: `count` Poisson arrivals at `rate_rps`, as
/// `(scheduled µs from window start, pool index)`. The count is exact
/// (the window's length varies instead), so a window's sample count —
/// and with it which percentiles it supports — never depends on luck.
pub fn open_loop_plan(
    rate_rps: f64,
    count: usize,
    mix: &mut MixSampler,
    gaps: &mut Rng,
) -> Vec<(u64, usize)> {
    let mean_gap_us = 1e6 / rate_rps;
    let mut t_us = 0.0f64;
    (0..count)
        .map(|_| {
            t_us += -(1.0 - gaps.unit()).ln() * mean_gap_us;
            (t_us as u64, mix.sample())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let plan = |seed: u64| {
            let mut mix = MixSampler::new(POOL_SIZE, Mix::Zipf(1.0), seed, 2);
            let mut gaps = Rng::new(seed, 3);
            let closed = mix.take(64);
            (closed, open_loop_plan(1000.0, 256, &mut mix, &mut gaps))
        };
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
        let (closed, open) = plan(7);
        assert!(closed.iter().all(|&i| i < POOL_SIZE));
        assert_eq!(open.len(), 256);
        assert!(open.windows(2).all(|w| w[0].0 <= w[1].0));
        // 256 arrivals at 1000 rps take about a quarter of a second.
        let last = open.last().unwrap().0 as f64;
        assert!((150_000.0..400_000.0).contains(&last), "{last}");
    }

    #[test]
    fn zipf_is_head_heavy_and_uniform_is_not() {
        let head_share = |mix: Mix| {
            let mut sampler = MixSampler::new(POOL_SIZE, mix, 11, 2);
            let hot: Vec<usize> = sampler.ranks[..32].to_vec();
            let draws = sampler.take(20_000);
            draws.iter().filter(|i| hot.contains(i)).count() as f64 / draws.len() as f64
        };
        assert!(head_share(Mix::Zipf(1.0)) > 0.45);
        assert!(head_share(Mix::Uniform) < 0.06);
    }
}
