//! Inputs the cycle benches share: requests as the repo benchmark's
//! `hot_paper` and `cold_stress` workloads send them.

// Each bench target compiles its own copy and uses a part of it.
#![allow(dead_code)]

use querygraph_wiki::synth::{generate, SynthWiki, SynthWikiConfig};
use querygraph_wiki::ArticleId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper-tier world and 32 seeded requests of the benchmark's shape
/// (`benchmark/src/plan.rs`): a main article of a random topic, 60 % of
/// the time joined by a second one of the same topic. A row that
/// iterates over all of them reports 32 requests per iteration.
pub(crate) fn paper_requests() -> (SynthWiki, Vec<Vec<ArticleId>>) {
    requests(&SynthWikiConfig::default_experiment())
}

/// [`paper_requests`] on the 112k-node stress-tier world, the one
/// `cold_stress` serves.
pub(crate) fn stress_requests() -> (SynthWiki, Vec<Vec<ArticleId>>) {
    requests(&SynthWikiConfig::stress())
}

fn requests(config: &SynthWikiConfig) -> (SynthWiki, Vec<Vec<ArticleId>>) {
    let wiki = generate(config);
    let mut rng = StdRng::seed_from_u64(0x2015_0505);
    let queries = (0..32)
        .map(|_| {
            let topic = &wiki.topics[rng.gen_range(0..wiki.topics.len())].articles;
            let first = topic[rng.gen_range(0..topic.len())];
            let mut query = vec![first];
            if rng.gen_bool(0.6) {
                let second = topic[rng.gen_range(0..topic.len())];
                if second != first {
                    query.push(second);
                }
            }
            query
        })
        .collect();
    (wiki, queries)
}
