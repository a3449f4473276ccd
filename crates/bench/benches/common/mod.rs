//! Inputs the cycle benches share: requests as the repo benchmark's
//! `hot_paper` workload sends them.

use querygraph_wiki::synth::{generate, SynthWiki, SynthWikiConfig};
use querygraph_wiki::ArticleId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper-tier world and 32 seeded queries of the benchmark's shape
/// (`benchmark/src/plan.rs`): a main article of a random topic, 60 % of
/// the time joined by a second one of the same topic. A row that
/// iterates over all of them reports 32 requests per iteration.
pub fn paper_requests() -> (SynthWiki, Vec<Vec<ArticleId>>) {
    let wiki = generate(&SynthWikiConfig::default_experiment());
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
