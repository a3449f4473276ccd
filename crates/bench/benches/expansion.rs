//! Expansion-engine latency: the paper's closing challenge is that
//! "query expansion techniques are expected to respond in real time".
//! Measures the cycle-based expander (bounded-neighbourhood cycle
//! enumeration + ranking) against the direct-link baseline, and its
//! neighbourhood extraction (`graph::traversal::ball`) on its own.
//!
//! These cases explain the *strategy* stage of a served `/expand`
//! (`core.expansion.expand_us` and `graph.traversal.ball_us` in the
//! repo benchmark's trace). Each runs on a 250-article world and on the
//! 112k-node stress world with the same query shape: the strategy
//! searches a radius-2 neighbourhood, so its cost must follow the
//! neighbourhood, not the graph — a term in |V| shows as a gap between
//! the two that the neighbourhood sizes do not account for.
//! `expansion/cycle_expander_paper` is the strategy over 32 requests of
//! the `hot_paper` workload's shape (one iteration is all 32): the
//! cache-miss path that workload's p95 and throughput ride.
//! `expansion/cycle_expander_stress_requests` is the same 32-request
//! shape on the stress world: every request `cold_stress` serves runs
//! it. `cycle_expander_stress` times one hub-and-satellite query there.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use querygraph_core::expansion::{cycle_features, link_features, CycleExpanderConfig};
use querygraph_graph::traversal::ball;
use querygraph_wiki::synth::{generate, SynthWiki, SynthWikiConfig};
use querygraph_wiki::ArticleId;
use std::hint::black_box;

fn small_world() -> SynthWiki {
    let mut cfg = SynthWikiConfig::small();
    cfg.num_topics = 10;
    cfg.articles_per_topic = 25;
    generate(&cfg)
}

/// A topic's hub and one of its satellites.
fn query(wiki: &SynthWiki) -> [ArticleId; 2] {
    [wiki.topics[0].hub, wiki.topics[0].articles[3]]
}

fn bench_expanders(c: &mut Criterion) {
    let small = small_world();
    let (stress, stress_requests) = common::stress_requests();
    let config = CycleExpanderConfig::default();

    let mut group = c.benchmark_group("expansion");
    for (name, wiki) in [
        ("cycle_expander", &small),
        ("cycle_expander_stress", &stress),
    ] {
        let query = query(wiki);
        group.bench_function(name, |b| {
            b.iter(|| black_box(cycle_features(&wiki.kb, &config, black_box(&query))).len());
        });
    }
    let (paper, paper_requests) = common::paper_requests();
    for (name, wiki, requests) in [
        ("cycle_expander_paper", &paper, &paper_requests),
        ("cycle_expander_stress_requests", &stress, &stress_requests),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut features = 0;
                for request in requests {
                    features +=
                        black_box(cycle_features(&wiki.kb, &config, black_box(request))).len();
                }
                features
            });
        });
    }
    let small_query = query(&small);
    group.bench_function("direct_link_expander", |b| {
        b.iter(|| black_box(link_features(&small.kb, black_box(&small_query), 10)).len());
    });
    group.finish();

    let radius = config.neighborhood_radius;
    let mut group = c.benchmark_group("traversal");
    for (name, wiki) in [("ball_small", &small), ("ball_stress", &stress)] {
        let nodes = query(wiki).map(|a| wiki.kb.article_node(a));
        let size = ball(wiki.kb.graph(), &nodes, radius).len();
        eprintln!(
            "traversal/{name}: {size} of {} nodes within radius {radius}",
            wiki.kb.graph().node_count()
        );
        group.bench_function(name, |b| {
            b.iter(|| black_box(ball(wiki.kb.graph(), black_box(&nodes), radius)).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_expanders);
criterion_main!(benches);
