//! Cycle-enumeration kernel benchmarks — the paper's §4 performance
//! challenge ("the computation of all the dense cycles of a given
//! length … is computationally expensive … an average time of 6 minutes
//! per query"). Measures how enumeration cost grows with the maximum
//! cycle length and with graph size, and — `cycles/query_neighbourhood`
//! — what the search costs on the graphs a served request hands it
//! (`graph.cycles.enumerate_us` in the repo benchmark's trace).

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use querygraph_core::expansion::CycleExpanderConfig;
use querygraph_graph::cycles::CycleFinder;
use querygraph_graph::subgraph::{induce_reach, Subgraph};
use querygraph_graph::traversal::ball;
use querygraph_graph::TypedGraph;
use querygraph_wiki::synth::{generate, SynthWikiConfig};
use std::hint::black_box;

/// A query-graph-sized subgraph: one topic's neighbourhood.
fn topic_graph(articles_per_topic: usize) -> TypedGraph {
    let mut cfg = SynthWikiConfig::small();
    cfg.num_topics = 3;
    cfg.articles_per_topic = articles_per_topic;
    cfg.intra_links_per_article = 4.0;
    let wiki = generate(&cfg);
    wiki.kb.graph().clone()
}

fn bench_by_max_len(c: &mut Criterion) {
    let g = topic_graph(25);
    let mut group = c.benchmark_group("cycles/by_max_len");
    for max_len in [3usize, 4, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(max_len), &max_len, |b, &l| {
            b.iter(|| {
                let counts = CycleFinder::new(black_box(&g)).max_len(l).count_by_length();
                black_box(counts)
            });
        });
    }
    group.finish();
}

fn bench_by_graph_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycles/by_graph_size");
    group.sample_size(20);
    for n in [10usize, 20, 40] {
        let g = topic_graph(n);
        group.bench_with_input(BenchmarkId::from_parameter(n * 3), &g, |b, g| {
            b.iter(|| {
                let counts = CycleFinder::new(black_box(g)).max_len(5).count_by_length();
                black_box(counts)
            });
        });
    }
    group.finish();
}

fn bench_anchored(c: &mut Criterion) {
    let g = topic_graph(25);
    c.bench_function("cycles/anchored_on_hub", |b| {
        b.iter(|| {
            let cycles = CycleFinder::new(black_box(&g))
                .max_len(5)
                .require_any_of(&[0])
                .find_all();
            black_box(cycles.len())
        });
    });
}

/// The search as `cycle_features` runs it: through the query's nodes,
/// on the part of the truncated radius-2 neighbourhood within
/// ⌊max_len/2⌋ hops of them. One iteration is 32 requests; the
/// subgraphs are built outside the timed loop.
fn bench_query_neighbourhood(c: &mut Criterion) {
    let (wiki, queries) = common::paper_requests();
    let (kb, config) = (&wiki.kb, CycleExpanderConfig::default());
    let inputs: Vec<(Subgraph, Vec<u32>)> = queries
        .iter()
        .map(|query| {
            let nodes: Vec<u32> = query.iter().map(|&a| kb.article_node(a)).collect();
            let mut kept = ball(kb.graph(), &nodes, config.neighborhood_radius);
            kept.truncate(config.max_neighborhood);
            kept.extend_from_slice(&nodes);
            let hops = (config.max_len / 2) as u32;
            let sub = induce_reach(kb.graph(), &kept, &nodes, hops);
            let local = nodes.iter().filter_map(|&n| sub.local_of(n)).collect();
            (sub, local)
        })
        .collect();
    c.bench_function("cycles/query_neighbourhood", |b| {
        b.iter(|| {
            let mut found = 0u64;
            for (sub, local) in &inputs {
                CycleFinder::new(black_box(&sub.graph))
                    .max_len(config.max_len)
                    .require_any_of(local)
                    .limit(config.max_cycles)
                    .for_each(|cycle| found += black_box(cycle.len() as u64).min(1));
            }
            found
        });
    });
}

criterion_group!(
    benches,
    bench_by_max_len,
    bench_by_graph_size,
    bench_anchored,
    bench_query_neighbourhood
);
criterion_main!(benches);
