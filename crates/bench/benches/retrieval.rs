//! Search-engine benchmarks: index construction, phrase queries, and
//! the multi-phrase ground-truth query shape of §2.2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use querygraph_corpus::imageclef::linking_text;
use querygraph_corpus::synth::{generate_corpus, SynthCorpusConfig};
use querygraph_retrieval::engine::{SearchEngine, SearchMode};
use querygraph_retrieval::index::IndexBuilder;
use querygraph_retrieval::query_lang::{parse, QueryNode};
use querygraph_wiki::synth::{generate, SynthWikiConfig};
use std::hint::black_box;

fn corpus_texts() -> Vec<String> {
    let wiki = generate(&SynthWikiConfig::small());
    let mut cfg = SynthCorpusConfig::small();
    cfg.noise_docs = 400;
    let sc = generate_corpus(&wiki, &cfg);
    sc.corpus.iter().map(|(_, d)| linking_text(d)).collect()
}

fn build_engine(texts: &[String]) -> SearchEngine {
    let mut b = IndexBuilder::new();
    for t in texts {
        b.add_document(t);
    }
    SearchEngine::new(b.build())
}

fn bench_index_build(c: &mut Criterion) {
    let texts = corpus_texts();
    c.bench_function("retrieval/index_build", |b| {
        b.iter(|| {
            let mut ib = IndexBuilder::new();
            for t in &texts {
                ib.add_document(black_box(t));
            }
            black_box(ib.build().num_terms())
        });
    });
}

fn bench_queries(c: &mut Criterion) {
    let texts = corpus_texts();
    let engine = build_engine(&texts);
    let queries = [
        ("term", "harbor"),
        ("phrase2", "#1(northern temple)"),
        (
            "combine4",
            "#combine(#1(northern temple) #1(temple gate) harbor glacier)",
        ),
    ];
    let mut group = c.benchmark_group("retrieval/search");
    for (name, q) in queries {
        let node = parse(q).expect("query parses");
        group.bench_with_input(BenchmarkId::from_parameter(name), &node, |b, node| {
            b.iter(|| black_box(engine.search(black_box(node), 15).len()));
        });
    }
    group.finish();
}

fn bench_pruned_vs_exact(c: &mut Criterion) {
    let texts = corpus_texts();
    let engine = build_engine(&texts);
    // Bare-term #combine: the broad-candidate shape where block-max
    // pruning earns its keep (phrase queries have selective candidate
    // sets, so exact and pruned converge there).
    let node = parse("#combine(harbor glacier temple northern gate market)").expect("parses");
    let mut group = c.benchmark_group("retrieval/pruned_vs_exact");
    for (name, mode) in [("exact", SearchMode::Exact), ("pruned", SearchMode::Pruned)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &node, |b, node| {
            b.iter(|| black_box(engine.search_with(black_box(node), 10, mode).len()));
        });
    }
    group.finish();
}

fn bench_ground_truth_query_shape(c: &mut Criterion) {
    let texts = corpus_texts();
    let engine = build_engine(&texts);
    // An 8-title exact-phrase #combine — the shape the hill climb emits.
    let titles = [
        "harbor",
        "northern temple",
        "temple gate",
        "temple of valdria",
        "southern temple",
        "temple market",
        "glacier",
        "eastern orchard",
    ];
    let node = QueryNode::phrases_of_titles(&titles);
    c.bench_function("retrieval/gt_query_8_phrases", |b| {
        b.iter(|| black_box(engine.search(black_box(&node), 15).len()));
    });
}

criterion_group!(
    benches,
    bench_index_build,
    bench_queries,
    bench_pruned_vs_exact,
    bench_ground_truth_query_shape
);
criterion_main!(benches);
