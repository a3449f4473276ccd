//! The cycle strategy's neighbourhood extraction on the stress-tier
//! knowledge base, against a reference built from the slow parts.
//!
//! `cycle_features` keeps the `max_neighborhood` lowest node ids of the
//! radius-2 ball and induces the subgraph over the part of them within
//! ⌊max_len/2⌋ hops of the query nodes (`induce_reach`, whose crate
//! proptest checks that reach), so the served bytes depend on `ball`
//! returning exactly the filtered full-graph BFS in ascending order,
//! and on `induce` freezing exactly the graph a sorting `GraphBuilder`
//! would. The crate-level proptests check both
//! on small random graphs; this checks them where the O(|V|) term used
//! to be: 112k nodes, balls of a few thousand.

use querygraph::core::expansion::CycleExpanderConfig;
use querygraph::graph::subgraph::induce;
use querygraph::graph::traversal::{ball, bfs_distances, UNREACHABLE};
use querygraph::graph::{GraphBuilder, TypedGraph};
use querygraph::wiki::synth::{generate, SynthWikiConfig};

/// The neighbourhood as the full BFS gives it, and its induction
/// through the sorting builder.
fn reference(g: &TypedGraph, sources: &[u32], radius: u32, cap: usize) -> (Vec<u32>, TypedGraph) {
    let mut nodes: Vec<u32> = bfs_distances(g, sources)
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d != UNREACHABLE && d <= radius)
        .map(|(i, _)| i as u32)
        .collect();
    nodes.truncate(cap);
    let mut b = GraphBuilder::new(nodes.len() as u32);
    for (lu, &u) in nodes.iter().enumerate() {
        for (v, t) in g.out_edges(u) {
            if let Ok(lv) = nodes.binary_search(&v) {
                b.add_edge(lu as u32, lv as u32, t);
            }
        }
    }
    (nodes, b.build())
}

#[test]
fn stress_neighbourhoods_match_the_full_bfs_reference() {
    let wiki = generate(&SynthWikiConfig::stress());
    let kb = &wiki.kb;
    let g = kb.graph();
    let config = CycleExpanderConfig::default();

    // The benchmark's query shape: one article of a topic, every other
    // query a second one from the same topic.
    let mut state = 0x2015_0505u64;
    let mut below = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % n
    };
    let mut widest = 0;
    for q in 0..64 {
        let topic = &wiki.topics[below(wiki.topics.len())].articles;
        let mut sources = vec![kb.article_node(topic[below(topic.len())])];
        if q % 2 == 1 {
            sources.push(kb.article_node(topic[below(topic.len())]));
        }

        let mut nodes = ball(g, &sources, config.neighborhood_radius);
        widest = widest.max(nodes.len());
        nodes.truncate(config.max_neighborhood);
        let sub = induce(g, &nodes);

        let (expected_nodes, expected) = reference(
            g,
            &sources,
            config.neighborhood_radius,
            config.max_neighborhood,
        );
        assert_eq!(sub.to_parent, expected_nodes, "query {q}: {sources:?}");
        assert_eq!(sub.graph.edge_count(), expected.edge_count(), "query {q}");
        assert!(
            sub.graph.edges().eq(expected.edges()),
            "query {q}: induced edges differ"
        );
    }
    // The cut must have been exercised, or the test proves less than it says.
    assert!(
        widest > config.max_neighborhood,
        "no ball exceeded the cap ({widest})"
    );
}
