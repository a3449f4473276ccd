//! What `CycleExpander::expand` serves is pinned here, independently of
//! how the cycle search or its visitor are written.
//!
//! The repo benchmark's oracle is built from the same library as the
//! server it checks, so it agrees with a drifted expander by
//! construction; the `Report` goldens cover the analysis pipeline, not
//! the served strategy. This file is what can see a drift:
//!
//! * committed FNV-1a fingerprints of the default expander's feature
//!   lists over a seeded set of benchmark-shaped queries (one title, or
//!   two of one topic) on the paper-tier and stress-tier worlds;
//! * a test-local reference expander — the straightforward
//!   formulation: enumerate every simple cycle of the neighbourhood,
//!   filter at emit time, score in a hash map, always count the induced
//!   edges — compared with production under configs that reach every
//!   branch of the visitor and the search.
//!
//! Emission *order* matters, not just the set: `max_cycles` truncates
//! the sequence and the `f64` scores accumulate in it.

use querygraph::core::cycle_analysis::max_edges;
use querygraph::core::expansion::{CycleExpander, CycleExpanderConfig, Expander};
use querygraph::graph::cycles::induced_cycle_edges;
use querygraph::graph::subgraph::induce;
use querygraph::graph::traversal::ball;
use querygraph::graph::TypedGraph;
use querygraph::retrieval::ondisk::fnv1a;
use querygraph::wiki::synth::{generate, SynthWiki, SynthWikiConfig};
use querygraph::wiki::{ArticleId, KnowledgeBase};
use std::collections::HashMap;

/// Feature lists of `CycleExpander::default()` over `queries(.., 256)`
/// on `SynthWikiConfig::default_experiment()`, computed at commit
/// 0435a15 (the tree before the search was pruned).
const PAPER_FNV: u64 = 0x9d23_58c6_6cd0_00be;
/// The same over `queries(.., 64)` on `SynthWikiConfig::stress()`.
const STRESS_FNV: u64 = 0x9cd0_eaa0_fb7f_1282;

/// SplitMix64, as the repo benchmark's plan uses.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The benchmark's query shape (`benchmark/src/plan.rs`): a main
/// article of a random topic, 60 % of the time with a second one of
/// the same topic.
fn queries(wiki: &SynthWiki, count: usize) -> Vec<Vec<ArticleId>> {
    let mut rng = Rng(0x2015_0505);
    (0..count)
        .map(|_| {
            let topic = &wiki.topics[rng.below(wiki.topics.len())].articles;
            let first = topic[rng.below(topic.len())];
            let mut query = vec![first];
            if rng.unit() < 0.6 {
                let second = topic[rng.below(topic.len())];
                if second != first {
                    query.push(second);
                }
            }
            query
        })
        .collect()
}

fn fingerprint(feature_lists: &[Vec<ArticleId>]) -> u64 {
    let mut bytes = Vec::new();
    for features in feature_lists {
        bytes.extend((features.len() as u32).to_le_bytes());
        for a in features {
            bytes.extend(a.0.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

// ─── the reference expander ─────────────────────────────────────────

/// Every simple cycle of length 2..=`max_len` through a `required`
/// node, in the finder's documented order (length-2 pairs first, then
/// anchor ascending, neighbours ascending, pre-order), cut at `limit`:
/// an unpruned walk that filters when it emits.
fn reference_cycles(
    g: &TypedGraph,
    max_len: usize,
    required: &[u32],
    limit: usize,
    visit: &mut dyn FnMut(&[u32]),
) {
    fn dfs(
        g: &TypedGraph,
        max_len: usize,
        mask: &[bool],
        limit: usize,
        path: &mut Vec<u32>,
        emitted: &mut usize,
        visit: &mut dyn FnMut(&[u32]),
    ) {
        let (anchor, last) = (path[0], *path.last().unwrap());
        for &w in g.und_neighbors(last) {
            if *emitted >= limit {
                return;
            }
            if w <= anchor || path.contains(&w) {
                continue;
            }
            path.push(w);
            if path.len() >= 3
                && path[1] < w
                && g.und_adjacent(w, anchor)
                && path.iter().any(|&u| mask[u as usize])
            {
                visit(path);
                *emitted += 1;
            }
            if path.len() < max_len {
                dfs(g, max_len, mask, limit, path, emitted, visit);
            }
            path.pop();
        }
    }

    let mut mask = vec![false; g.node_count() as usize];
    for &u in required {
        mask[u as usize] = true;
    }
    if max_len < 2 || limit == 0 {
        return;
    }
    let mut emitted = 0usize;
    'pairs: for u in 0..g.node_count() {
        for &v in g.und_neighbors(u) {
            if v > u && g.pair_multiplicity(u, v) >= 2 && (mask[u as usize] || mask[v as usize]) {
                visit(&[u, v]);
                emitted += 1;
                if emitted >= limit {
                    break 'pairs;
                }
            }
        }
    }
    for anchor in 0..g.node_count() {
        if emitted >= limit || max_len < 3 {
            return;
        }
        dfs(
            g,
            max_len,
            &mask,
            limit,
            &mut vec![anchor],
            &mut emitted,
            visit,
        );
    }
}

/// What one reference expansion saw, so the tests can tell that a
/// config reached the branch it is there for.
#[derive(Default)]
struct Seen {
    /// Cycles the search emitted (after the `max_cycles` cut).
    cycles: usize,
    /// Query nodes the `max_neighborhood` cut dropped and the expander
    /// put back.
    readded: usize,
    /// Cycles the density floor rejected.
    sparse: usize,
    /// Expansions that returned a feature.
    nonempty: usize,
}

fn reference_expand(
    kb: &KnowledgeBase,
    cfg: &CycleExpanderConfig,
    query_articles: &[ArticleId],
    seen: &mut Seen,
) -> Vec<ArticleId> {
    let g = kb.graph();
    let query_nodes: Vec<u32> = query_articles
        .iter()
        .map(|&a| kb.article_node(kb.resolve_redirect(a)))
        .collect();
    if query_nodes.is_empty() {
        return Vec::new();
    }

    let mut neighborhood = ball(g, &query_nodes, cfg.neighborhood_radius);
    neighborhood.truncate(cfg.max_neighborhood);
    for &qn in &query_nodes {
        if !neighborhood.contains(&qn) {
            neighborhood.push(qn);
            seen.readded += 1;
        }
    }
    let sub = induce(g, &neighborhood);
    let local_query: Vec<u32> = query_nodes
        .iter()
        .filter_map(|&qn| sub.local_of(qn))
        .collect();

    let mut scores: HashMap<ArticleId, f64> = HashMap::new();
    let mut visit = |nodes: &[u32]| {
        seen.cycles += 1;
        let len = nodes.len();
        if !cfg.lengths.contains(&len) {
            return;
        }
        let categories = nodes
            .iter()
            .filter(|&&l| kb.node_is_category(sub.parent_of(l)))
            .count();
        if len >= 3 {
            let ratio = categories as f64 / len as f64;
            if ratio < cfg.category_ratio_band.0 || ratio > cfg.category_ratio_band.1 {
                return;
            }
            let e = induced_cycle_edges(&sub.graph, nodes);
            let m = max_edges(len - categories, categories);
            if m > len {
                let density = (e - len) as f64 / (m - len) as f64;
                if density < cfg.min_density {
                    seen.sparse += 1;
                    return;
                }
            }
        }
        let w = 1.0 / len as f64;
        for &l in nodes {
            if let Some(a) = kb.node_article(sub.parent_of(l)) {
                if !kb.is_redirect(a) {
                    *scores.entry(a).or_insert(0.0) += w;
                }
            }
        }
    };
    reference_cycles(
        &sub.graph,
        cfg.max_len,
        &local_query,
        cfg.max_cycles,
        &mut visit,
    );

    let mut items: Vec<(ArticleId, usize)> = scores
        .into_iter()
        .map(|(a, s)| (a, (s * 1_000_000.0) as usize))
        .filter(|(a, _)| !query_articles.contains(a))
        .collect();
    items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(cfg.max_features);
    items.into_iter().map(|(a, _)| a).collect()
}

/// Production against the reference over `queries` under `config`;
/// returns what the reference saw: the most cycles any one query
/// emitted, the other counts summed.
fn assert_matches_reference(
    kb: &KnowledgeBase,
    config: &CycleExpanderConfig,
    queries: &[Vec<ArticleId>],
) -> Seen {
    let expander = CycleExpander {
        config: config.clone(),
    };
    let mut total = Seen::default();
    for query in queries {
        let mut seen = Seen::default();
        let expected = reference_expand(kb, config, query, &mut seen);
        assert_eq!(
            expander.expand(kb, query),
            expected,
            "{query:?} under {config:?}"
        );
        total.nonempty += usize::from(!expected.is_empty());
        total.cycles = total.cycles.max(seen.cycles);
        total.readded += seen.readded;
        total.sparse += seen.sparse;
    }
    total
}

/// Whether a run reached the branch its config is there for.
type Reached = fn(&Seen) -> bool;

/// The configs the comparison runs under, each with its check.
fn configs() -> Vec<(CycleExpanderConfig, Reached)> {
    let base = CycleExpanderConfig::default;
    let any = |_: &Seen| true;
    vec![
        (base(), any),
        // The density floor rejects something.
        (
            CycleExpanderConfig {
                min_density: 0.3,
                ..base()
            },
            |seen| seen.sparse > 0,
        ),
        (
            CycleExpanderConfig {
                lengths: vec![3],
                ..base()
            },
            any,
        ),
        (
            CycleExpanderConfig {
                category_ratio_band: (0.0, 1.0),
                ..base()
            },
            any,
        ),
        // `max_cycles` binds.
        (
            CycleExpanderConfig {
                max_cycles: 50,
                ..base()
            },
            |seen| seen.cycles == 50,
        ),
        (
            CycleExpanderConfig {
                max_len: 4,
                ..base()
            },
            any,
        ),
        // The cut drops query nodes and the expander puts them back.
        (
            CycleExpanderConfig {
                max_neighborhood: 40,
                ..base()
            },
            |seen| seen.readded > 0,
        ),
    ]
}

// ─── the tests ──────────────────────────────────────────────────────

#[test]
fn paper_tier_served_features_are_pinned() {
    let wiki = generate(&SynthWikiConfig::default_experiment());
    let queries = queries(&wiki, 256);
    let expander = CycleExpander::default();
    let served: Vec<Vec<ArticleId>> = queries
        .iter()
        .map(|q| expander.expand(&wiki.kb, q))
        .collect();
    assert!(served.iter().filter(|f| !f.is_empty()).count() > 128);
    assert_eq!(
        fingerprint(&served),
        PAPER_FNV,
        "got {:#x}",
        fingerprint(&served)
    );
}

#[test]
fn paper_tier_matches_the_reference_expander_on_every_branch() {
    let wiki = generate(&SynthWikiConfig::default_experiment());
    let queries = queries(&wiki, 64);
    for (config, reached_its_branch) in configs() {
        let seen = assert_matches_reference(&wiki.kb, &config, &queries);
        assert!(seen.nonempty > 0, "every expansion empty: {config:?}");
        assert!(reached_its_branch(&seen), "branch not reached: {config:?}");
    }
}

#[test]
fn stress_tier_served_features_are_pinned_and_match_the_reference() {
    let wiki = generate(&SynthWikiConfig::stress());
    let queries = queries(&wiki, 64);
    let expander = CycleExpander::default();
    let served: Vec<Vec<ArticleId>> = queries
        .iter()
        .map(|q| expander.expand(&wiki.kb, q))
        .collect();
    assert_eq!(
        fingerprint(&served),
        STRESS_FNV,
        "got {:#x}",
        fingerprint(&served)
    );
    // The 600-lowest-ids cut leaves most stress neighbourhoods without
    // the query's surroundings (ROADMAP item 1), so the reference pass
    // asks only that the two agree, query by query, under the default
    // config and under a cut that drops the query nodes themselves.
    let tight_cut = CycleExpanderConfig {
        max_neighborhood: 40,
        ..CycleExpanderConfig::default()
    };
    for config in [CycleExpanderConfig::default(), tight_cut] {
        assert_matches_reference(&wiki.kb, &config, &queries);
    }
}
