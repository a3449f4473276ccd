//! Deterministic synthetic Wikipedia generator.
//!
//! The paper runs on the real English Wikipedia; this reproduction cannot
//! ship that dump, so it generates a topic-clustered knowledge base with
//! the same *local* structure the analysis depends on (DESIGN.md §1):
//!
//! * **Topic clusters.** Articles belong to topics; each topic has a hub
//!   article, satellite articles, a root category and sub-categories.
//!   Intra-topic links plus shared categories create exactly the cycle
//!   inventory the paper studies: reciprocal links → length-2 cycles;
//!   link + shared category → length-3 cycles with category ratio ⅓;
//!   two articles sharing two categories → length-4 cycles with ratio ½.
//! * **Link reciprocity.** A configurable fraction of linked pairs is
//!   reciprocal, calibrated to the paper's measured 11.47 %.
//! * **Cross-topic noise.** Random cross-topic links and deliberate
//!   category-free link triangles ("traps", Fig. 8) reproduce the
//!   semantically-distant cycles that hurt expansion quality.
//! * **Redirects.** A fraction of articles get alias redirects, built
//!   from a reserved prefix pool, exercising the synonym-phrase machinery
//!   of the entity linker (§2.1).
//!
//! Everything is driven by a single `u64` seed; the same config + seed
//! always produces an identical knowledge base.

pub mod vocab;

use crate::builder::KbBuilder;
use crate::kb::KnowledgeBase;
use crate::schema::{ArticleId, CategoryId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic Wikipedia. All probabilities are in
/// `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthWikiConfig {
    /// RNG seed; same seed + config ⇒ identical output.
    pub seed: u64,
    /// Number of topics (≤ `vocab::TOPIC_NOUNS.len()`).
    pub num_topics: usize,
    /// Non-redirect articles per topic (hub included).
    pub articles_per_topic: usize,
    /// Sub-categories per topic (the root category is extra).
    pub(crate) categories_per_topic: usize,
    /// Probability that a link gets a reciprocal partner (paper's
    /// Wikipedia measurement: ≈ 0.1147 of connected pairs).
    pub(crate) reciprocity: f64,
    /// Mean intra-topic links per article (besides hub links).
    pub intra_links_per_article: f64,
    /// Probability that the hub links a given satellite.
    pub(crate) hub_link_prob: f64,
    /// Probability an article gets one cross-topic link.
    pub(crate) cross_link_prob: f64,
    /// Probability a satellite belongs to a category of a neighbouring
    /// topic (inter-topic category bridges).
    pub(crate) cross_category_prob: f64,
    /// Probability an article receives a redirect alias.
    pub(crate) redirect_prob: f64,
    /// Number of category-free link triangles spanning three topics
    /// (Fig. 8 traps).
    pub(crate) trap_triangles: usize,
    /// Mean number of *attribute* categories per satellite article —
    /// cross-cutting categories like Wikipedia's "1712 establishments"
    /// that group unrelated articles. They inflate the category share of
    /// query graphs (Table 3) without creating triangles (they attach to
    /// one in-graph article each), pulling the TPR toward the paper's
    /// ≈ 0.3.
    pub(crate) attribute_categories_per_article: f64,
}

impl SynthWikiConfig {
    /// The default experiment-scale configuration (matches the scale used
    /// by the reproduction harness: ~50 topics ≈ the 50 ImageCLEF
    /// queries).
    pub fn default_experiment() -> Self {
        SynthWikiConfig {
            seed: 0x5EED_CAFE,
            num_topics: 50,
            articles_per_topic: 30,
            categories_per_topic: 8,
            reciprocity: 0.08,
            intra_links_per_article: 4.0,
            hub_link_prob: 0.8,
            cross_link_prob: 0.25,
            cross_category_prob: 0.08,
            redirect_prob: 0.3,
            trap_triangles: 40,
            attribute_categories_per_article: 1.6,
        }
    }

    /// The paper-scale **stress** configuration: 100k+ non-redirect
    /// articles (the real ImageCLEF collection has ~237k documents and
    /// the English Wikipedia millions of articles; seed scale is 1.5k).
    /// Satellite titles beyond the base patterns use the combinatorial
    /// adjective × object / adjective × place patterns of
    /// `satellite_title`, so every title stays unique by
    /// construction. Generation remains single-seed deterministic.
    pub fn stress() -> Self {
        SynthWikiConfig {
            seed: 0x57E5_5CAF,
            num_topics: 60,
            articles_per_topic: 1700, // 60 × 1700 = 102k main articles
            categories_per_topic: 10,
            reciprocity: 0.08,
            intra_links_per_article: 4.0,
            hub_link_prob: 0.8,
            cross_link_prob: 0.25,
            cross_category_prob: 0.08,
            redirect_prob: 0.1,
            trap_triangles: 400,
            attribute_categories_per_article: 1.6,
        }
    }

    /// A miniature configuration for fast unit tests.
    pub fn small() -> Self {
        SynthWikiConfig {
            seed: 7,
            num_topics: 6,
            articles_per_topic: 8,
            categories_per_topic: 3,
            reciprocity: 0.2,
            intra_links_per_article: 2.0,
            hub_link_prob: 0.9,
            cross_link_prob: 0.2,
            cross_category_prob: 0.1,
            redirect_prob: 0.4,
            trap_triangles: 3,
            attribute_categories_per_article: 1.0,
        }
    }
}

/// Per-topic bookkeeping the corpus generator consumes.
#[derive(Debug, Clone)]
pub struct TopicInfo {
    /// The hub article.
    pub hub: ArticleId,
    /// All non-redirect articles of the topic, hub first.
    pub articles: Vec<ArticleId>,
    /// Root category followed by sub-categories.
    pub(crate) categories: Vec<CategoryId>,
}

/// A generated knowledge base plus its topic structure.
#[derive(Debug, Clone)]
pub struct SynthWiki {
    /// The validated knowledge base.
    pub kb: KnowledgeBase,
    /// Topic inventory, indexed by topic id.
    pub topics: Vec<TopicInfo>,
}

impl SynthWiki {
    /// Topic ids adjacent on the topic ring (used for cross-topic noise
    /// and drift documents).
    pub fn neighbor_topics(&self, t: usize) -> [usize; 2] {
        let n = self.topics.len();
        [(t + 1) % n, (t + n - 1) % n]
    }
}

/// Generate a synthetic Wikipedia from `config`.
///
/// Each topic consumes **two** unique nouns: one names the hub article
/// (and the topic's categories), the other seeds every satellite title.
/// Keeping the hub noun out of satellite titles is essential — if the
/// hub word occurred inside satellite titles, a bare keyword query
/// would token-match every relevant document and the vocabulary
/// mismatch the paper studies would vanish.
///
/// # Panics
/// If `config.num_topics` exceeds half the vocabulary, or per-topic
/// sizes exceed what the disjoint pools can name uniquely.
pub fn generate(config: &SynthWikiConfig) -> SynthWiki {
    assert!(
        config.num_topics <= vocab::TOPIC_NOUNS.len() / 2,
        "at most {} topics supported",
        vocab::TOPIC_NOUNS.len() / 2
    );
    let max_sat = max_satellites_per_topic();
    assert!(
        config.articles_per_topic <= max_sat,
        "at most {max_sat} articles per topic supported"
    );
    assert!(
        config.categories_per_topic <= vocab::CATEGORY_SUFFIXES.len(),
        "at most {} sub-categories per topic",
        vocab::CATEGORY_SUFFIXES.len()
    );

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = KbBuilder::new();

    // Global root of the category tree.
    let global_root = b.add_category("main topic classifications");

    // Cross-cutting attribute categories ("{place} {suffix}"), shared
    // by unrelated articles across topics — the "1697 births" /
    // "2005 novels" style categories visible in the paper's Fig. 3.
    let n_attr = (config.num_topics * 4)
        .min(vocab::PLACES.len() * vocab::CATEGORY_SUFFIXES.len())
        .max(1);
    let mut attr_cats: Vec<CategoryId> = Vec::with_capacity(n_attr);
    for i in 0..n_attr {
        let place = vocab::PLACES[i % vocab::PLACES.len()];
        let suffix = vocab::CATEGORY_SUFFIXES[i / vocab::PLACES.len()];
        let c = b.add_category(format!("{place} {suffix}"));
        b.inside(c, global_root);
        attr_cats.push(c);
    }

    // ---- entities, topic by topic (deterministic order) ----
    let mut topics: Vec<TopicInfo> = Vec::with_capacity(config.num_topics);
    for t in 0..config.num_topics {
        let noun = vocab::TOPIC_NOUNS[2 * t];
        let sat_noun = vocab::TOPIC_NOUNS[2 * t + 1];

        let root_cat = b.add_category(noun.to_string());
        b.inside(root_cat, global_root);
        let mut categories = vec![root_cat];
        for s in 0..config.categories_per_topic {
            let c = b.add_category(format!("{noun} {}", vocab::CATEGORY_SUFFIXES[s]));
            b.inside(c, root_cat);
            categories.push(c);
        }

        let hub = b.add_article(noun.to_string());
        b.belongs(hub, root_cat);
        if categories.len() > 1 {
            b.belongs(hub, categories[1]);
        }

        let mut articles = vec![hub];
        for i in 1..config.articles_per_topic {
            let title = satellite_title(sat_noun, i);
            let a = b.add_article(title);
            // 2–3 sub-categories of the own topic (Wikipedia articles
            // average several; Table 3's category-dominated components
            // depend on this).
            let sub = &categories[1..];
            if sub.is_empty() {
                b.belongs(a, root_cat);
            } else {
                let mut chosen: Vec<CategoryId> = Vec::with_capacity(3);
                let want = 2 + usize::from(rng.gen_bool(0.5));
                let mut guard = 0;
                while chosen.len() < want.min(sub.len()) && guard < 20 {
                    let c = sub[rng.gen_range(0..sub.len())];
                    if !chosen.contains(&c) {
                        chosen.push(c);
                        b.belongs(a, c);
                    }
                    guard += 1;
                }
            }
            // Attribute categories (unique-ish per article).
            let n_extra = sample_count(&mut rng, config.attribute_categories_per_article);
            let mut attached: Vec<CategoryId> = Vec::new();
            for _ in 0..n_extra {
                let c = attr_cats[rng.gen_range(0..attr_cats.len())];
                if !attached.contains(&c) {
                    attached.push(c);
                    b.belongs(a, c);
                }
            }
            articles.push(a);
        }

        topics.push(TopicInfo {
            hub,
            articles,
            categories,
        });
    }

    // ---- cross-topic category bridges ----
    for t in 0..config.num_topics {
        let right = (t + 1) % config.num_topics;
        // Immutable borrows: copy out what's needed first.
        let sat_articles: Vec<ArticleId> = topics[t].articles[1..].to_vec();
        let neighbor_cats: Vec<CategoryId> = topics[right].categories[1..].to_vec();
        if neighbor_cats.is_empty() {
            continue;
        }
        for a in sat_articles {
            if rng.gen_bool(config.cross_category_prob) {
                let c = neighbor_cats[rng.gen_range(0..neighbor_cats.len())];
                b.belongs(a, c);
            }
        }
    }

    // ---- links ----
    #[allow(clippy::needless_range_loop)] // `t` also derives ring neighbours
    for t in 0..config.num_topics {
        let arts = topics[t].articles.clone();
        let hub = topics[t].hub;
        // Hub ↔ satellites.
        for &a in &arts[1..] {
            if rng.gen_bool(config.hub_link_prob) {
                b.link(hub, a);
                if rng.gen_bool(config.reciprocity) {
                    b.link(a, hub);
                }
            }
        }
        // Satellite → satellite intra links. Skip pairs whose reverse
        // direction already exists so reciprocity stays calibrated: only
        // the explicit branch below creates reciprocal pairs.
        let mean = config.intra_links_per_article;
        for &a in &arts[1..] {
            let k = sample_count(&mut rng, mean);
            for _ in 0..k {
                let other = arts[rng.gen_range(0..arts.len())];
                if other != a && !b.has_link(other, a) {
                    b.link(a, other);
                    if rng.gen_bool(config.reciprocity) {
                        b.link(other, a);
                    }
                }
            }
        }
        // Cross-topic links (mostly ring neighbours, sometimes far).
        for &a in &arts {
            if rng.gen_bool(config.cross_link_prob) {
                let target_topic = if rng.gen_bool(0.7) {
                    if rng.gen_bool(0.5) {
                        (t + 1) % config.num_topics
                    } else {
                        (t + config.num_topics - 1) % config.num_topics
                    }
                } else {
                    rng.gen_range(0..config.num_topics)
                };
                if target_topic != t {
                    let ta = &topics[target_topic].articles;
                    let other = ta[rng.gen_range(0..ta.len())];
                    b.link(a, other);
                }
            }
        }
    }

    // ---- Fig. 8 traps: category-free link triangles across 3 topics ----
    if config.num_topics >= 3 {
        for _ in 0..config.trap_triangles {
            let t1 = rng.gen_range(0..config.num_topics);
            let t2 = (t1 + 1 + rng.gen_range(0..config.num_topics - 1)) % config.num_topics;
            let mut t3 = (t2 + 1 + rng.gen_range(0..config.num_topics - 1)) % config.num_topics;
            if t3 == t1 {
                t3 = (t3 + 1) % config.num_topics;
                if t3 == t2 {
                    t3 = (t3 + 1) % config.num_topics;
                }
            }
            let pick = |rng: &mut StdRng, topic: &TopicInfo| {
                topic.articles[rng.gen_range(0..topic.articles.len())]
            };
            let a1 = pick(&mut rng, &topics[t1]);
            let a2 = pick(&mut rng, &topics[t2]);
            let a3 = pick(&mut rng, &topics[t3]);
            b.link(a1, a2);
            b.link(a2, a3);
            b.link(a3, a1);
        }
    }

    // ---- redirects ----
    let mut alias_round = 0usize;
    for topic in topics.iter().take(config.num_topics) {
        let arts = topic.articles.clone();
        for &a in &arts {
            if rng.gen_bool(config.redirect_prob) {
                let prefix = vocab::ALIAS_PREFIXES[alias_round % vocab::ALIAS_PREFIXES.len()];
                alias_round += 1;
                // Prefixing with a reserved word keeps the alias unique:
                // the base title is unique and prefixes never occur in
                // titles.
                let title = format!("{prefix} {}", b.staged_title(a));
                b.add_redirect(title, a);
            }
        }
    }

    let kb = b.build().expect("generated KB must validate");
    SynthWiki { kb, topics }
}

/// Capacity of the three rotating base patterns — the boundary where
/// [`satellite_title`] switches to the combinatorial patterns.
fn base_satellites_per_topic() -> usize {
    3 * vocab::ADJECTIVES
        .len()
        .min(vocab::OBJECTS.len())
        .min(vocab::PLACES.len())
}

/// The largest `articles_per_topic` the title patterns can name
/// uniquely: the three base patterns, then the two combinatorial
/// stress-scale patterns (see `satellite_title`).
pub(crate) fn max_satellites_per_topic() -> usize {
    base_satellites_per_topic()
        + vocab::ADJECTIVES.len() * vocab::OBJECTS.len()
        + vocab::ADJECTIVES.len() * vocab::PLACES.len()
}

/// Title of satellite `i` (1-based within topic) for topic `noun`.
///
/// The first `3·min(pool)` satellites rotate the base patterns so
/// multi-word titles of width 2 and 3 both occur; beyond that (the
/// stress configuration) titles come from combinatorial patterns over
/// two pools. Every pattern embeds the topic's unique satellite noun
/// and has a distinct shape (word count + which pool leads), so titles
/// are unique within and across topics by construction:
///
/// | # | pattern                | count            |
/// |---|------------------------|------------------|
/// | 0 | `adj noun`             | base ÷ 3         |
/// | 1 | `noun obj`             | base ÷ 3         |
/// | 2 | `noun of place`        | base ÷ 3         |
/// | 3 | `adj noun obj`         | |adj| × |obj|    |
/// | 4 | `adj noun of place`    | |adj| × |place|  |
fn satellite_title(noun: &str, i: usize) -> String {
    let j = i - 1;
    let base = base_satellites_per_topic();
    if j < base {
        return match j % 3 {
            0 => format!("{} {}", vocab::ADJECTIVES[j / 3], noun),
            1 => format!("{} {}", noun, vocab::OBJECTS[j / 3]),
            _ => format!("{} of {}", noun, vocab::PLACES[j / 3]),
        };
    }
    let e = j - base;
    let adj_obj = vocab::ADJECTIVES.len() * vocab::OBJECTS.len();
    if e < adj_obj {
        return format!(
            "{} {} {}",
            vocab::ADJECTIVES[e / vocab::OBJECTS.len()],
            noun,
            vocab::OBJECTS[e % vocab::OBJECTS.len()]
        );
    }
    let e = e - adj_obj;
    format!(
        "{} {} of {}",
        vocab::ADJECTIVES[e / vocab::PLACES.len()],
        noun,
        vocab::PLACES[e % vocab::PLACES.len()]
    )
}

/// Poisson-ish small count with the given mean: floor plus a Bernoulli
/// for the fractional part, which keeps the generator fast and exact in
/// expectation.
fn sample_count(rng: &mut StdRng, mean: f64) -> usize {
    let base = mean.floor() as usize;
    let frac = mean - mean.floor();
    base + usize::from(frac > 0.0 && rng.gen_bool(frac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_graph::stats::link_reciprocity;

    #[test]
    fn small_config_generates_and_validates() {
        let w = generate(&SynthWikiConfig::small());
        assert_eq!(w.topics.len(), 6);
        assert_eq!(w.kb.main_articles().count(), 6 * 8);
        assert!(w.kb.num_categories() > 6 * 4);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = SynthWikiConfig::small();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.kb.num_articles(), b.kb.num_articles());
        assert_eq!(a.kb.graph().edge_count(), b.kb.graph().edge_count());
        for id in a.kb.articles() {
            assert_eq!(a.kb.title(id), b.kb.title(id));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = SynthWikiConfig::small();
        let a = generate(&cfg);
        cfg.seed = 8;
        let b = generate(&cfg);
        // Same entity counts (structure-independent) but different wiring.
        assert_eq!(a.kb.main_articles().count(), b.kb.main_articles().count());
        assert_ne!(
            a.kb.graph().edge_count(),
            b.kb.graph().edge_count(),
            "different seeds should wire different links"
        );
    }

    #[test]
    fn hub_is_first_article_of_topic() {
        let w = generate(&SynthWikiConfig::small());
        for t in &w.topics {
            assert_eq!(t.articles[0], t.hub);
        }
    }

    #[test]
    fn all_titles_unique_and_linkable() {
        let w = generate(&SynthWikiConfig::small());
        let mut seen = std::collections::HashSet::new();
        for a in w.kb.articles() {
            let norm = querygraph_text::normalize(w.kb.title(a));
            assert!(seen.insert(norm.clone()), "duplicate title {norm}");
            assert_eq!(w.kb.article_by_title(w.kb.title(a)), Some(a));
        }
    }

    #[test]
    fn reciprocity_lands_near_target() {
        let mut cfg = SynthWikiConfig::default_experiment();
        cfg.num_topics = 20; // keep the test quick
        let w = generate(&cfg);
        let r = link_reciprocity(w.kb.graph()).unwrap();
        assert!(
            (r - cfg.reciprocity).abs() < 0.06,
            "measured reciprocity {r:.4}, target {}",
            cfg.reciprocity
        );
    }

    #[test]
    fn neighbor_topics_wrap() {
        let w = generate(&SynthWikiConfig::small());
        assert_eq!(w.neighbor_topics(0), [1, 5]);
        assert_eq!(w.neighbor_topics(5), [0, 4]);
    }

    #[test]
    fn redirects_point_to_own_topic_articles() {
        let w = generate(&SynthWikiConfig::small());
        for a in w.kb.articles() {
            if w.kb.is_redirect(a) {
                let main = w.kb.resolve_redirect(a);
                assert!(!w.kb.is_redirect(main));
                // Alias title embeds the main title after the prefix.
                let alias = querygraph_text::normalize(w.kb.title(a));
                let main_t = querygraph_text::normalize(w.kb.title(main));
                assert!(
                    alias.ends_with(&main_t),
                    "alias {alias:?} should embed {main_t:?}"
                );
            }
        }
    }

    #[test]
    fn stress_config_names_100k_articles() {
        let cfg = SynthWikiConfig::stress();
        assert!(
            cfg.num_topics * cfg.articles_per_topic >= 100_000,
            "stress preset must reach paper scale"
        );
        assert!(cfg.articles_per_topic <= max_satellites_per_topic());
        assert!(cfg.num_topics <= vocab::TOPIC_NOUNS.len() / 2);
        assert!(cfg.categories_per_topic <= vocab::CATEGORY_SUFFIXES.len());
    }

    #[test]
    fn extended_title_patterns_stay_unique() {
        // Sweep the full per-topic title range across the pattern
        // boundary (base → adj×obj → adj×place) for two topics; every
        // title must be unique and embed its topic's satellite noun.
        let max = max_satellites_per_topic();
        let mut seen = std::collections::HashSet::new();
        for noun in ["harbor", "temple"] {
            for i in 1..=max {
                let t = satellite_title(noun, i);
                assert!(t.contains(noun), "{t:?} must embed {noun:?}");
                assert!(seen.insert(t.clone()), "duplicate satellite title {t:?}");
            }
        }
        assert_eq!(seen.len(), 2 * max);
    }

    #[test]
    fn stress_scale_topic_generates_and_validates() {
        // One topic at full stress per-topic scale exercises the
        // combinatorial title patterns through the real generator
        // (wiring 60 topics × 1700 lives in the integration tests).
        let mut cfg = SynthWikiConfig::stress();
        cfg.num_topics = 3;
        let w = generate(&cfg);
        assert_eq!(w.kb.main_articles().count(), 3 * cfg.articles_per_topic);
        let mut seen = std::collections::HashSet::new();
        for a in w.kb.articles() {
            assert!(
                seen.insert(querygraph_text::normalize(w.kb.title(a))),
                "duplicate title {:?}",
                w.kb.title(a)
            );
        }
    }

    #[test]
    fn experiment_scale_generates() {
        let w = generate(&SynthWikiConfig::default_experiment());
        assert_eq!(w.topics.len(), 50);
        assert_eq!(w.kb.main_articles().count(), 50 * 30);
        // Cycle inventory sanity: the graph must contain 2-cycles.
        let g = w.kb.graph();
        let mut found2 = false;
        'outer: for u in 0..g.node_count() {
            for &v in g.und_neighbors(u) {
                if v > u && g.pair_multiplicity(u, v) >= 2 {
                    found2 = true;
                    break 'outer;
                }
            }
        }
        assert!(found2, "generator must produce reciprocal link pairs");
    }
}
