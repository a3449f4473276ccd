//! Deterministic ImageCLEF-like corpus generator.
//!
//! Given a synthetic Wikipedia ([`SynthWiki`]), generates the document
//! collection and the fifty-query benchmark the ground-truth pipeline
//! (§2 of the paper) needs. The design goal is to reproduce the
//! *retrieval geometry* of the real track:
//!
//! * **Vocabulary mismatch.** Relevant documents mention the query's
//!   article titles only with probability `SynthCorpusConfig::mention_query_prob`;
//!   mostly they mention *other* titles of the same topic. A raw keyword
//!   query therefore misses most relevant documents — the motivation for
//!   query expansion in the paper's introduction.
//! * **Good expansion features exist in the graph.** The titles relevant
//!   documents do mention are sampled with a bias toward graph neighbours
//!   of the query articles, i.e. exactly the articles that share links
//!   and categories (and hence short, dense, category-bearing cycles)
//!   with the query articles.
//! * **Drift.** With probability `SynthCorpusConfig::drift_prob` a
//!   relevant document also mentions a *neighbouring topic's* title —
//!   these titles enter L(q.D) as tempting but mediocre expansion
//!   features, the synthetic analogue of Fig. 8's `sheep`→`anthrax`
//!   trap.
//! * **Noise.** Mixed-topic noise documents with thin mentions keep
//!   retrieval from being trivial.
//!
//! Documents are materialized as real XML and re-parsed through
//! [`crate::imageclef`], so the whole Fig. 2 extraction path is always
//! exercised.

use crate::document::{Caption, ImageDoc, LangSection};
use crate::imageclef::parse_image_doc;
use crate::query::{Corpus, Query, QuerySet};
use crate::writer::to_xml;
use querygraph_wiki::synth::{vocab, SynthWiki};
use querygraph_wiki::ArticleId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthCorpusConfig {
    /// RNG seed (independent of the wiki seed).
    pub seed: u64,
    /// Number of queries (≤ number of wiki topics; each query gets its
    /// own topic so relevance judgments do not bleed across queries).
    pub num_queries: usize,
    /// Inclusive range of relevant documents per query.
    pub(crate) relevant_per_query: (usize, usize),
    /// Number of mixed-topic noise documents.
    pub noise_docs: usize,
    /// Probability a query mentions two entities (otherwise one), like
    /// the paper's "Graffiti Street Art" example with several entities.
    pub(crate) two_entity_query_prob: f64,
    /// Probability a relevant document mentions the query titles
    /// themselves (the vocabulary-mismatch dial; lower = harder).
    pub(crate) mention_query_prob: f64,
    /// Inclusive range of same-topic title mentions per relevant doc.
    pub(crate) topic_mentions_per_doc: (usize, usize),
    /// Probability a relevant doc drifts one mention into a neighbour
    /// topic.
    pub(crate) drift_prob: f64,
    /// Probability a relevant doc mentions a title from a *random far*
    /// topic — those articles reach L(q.D) but sit disconnected from
    /// the query's neighbourhood, producing the disconnected
    /// query-graph components of Table 3.
    pub(crate) far_drift_prob: f64,
    /// Inclusive range of relevant documents per query that are
    /// *far-flavoured*: they mention only far-topic titles, so the only
    /// way to retrieve them is through a structurally disconnected
    /// expansion feature. This is what drives Table 3's %size below 1.
    pub(crate) far_docs_per_query: (usize, usize),
    /// Inclusive range of **distractor** documents per query: documents
    /// that mention the query's own titles but are *not* relevant
    /// (mixed-topic content). They are what makes the unexpanded
    /// keyword query imprecise — the paper's motivation for expansion.
    pub(crate) distractors_per_query: (usize, usize),
    /// Probability a document carries German/French decoy sections
    /// (exercising the English-only extraction of Fig. 2).
    pub(crate) decoy_lang_prob: f64,
}

impl SynthCorpusConfig {
    /// Experiment-scale defaults: 50 queries like ImageCLEF 2011.
    pub fn default_experiment() -> Self {
        SynthCorpusConfig {
            seed: 0xC0FFEE,
            num_queries: 50,
            relevant_per_query: (12, 18),
            noise_docs: 1200,
            two_entity_query_prob: 0.6,
            mention_query_prob: 0.7,
            topic_mentions_per_doc: (3, 6),
            drift_prob: 0.3,
            far_drift_prob: 0.15,
            far_docs_per_query: (1, 3),
            distractors_per_query: (5, 9),
            decoy_lang_prob: 0.5,
        }
    }

    /// Paper-scale **stress** configuration, paired with
    /// `SynthWikiConfig::stress()`: one query per stress topic and a
    /// much deeper noise pool, so the inverted index sees tens of
    /// thousands of documents (the real ImageCLEF track has ~237k).
    pub fn stress() -> Self {
        SynthCorpusConfig {
            seed: 0x57E5_5BEE,
            num_queries: 60,
            relevant_per_query: (12, 18),
            noise_docs: 30_000,
            two_entity_query_prob: 0.6,
            mention_query_prob: 0.7,
            topic_mentions_per_doc: (3, 6),
            drift_prob: 0.3,
            far_drift_prob: 0.15,
            far_docs_per_query: (1, 3),
            distractors_per_query: (5, 9),
            decoy_lang_prob: 0.5,
        }
    }

    /// Miniature configuration for fast tests.
    pub fn small() -> Self {
        SynthCorpusConfig {
            seed: 11,
            num_queries: 4,
            relevant_per_query: (6, 10),
            noise_docs: 40,
            two_entity_query_prob: 0.5,
            mention_query_prob: 0.5,
            topic_mentions_per_doc: (2, 4),
            drift_prob: 0.3,
            far_drift_prob: 0.2,
            far_docs_per_query: (1, 2),
            distractors_per_query: (4, 8),
            decoy_lang_prob: 0.5,
        }
    }
}

/// The generated corpus, queries and per-query provenance.
#[derive(Debug, Clone)]
pub struct SynthCorpus {
    /// All documents (relevant blocks first, then noise).
    pub corpus: Corpus,
    /// The query set with relevance judgments.
    pub queries: QuerySet,
    /// `query index → the articles whose titles form the keywords`: the
    /// reference the generator tests check keywords and documents against.
    #[cfg(test)]
    query_articles: Vec<Vec<ArticleId>>,
}

/// Generate the corpus. Deterministic in `(wiki, config)`.
///
/// # Panics
/// If `config.num_queries` exceeds the number of wiki topics.
pub fn generate_corpus(wiki: &SynthWiki, config: &SynthCorpusConfig) -> SynthCorpus {
    assert!(
        config.num_queries <= wiki.topics.len(),
        "need one topic per query ({} queries > {} topics)",
        config.num_queries,
        wiki.topics.len()
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut corpus = Corpus::new();
    let mut queries = Vec::with_capacity(config.num_queries);
    #[cfg(test)]
    let mut query_articles = Vec::with_capacity(config.num_queries);

    for qi in 0..config.num_queries {
        let t = qi; // one topic per query, in order — deterministic
        let topic = &wiki.topics[t];

        // Query entities: the hub, plus possibly one satellite.
        let mut q_arts = vec![topic.hub];
        if topic.articles.len() > 1 && rng.gen_bool(config.two_entity_query_prob) {
            let sat = topic.articles[1 + rng.gen_range(0..topic.articles.len() - 1)];
            q_arts.push(sat);
        }
        let keywords = q_arts
            .iter()
            .map(|&a| wiki.kb.title(a).to_owned())
            .collect::<Vec<_>>()
            .join(" ");

        // Mention pool: topic articles, biased toward graph neighbours
        // of the query articles.
        let pool = mention_pool(wiki, t, &q_arts);

        // One fixed far topic per query: its articles accumulate enough
        // relevant-document mentions to become genuine (but
        // structurally disconnected) expansion features — the extra
        // query-graph components of Table 3.
        let far_topic = (t + wiki.topics.len() / 2) % wiki.topics.len();

        let n_rel = rng.gen_range(config.relevant_per_query.0..=config.relevant_per_query.1);
        let n_far = rng
            .gen_range(config.far_docs_per_query.0..=config.far_docs_per_query.1)
            .min(n_rel);
        let mut relevant = Vec::with_capacity(n_rel);
        for d in 0..n_rel {
            let doc = if d < n_far {
                far_document(wiki, config, &mut rng, far_topic, qi, d)
            } else {
                relevant_document(wiki, config, &mut rng, t, far_topic, qi, d, &q_arts, &pool)
            };
            relevant.push(corpus.push(doc));
        }

        // Distractors: keyword-matching but non-relevant documents.
        let n_dis = rng.gen_range(config.distractors_per_query.0..=config.distractors_per_query.1);
        for d in 0..n_dis {
            let doc = distractor_document(wiki, config, &mut rng, t, qi, d, &q_arts);
            corpus.push(doc);
        }

        queries.push(Query::new(qi as u32 + 1, keywords, relevant));
        #[cfg(test)]
        query_articles.push(q_arts);
    }

    // Mixed-topic noise documents.
    for d in 0..config.noise_docs {
        let doc = noise_document(wiki, config, &mut rng, d);
        corpus.push(doc);
    }

    SynthCorpus {
        corpus,
        queries: QuerySet { queries },
        #[cfg(test)]
        query_articles,
    }
}

/// Titles relevant documents may mention: every topic article, weighted
/// by *structural affinity* to the query articles — reciprocal links
/// and shared categories multiply an article's sampling weight.
///
/// This weighting is the generator-side statement of the paper's
/// hypothesis: in Wikipedia, structural density (reciprocal links,
/// shared categories — i.e. membership in short dense cycles) *is*
/// semantic relatedness. The corpus realizes that relatedness as
/// co-mention frequency, which is what makes densely cycled articles
/// the better expansion features (Figs. 5, 9).
fn mention_pool(wiki: &SynthWiki, t: usize, q_arts: &[ArticleId]) -> Vec<ArticleId> {
    use querygraph_graph::EdgeType;
    let topic = &wiki.topics[t];
    let kb = &wiki.kb;
    let g = kb.graph();
    let mut pool: Vec<ArticleId> = Vec::new();
    for &a in &topic.articles {
        let mut weight = 1usize;
        for &qa in q_arts {
            if a == qa {
                continue;
            }
            let an = kb.article_node(a);
            let qn = kb.article_node(qa);
            let fwd = g.has_edge(qn, an, EdgeType::Link);
            let bwd = g.has_edge(an, qn, EdgeType::Link);
            if fwd && bwd {
                weight += 5; // reciprocal pair: a length-2 cycle
            } else if fwd || bwd {
                weight += 2;
            }
            let shared = kb
                .categories_of(a)
                .iter()
                .filter(|c| kb.categories_of(qa).contains(c))
                .count();
            weight += 2 * shared.min(2);
        }
        for _ in 0..weight {
            pool.push(a);
        }
    }
    pool
}

fn filler(rng: &mut StdRng) -> &'static str {
    vocab::FILLER_WORDS[rng.gen_range(0..vocab::FILLER_WORDS.len())]
}

/// A text fragment mentioning `titles` with filler words between them so
/// adjacent titles can never merge into an unintended longer match.
fn sentence_with_mentions(rng: &mut StdRng, titles: &[&str]) -> String {
    let mut out = String::new();
    out.push_str(filler(rng));
    for t in titles {
        out.push(' ');
        out.push_str(filler(rng));
        out.push(' ');
        out.push_str(t);
    }
    out.push(' ');
    out.push_str(filler(rng));
    out
}

#[allow(clippy::too_many_arguments)]
fn relevant_document(
    wiki: &SynthWiki,
    config: &SynthCorpusConfig,
    rng: &mut StdRng,
    t: usize,
    far_topic: usize,
    qi: usize,
    d: usize,
    q_arts: &[ArticleId],
    pool: &[ArticleId],
) -> ImageDoc {
    let kb = &wiki.kb;

    // Distinct same-topic mentions.
    let k = rng.gen_range(config.topic_mentions_per_doc.0..=config.topic_mentions_per_doc.1);
    let mut mentions: Vec<ArticleId> = Vec::with_capacity(k + 3);
    let mut guard = 0;
    while mentions.len() < k && guard < 10 * k {
        let a = pool[rng.gen_range(0..pool.len())];
        if !mentions.contains(&a) {
            mentions.push(a);
        }
        guard += 1;
    }
    // Query-title mentions (vocabulary match): each query article
    // independently, so two-entity queries see partial matches.
    for &qa in q_arts {
        if rng.gen_bool(config.mention_query_prob) && !mentions.contains(&qa) {
            mentions.push(qa);
        }
    }
    // Drift mention from a neighbouring topic.
    if rng.gen_bool(config.drift_prob) {
        let [n1, n2] = wiki.neighbor_topics(t);
        let nt = if rng.gen_bool(0.5) { n1 } else { n2 };
        let arts = &wiki.topics[nt].articles;
        mentions.push(arts[rng.gen_range(0..arts.len())]);
    }
    // Far drift: a title from the query's fixed far topic, restricted to
    // a few articles so their mention counts accumulate across the
    // relevant set (disconnected expansion features, Table 3).
    if wiki.topics.len() > 3 && far_topic != t && rng.gen_bool(config.far_drift_prob) {
        let arts = &wiki.topics[far_topic].articles;
        let span = arts.len().min(4);
        mentions.push(arts[rng.gen_range(0..span)]);
    }

    let titles: Vec<&str> = mentions.iter().map(|&a| kb.title(a)).collect();
    let split = (titles.len() / 2).max(1);
    let description = sentence_with_mentions(rng, &titles[..split]);
    let caption_titles = &titles[split.min(titles.len())..];

    let mut captions = vec![Caption {
        article: format!("text/en/1/{}", 100_000 + qi * 100 + d),
        text: if caption_titles.is_empty() {
            sentence_with_mentions(rng, &[])
        } else {
            sentence_with_mentions(rng, &caption_titles[..1])
        },
    }];
    if caption_titles.len() > 1 {
        captions.push(Caption {
            article: format!("text/en/2/{}", 200_000 + qi * 100 + d),
            text: sentence_with_mentions(rng, &caption_titles[1..]),
        });
    }

    let mut texts = vec![LangSection {
        lang: "en".into(),
        description,
        comment: String::new(),
        captions,
    }];
    if rng.gen_bool(config.decoy_lang_prob) {
        texts.push(decoy_section(rng, "de"));
        texts.push(decoy_section(rng, "fr"));
    }

    let name_title = kb.title(mentions[0]);
    let doc = ImageDoc {
        id: format!("q{}d{}", qi + 1, d),
        file: format!("images/{}/q{}d{}.jpg", qi % 10, qi + 1, d),
        name: format!("{} {} {}.jpg", name_title, filler(rng), d),
        texts,
        comment: format!(
            "({{{{Information |Description= {} |Source= synthetic |Author= generator }}}})",
            sentence_with_mentions(rng, &titles[..1])
        ),
        license: "GFDL".into(),
    };
    // Round-trip through XML so the parser path is always exercised.
    parse_image_doc(&to_xml(&doc)).expect("generated XML must parse")
}

/// A far-flavoured *relevant* document: mentions only titles from the
/// query's far topic (first few articles). Retrieving it requires the
/// far-topic expansion feature, which sits disconnected from the query
/// neighbourhood in the Wikipedia graph.
fn far_document(
    wiki: &SynthWiki,
    config: &SynthCorpusConfig,
    rng: &mut StdRng,
    far_topic: usize,
    qi: usize,
    d: usize,
) -> ImageDoc {
    let kb = &wiki.kb;
    let arts = &wiki.topics[far_topic].articles;
    let span = arts.len().min(4);
    let k = 2 + rng.gen_range(0..2usize);
    let mut picks: Vec<ArticleId> = Vec::new();
    let mut guard = 0;
    while picks.len() < k.min(span) && guard < 20 {
        let a = arts[rng.gen_range(0..span)];
        if !picks.contains(&a) {
            picks.push(a);
        }
        guard += 1;
    }
    let titles: Vec<&str> = picks.iter().map(|&a| kb.title(a)).collect();
    let mut texts = vec![LangSection {
        lang: "en".into(),
        description: sentence_with_mentions(rng, &titles),
        comment: String::new(),
        captions: vec![Caption {
            article: format!("text/en/7/{}", 700_000 + qi * 100 + d),
            text: sentence_with_mentions(rng, &titles[..1]),
        }],
    }];
    if rng.gen_bool(config.decoy_lang_prob) {
        texts.push(decoy_section(rng, "de"));
    }
    let doc = ImageDoc {
        id: format!("q{}f{}", qi + 1, d),
        file: format!("images/f/q{}f{}.jpg", qi + 1, d),
        name: format!("{} {} {}.jpg", titles[0], filler(rng), d),
        texts,
        comment: String::new(),
        license: "GFDL".into(),
    };
    parse_image_doc(&to_xml(&doc)).expect("generated XML must parse")
}

/// A distractor: mentions the query's own titles (so the unexpanded
/// keyword query retrieves it) but is otherwise about *other* topics —
/// and it is not in the relevant set. These documents are what drives
/// baseline precision below 1 and makes good expansion features
/// valuable: relevant documents co-mention several topic titles,
/// distractors only echo the keywords.
fn distractor_document(
    wiki: &SynthWiki,
    config: &SynthCorpusConfig,
    rng: &mut StdRng,
    t: usize,
    qi: usize,
    d: usize,
    q_arts: &[ArticleId],
) -> ImageDoc {
    let kb = &wiki.kb;
    let n_topics = wiki.topics.len();
    let mut titles: Vec<&str> = Vec::new();
    // Echo exactly one query title (a weak keyword match: enough to
    // compete with unexpanded queries, not enough to beat expanded
    // ones).
    let echo_idx = rng.gen_range(0..q_arts.len());
    titles.push(kb.title(q_arts[echo_idx]));
    // Pad with 4–7 titles from unrelated topics; padding stretches the
    // document so its single keyword match scores like (not above) a
    // relevant document's.
    let pad = 4 + rng.gen_range(0..4);
    for _ in 0..pad {
        let other = (t + 1 + rng.gen_range(0..n_topics.max(2) - 1)) % n_topics;
        let arts = &wiki.topics[other].articles;
        titles.push(kb.title(arts[rng.gen_range(0..arts.len())]));
    }
    let mut texts = vec![LangSection {
        lang: "en".into(),
        description: sentence_with_mentions(rng, &titles),
        comment: String::new(),
        captions: vec![Caption {
            article: format!("text/en/8/{}", 800_000 + qi * 100 + d),
            // The caption repeats a *pad* title, not the echo — one
            // keyword occurrence must not outgun the relevant docs.
            text: sentence_with_mentions(rng, &titles[1..2]),
        }],
    }];
    if rng.gen_bool(config.decoy_lang_prob) {
        texts.push(decoy_section(rng, "fr"));
    }
    let doc = ImageDoc {
        id: format!("q{}x{}", qi + 1, d),
        file: format!("images/x/q{}x{}.jpg", qi + 1, d),
        name: format!("{} {} {}.jpg", filler(rng), filler(rng), d),
        texts,
        comment: String::new(),
        license: "GFDL".into(),
    };
    parse_image_doc(&to_xml(&doc)).expect("generated XML must parse")
}

fn noise_document(
    wiki: &SynthWiki,
    config: &SynthCorpusConfig,
    rng: &mut StdRng,
    d: usize,
) -> ImageDoc {
    let kb = &wiki.kb;
    let n_topics = wiki.topics.len();
    // Thin mentions from two distinct random topics.
    let t1 = rng.gen_range(0..n_topics);
    let t2 = (t1 + 1 + rng.gen_range(0..n_topics.max(2) - 1)) % n_topics;
    let mut titles: Vec<&str> = Vec::new();
    for &t in &[t1, t2] {
        let arts = &wiki.topics[t].articles;
        let count = 1 + usize::from(rng.gen_bool(0.5));
        for _ in 0..count {
            titles.push(kb.title(arts[rng.gen_range(0..arts.len())]));
        }
    }
    let mut texts = vec![LangSection {
        lang: "en".into(),
        description: sentence_with_mentions(rng, &titles),
        comment: String::new(),
        captions: vec![Caption {
            article: format!("text/en/9/{}", 900_000 + d),
            text: sentence_with_mentions(rng, &[]),
        }],
    }];
    if rng.gen_bool(config.decoy_lang_prob) {
        texts.push(decoy_section(rng, "de"));
    }
    let doc = ImageDoc {
        id: format!("n{d}"),
        file: format!("images/n/{d}.jpg"),
        name: format!("{} {}.jpg", filler(rng), d),
        texts,
        comment: String::new(),
        license: "CC-BY-SA".into(),
    };
    parse_image_doc(&to_xml(&doc)).expect("generated XML must parse")
}

/// Decoy non-English section. The fixed phrases contain no generator
/// vocabulary, so if extraction ever leaked them into the linking text
/// the tests would catch unexpected mentions.
fn decoy_section(rng: &mut StdRng, lang: &str) -> LangSection {
    let (desc, cap) = match lang {
        "de" => ("Ein Bild im Sommer aufgenommen.", "Ein Feld im Sommer"),
        _ => ("Une photo prise en été.", "un champ en été"),
    };
    LangSection {
        lang: lang.into(),
        description: desc.into(),
        comment: String::new(),
        captions: vec![Caption {
            article: format!("text/{lang}/1/{}", rng.gen_range(0..1000)),
            text: cap.into(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imageclef::linking_text;
    use querygraph_wiki::synth::{generate, SynthWikiConfig};

    fn small() -> (SynthWiki, SynthCorpus) {
        let wiki = generate(&SynthWikiConfig::small());
        let corpus = generate_corpus(&wiki, &SynthCorpusConfig::small());
        (wiki, corpus)
    }

    #[test]
    fn generates_expected_counts() {
        let (_, sc) = small();
        let cfg = SynthCorpusConfig::small();
        assert_eq!(sc.queries.len(), cfg.num_queries);
        let rel_total: usize = sc.queries.iter().map(|q| q.relevant.len()).sum();
        let min_dis = cfg.num_queries * cfg.distractors_per_query.0;
        let max_dis = cfg.num_queries * cfg.distractors_per_query.1;
        let dis_total = sc.corpus.len() - rel_total - cfg.noise_docs;
        assert!(dis_total >= min_dis && dis_total <= max_dis);
        for q in sc.queries.iter() {
            assert!(q.relevant.len() >= cfg.relevant_per_query.0);
            assert!(q.relevant.len() <= cfg.relevant_per_query.1);
        }
    }

    #[test]
    fn distractors_echo_keywords_but_are_not_relevant() {
        let (wiki, sc) = small();
        for (qi, q) in sc.queries.iter().enumerate() {
            let distractors: Vec<_> = sc
                .corpus
                .iter()
                .filter(|(_, d)| d.id.starts_with(&format!("q{}x", qi + 1)))
                .collect();
            assert!(!distractors.is_empty());
            let q_titles: Vec<String> = sc.query_articles[qi]
                .iter()
                .map(|&a| querygraph_text::normalize(wiki.kb.title(a)))
                .collect();
            for (id, doc) in distractors {
                assert!(!q.relevant.contains(&id), "distractor judged relevant");
                let text = querygraph_text::normalize(&linking_text(doc));
                assert!(
                    q_titles.iter().any(|t| text.contains(t)),
                    "distractor {} must echo one query title",
                    doc.id
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let wiki = generate(&SynthWikiConfig::small());
        let a = generate_corpus(&wiki, &SynthCorpusConfig::small());
        let b = generate_corpus(&wiki, &SynthCorpusConfig::small());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.corpus.len(), b.corpus.len());
        for (x, y) in a.corpus.iter().zip(b.corpus.iter()) {
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn keywords_contain_query_article_titles() {
        let (wiki, sc) = small();
        for (qi, q) in sc.queries.iter().enumerate() {
            for &a in &sc.query_articles[qi] {
                let title = wiki.kb.title(a);
                assert!(
                    q.keywords.contains(title),
                    "query {} keywords {:?} missing {title:?}",
                    q.id,
                    q.keywords
                );
            }
        }
    }

    #[test]
    fn relevant_docs_mention_topic_titles() {
        let (wiki, sc) = small();
        for (qi, q) in sc.queries.iter().enumerate() {
            let t = qi; // one topic per query, in order
            let topic_titles: Vec<String> = wiki.topics[t]
                .articles
                .iter()
                .map(|&a| querygraph_text::normalize(wiki.kb.title(a)))
                .collect();
            for &d in &q.relevant {
                let doc = sc.corpus.doc(d);
                if doc.id.contains('f') {
                    continue; // far-flavoured docs mention the far topic only
                }
                let text = querygraph_text::normalize(&linking_text(doc));
                let hits = topic_titles.iter().filter(|t| text.contains(*t)).count();
                assert!(
                    hits >= 1,
                    "relevant doc {d:?} of query {} mentions no topic title",
                    q.id
                );
            }
        }
    }

    #[test]
    fn decoy_languages_never_reach_linking_text() {
        let (_, sc) = small();
        for (_, doc) in sc.corpus.iter() {
            let text = linking_text(doc);
            assert!(!text.contains("Sommer"), "German leaked into {}", doc.id);
            assert!(!text.contains("été"), "French leaked into {}", doc.id);
        }
    }

    #[test]
    fn relevant_blocks_precede_noise() {
        let (_, sc) = small();
        let max_rel: u32 = sc
            .queries
            .iter()
            .flat_map(|q| q.relevant.iter())
            .map(|d| d.0)
            .max()
            .unwrap();
        // Noise docs come after every relevant doc (distractor blocks
        // sit between relevant blocks and noise).
        let first_noise = sc
            .corpus
            .iter()
            .find(|(_, doc)| doc.id.starts_with('n'))
            .map(|(id, _)| id.0)
            .unwrap();
        assert!(first_noise > max_rel);
    }

    #[test]
    fn stress_config_is_consistent_with_stress_wiki() {
        let wiki_cfg = SynthWikiConfig::stress();
        let cfg = SynthCorpusConfig::stress();
        assert!(cfg.num_queries <= wiki_cfg.num_topics);
        assert!(cfg.noise_docs >= 10 * SynthCorpusConfig::default_experiment().noise_docs);
        assert!(cfg.relevant_per_query.0 <= cfg.relevant_per_query.1);
    }

    #[test]
    #[should_panic(expected = "queries > ")]
    fn too_many_queries_panics() {
        let wiki = generate(&SynthWikiConfig::small());
        let mut cfg = SynthCorpusConfig::small();
        cfg.num_queries = 100;
        generate_corpus(&wiki, &cfg);
    }
}
