//! One independent oracle for every retrieval configuration.
//!
//! The monolithic engine, the in-process scatter-gather and the QGRP
//! fleet all score through one kernel, so comparing them with each
//! other only shows that one piece of code agrees with itself. This
//! file holds a deliberately naive second implementation — Dirichlet
//! query likelihood written straight from the formula over raw token
//! lists: no index, no postings, no workspace, no pruning, no shards,
//! no cache, a full sort — and checks every configuration against it on
//! random small corpora:
//!
//! * mono, `ShardedEngine` at N ∈ {1, 2, 3, 7} and a `RemoteEngine`
//!   over loopback `ShardServer`s (one of those N per case — a fleet
//!   costs ~0.2 s to boot and drain), each in `Exact` and `Pruned`,
//!   return the oracle's documents in the oracle's order with scores
//!   within 1e-12 of it, and bit-equal to one another;
//! * `doc_len`, `resolve_phrase` and `epsilon_prob` agree the same way.

use querygraph::retrieval::backend::RetrievalBackend;
use querygraph::retrieval::engine::{SearchEngine, SearchHit, SearchMode};
use querygraph::retrieval::index::IndexBuilder;
use querygraph::retrieval::lm::LmParams;
use querygraph::retrieval::query_lang::QueryNode;
use querygraph::retrieval::remote::{RemoteEngine, ShardServer};
use querygraph::retrieval::segstore::segment_fp;
use querygraph::retrieval::sharded::{doc_ranges, ShardedEngine};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Lowercase single words, so whitespace splitting *is* the engine's
/// tokenization; `omega` occurs in no document.
const VOCAB: [&str; 7] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "omega",
];

// ── the oracle ──────────────────────────────────────────────────────

/// One weighted query leaf: a bare term is a one-word phrase.
struct Leaf {
    weight: f64,
    words: Vec<&'static str>,
}

/// A collection as raw token lists, and nothing else.
struct Oracle {
    docs: Vec<Vec<&'static str>>,
    mu: f64,
}

impl Oracle {
    fn total_tokens(&self) -> u64 {
        self.docs.iter().map(|d| d.len() as u64).sum()
    }

    /// The smoothing floor: half an occurrence over the collection.
    fn epsilon(&self) -> f64 {
        match self.total_tokens() {
            0 => 1e-9,
            n => 0.5 / n as f64,
        }
    }

    /// Occurrences of `words` as consecutive tokens of one document.
    fn tf(doc: &[&str], words: &[&str]) -> u32 {
        if words.is_empty() || doc.len() < words.len() {
            return 0;
        }
        doc.windows(words.len()).filter(|w| w == &words).count() as u32
    }

    /// `(doc, tf)` for every document containing `words`, and the
    /// collection probability `cf / total tokens`.
    fn phrase(&self, words: &[&str]) -> (Vec<(u32, u32)>, f64) {
        let hits: Vec<(u32, u32)> = self
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| (d as u32, Self::tf(doc, words)))
            .filter(|&(_, tf)| tf > 0)
            .collect();
        let cf: u64 = hits.iter().map(|&(_, tf)| tf as u64).sum();
        (hits, cf as f64 / self.total_tokens().max(1) as f64)
    }

    /// Σ wₗ · ln((tfₗ + μ·max(pₗ, ε)) / (|d| + μ)) for every document
    /// matching at least one leaf; best `k` by score, ties by doc id.
    fn search(&self, leaves: &[Leaf], k: usize) -> Vec<(u32, f64)> {
        let epsilon = self.epsilon();
        let probs: Vec<f64> = leaves.iter().map(|l| self.phrase(&l.words).1).collect();
        let mut scored = Vec::new();
        for (d, doc) in self.docs.iter().enumerate() {
            let tfs: Vec<u32> = leaves.iter().map(|l| Self::tf(doc, &l.words)).collect();
            if tfs.iter().all(|&tf| tf == 0) {
                continue;
            }
            let mut score = 0.0;
            for ((leaf, &tf), &p) in leaves.iter().zip(&tfs).zip(&probs) {
                let belief = (tf as f64 + self.mu * p.max(epsilon)) / (doc.len() as f64 + self.mu);
                score += leaf.weight * belief.ln();
            }
            scored.push((d as u32, score));
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

// ── one sampled query, as the oracle's leaves and as the engines' AST ─

/// Build the same query twice from one description: the weighted leaf
/// list by the INDRI weighting rules (`#combine` splits its weight
/// evenly, `#weight` in proportion), and the AST the engines flatten
/// themselves. `shape` picks a bare leaf, `#combine`, `#weight`, or a
/// `#combine` holding a nested `#weight`.
fn query(shape: u8, picks: &[(u8, u8, u8)]) -> (Vec<Leaf>, QueryNode) {
    let parts: Vec<(f64, Vec<&'static str>)> = picks
        .iter()
        .map(|&(kind, a, b)| {
            let (a, b) = (VOCAB[a as usize % 7], VOCAB[b as usize % 7]);
            let words = if kind % 3 == 0 { vec![a, b] } else { vec![a] };
            (1.0 + (kind / 3) as f64, words)
        })
        .collect();
    let node = |words: &[&'static str]| match words {
        [term] => QueryNode::Term(term.to_string()),
        _ => QueryNode::Phrase(words.iter().map(|w| w.to_string()).collect()),
    };
    let leaf = |weight: f64, words: &[&'static str]| Leaf {
        weight,
        words: words.to_vec(),
    };
    let weighted = |parts: &[(f64, Vec<&'static str>)], outer: f64| {
        let total: f64 = parts.iter().map(|(w, _)| w).sum();
        let leaves: Vec<Leaf> = parts
            .iter()
            .map(|(w, words)| leaf(outer * w / total, words))
            .collect();
        let ast = QueryNode::Weight(parts.iter().map(|(w, words)| (*w, node(words))).collect());
        (leaves, ast)
    };
    match shape % 4 {
        0 => (vec![leaf(1.0, &parts[0].1)], node(&parts[0].1)),
        1 => {
            let share = 1.0 / parts.len() as f64;
            (
                parts.iter().map(|(_, words)| leaf(share, words)).collect(),
                QueryNode::Combine(parts.iter().map(|(_, words)| node(words)).collect()),
            )
        }
        2 => weighted(&parts, 1.0),
        _ => {
            let (plain, nested) = parts.split_at(parts.len() / 2);
            let share = 1.0 / (plain.len() + 1) as f64;
            let (nested_leaves, nested_ast) = weighted(nested, share);
            let mut leaves: Vec<Leaf> = plain.iter().map(|(_, words)| leaf(share, words)).collect();
            leaves.extend(nested_leaves);
            let mut children: Vec<QueryNode> = plain.iter().map(|(_, words)| node(words)).collect();
            children.push(nested_ast);
            (leaves, QueryNode::Combine(children))
        }
    }
}

// ── the configurations under test ───────────────────────────────────

fn engine_over(texts: &[String], params: LmParams) -> SearchEngine {
    let mut b = IndexBuilder::new();
    for text in texts {
        b.add_document(text);
    }
    SearchEngine::with_params(b.build(), params)
}

fn shard_engines(texts: &[String], n: usize, params: LmParams) -> Vec<SearchEngine> {
    doc_ranges(texts.len(), n)
        .into_iter()
        .map(|range| engine_over(&texts[range], params))
        .collect()
}

/// N loopback `ShardServer`s, one thread each, drained on drop.
struct Fleet {
    addrs: Vec<String>,
    prints: Vec<u64>,
    shutdowns: Vec<Arc<std::sync::atomic::AtomicBool>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Fleet {
    fn boot(texts: &[String], n: usize, params: LmParams) -> Fleet {
        let mut fleet = Fleet {
            addrs: Vec::new(),
            prints: Vec::new(),
            shutdowns: Vec::new(),
            threads: Vec::new(),
        };
        for (i, engine) in shard_engines(texts, n, params).into_iter().enumerate() {
            let print = segment_fp(0x0AC1E, i as u64);
            let server = ShardServer::bind("127.0.0.1:0", Arc::new(engine), i, print)
                .expect("bind loopback");
            fleet
                .addrs
                .push(server.local_addr().expect("bound").to_string());
            fleet.prints.push(print);
            fleet.shutdowns.push(server.shutdown_flag());
            fleet
                .threads
                .push(std::thread::spawn(move || server.serve().expect("serve")));
        }
        fleet
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for flag in &self.shutdowns {
            flag.store(true, Ordering::SeqCst);
        }
        for thread in self.threads.drain(..) {
            thread.join().expect("server thread");
        }
    }
}

fn bits(hits: &[SearchHit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

proptest::proptest! {
    #[test]
    fn every_configuration_matches_the_naive_oracle(
        docs in proptest::collection::vec(proptest::collection::vec(0u8..6, 0..20), 1..16),
        shape in 0u8..4,
        picks in proptest::collection::vec((0u8..6, 0u8..7, 0u8..7), 1..6),
        k in 0usize..12,
        mu_pick in 0usize..3,
        remote_n in 0usize..4,
    ) {
        let params = LmParams { mu: [2500.0, 40.0, 1.0][mu_pick] };
        let oracle = Oracle {
            docs: docs
                .iter()
                .map(|d| d.iter().map(|&w| VOCAB[w as usize]).collect())
                .collect(),
            mu: params.mu,
        };
        let texts: Vec<String> = oracle.docs.iter().map(|d| d.join(" ")).collect();
        let (leaves, ast) = query(shape, &picks);
        let expected = oracle.search(&leaves, k);

        let mono = engine_over(&texts, params);
        let sharded: Vec<ShardedEngine> = [1, 2, 3, 7]
            .iter()
            .map(|&n| ShardedEngine::from_shards(shard_engines(&texts, n, params), params))
            .collect();
        let fleet = Fleet::boot(&texts, [1, 2, 3, 7][remote_n], params);
        let remote = RemoteEngine::connect_with_fingerprints(&fleet.addrs, params, &fleet.prints)
            .expect("connect fleet");
        let mut configs: Vec<(String, &dyn RetrievalBackend)> = vec![("mono".into(), &mono)];
        for s in &sharded {
            configs.push((format!("sharded x{}", s.shard_count()), s));
        }
        configs.push((format!("remote x{}", remote.shard_count()), &remote));

        let reference = mono.search_with(&ast, k, SearchMode::Exact);
        for (name, backend) in &configs {
            for mode in [SearchMode::Exact, SearchMode::Pruned] {
                let hits = backend
                    .try_search_with(&ast, k, mode)
                    .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
                let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
                let want: Vec<u32> = expected.iter().map(|&(doc, _)| doc).collect();
                proptest::prop_assert_eq!(docs, want, "{} {:?}: documents, {}", name, mode, ast);
                for (hit, &(_, score)) in hits.iter().zip(&expected) {
                    proptest::prop_assert!(
                        (hit.score - score).abs() <= 1e-12,
                        "{name} {mode:?}: doc {} scored {} vs the oracle's {score}",
                        hit.doc,
                        hit.score
                    );
                }
                proptest::prop_assert_eq!(
                    bits(&hits),
                    bits(&reference),
                    "{} {:?}: score bits differ from mono exact",
                    name,
                    mode
                );
            }

            let epsilon = backend.epsilon_prob();
            proptest::prop_assert!((epsilon - oracle.epsilon()).abs() <= 1e-12 * epsilon);
            proptest::prop_assert_eq!(epsilon.to_bits(), mono.epsilon_prob().to_bits());
            proptest::prop_assert_eq!(backend.num_docs(), oracle.docs.len());
            proptest::prop_assert_eq!(backend.total_tokens(), oracle.total_tokens());
            for (d, doc) in oracle.docs.iter().enumerate() {
                proptest::prop_assert_eq!(backend.doc_len(d as u32), doc.len() as u32, "{}", name);
            }
            for leaf in &leaves {
                let words: Vec<String> = leaf.words.iter().map(|w| w.to_string()).collect();
                let info = backend.resolve_phrase(&words);
                let (hits, prob) = oracle.phrase(&leaf.words);
                let got: Vec<(u32, u32)> = info.hits.iter().map(|h| (h.doc, h.tf)).collect();
                proptest::prop_assert_eq!(got, hits, "{}: phrase {:?}", name, words);
                proptest::prop_assert!((info.collection_prob - prob).abs() <= 1e-12);
                proptest::prop_assert_eq!(
                    info.collection_prob.to_bits(),
                    mono.resolve_phrase(&words).collection_prob.to_bits(),
                    "{}: phrase {:?} probability bits",
                    name,
                    words
                );
            }
        }
    }
}
