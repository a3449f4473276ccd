//! Shards as separate processes: the QGRP binary RPC protocol and both
//! of its ends.
//!
//! * [`proto`] — the length-prefixed, checksummed frame format and
//!   payload codec (`QGRP` magic, version, request id, op, status,
//!   bounded payload, FNV-1a trailer).
//! * [`server`] — [`ShardServer`]: serve one `QGIX` segment on a local
//!   socket (`qgx shard` wraps it in a process).
//! * `client` — [`RemoteShard`] (one shard's RPC client, a
//!   [`ShardHandle`](crate::sharded::ShardHandle)) and [`RemoteEngine`]
//!   (the scatter-gather coordinator over N of them).
//!
//! The headline property, tested here at N ∈ {1, 2, 3, 7} and on
//! random worlds: a fleet of shard processes answers **byte-
//! identically** to the in-process [`crate::sharded::ShardedEngine`]
//! (and hence to the monolithic engine). The mechanism is shared code
//! plus exact wire statistics — one coordinator drives both layouts,
//! the server's ops run the methods an in-process shard runs, and
//! every global input crosses the socket as integer counts or f64 bit
//! patterns, never re-derived floats. See `DESIGN.md` §13.

mod client;
pub mod proto;
pub mod server;

pub use client::{RemoteEngine, RemoteShard};
pub use server::ShardServer;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RetrievalBackend;
    use crate::engine::{SearchEngine, SearchMode};
    use crate::index::IndexBuilder;
    use crate::lm::LmParams;
    use crate::query_lang::parse;
    use crate::segstore::segment_fp;
    use crate::sharded::{doc_ranges, ShardedEngine, ShardedError};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const DOCS: [&str; 7] = [
        "a gondola on the grand canal of venice",
        "the grand hotel beside a small canal",
        "",
        "venice has many bridges and one grand canal",
        "completely unrelated text about mountains",
        "gondola gondola gondola",
        "the grand canal venice gondola rides",
    ];

    const QUERIES: [&str; 7] = [
        "#1(grand canal)",
        "#combine(#1(grand canal) venice)",
        "#combine(gondola venice #1(small canal))",
        "#weight(0.9 venice 0.1 canal)",
        "the",
        "#combine(zzzz gondola)",
        "#1(zz yy)",
    ];

    fn shard_engines(docs: &[&str], n: usize) -> Vec<SearchEngine> {
        doc_ranges(docs.len(), n)
            .into_iter()
            .map(|range| {
                let mut b = IndexBuilder::new();
                for d in &docs[range] {
                    b.add_document(d);
                }
                SearchEngine::new(b.build())
            })
            .collect()
    }

    /// A running loopback fleet: N `ShardServer`s on ephemeral ports,
    /// each on its own thread, torn down on drop.
    struct Fleet {
        addrs: Vec<String>,
        fingerprint: u64,
        shutdowns: Vec<Arc<AtomicBool>>,
        handles: Vec<std::thread::JoinHandle<()>>,
    }

    impl Fleet {
        fn boot(docs: &[&str], n: usize, fingerprint: u64) -> Fleet {
            let mut addrs = Vec::new();
            let mut shutdowns = Vec::new();
            let mut handles = Vec::new();
            for (i, engine) in shard_engines(docs, n).into_iter().enumerate() {
                let server = ShardServer::bind(
                    "127.0.0.1:0",
                    Arc::new(engine),
                    i,
                    segment_fp(fingerprint, i as u64),
                )
                .expect("bind loopback");
                addrs.push(server.local_addr().expect("bound addr").to_string());
                shutdowns.push(server.shutdown_flag());
                handles.push(std::thread::spawn(move || {
                    server.serve().expect("serve");
                }));
            }
            Fleet {
                addrs,
                fingerprint,
                shutdowns,
                handles,
            }
        }

        /// The per-slot fingerprints a store keyed by `fingerprint`
        /// would pin this fleet's segments to.
        fn expected(&self, fingerprint: u64) -> Vec<u64> {
            (0..self.addrs.len() as u64)
                .map(|seq| segment_fp(fingerprint, seq))
                .collect()
        }

        fn engine(&self) -> RemoteEngine {
            RemoteEngine::connect_with_fingerprints(
                &self.addrs,
                LmParams::default(),
                &self.expected(self.fingerprint),
            )
            .expect("connect fleet")
        }
    }

    impl Drop for Fleet {
        fn drop(&mut self) {
            for s in &self.shutdowns {
                s.store(true, Ordering::SeqCst);
            }
            for h in self.handles.drain(..) {
                h.join().expect("server thread");
            }
        }
    }

    fn mono(docs: &[&str]) -> SearchEngine {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        SearchEngine::new(b.build())
    }

    #[test]
    fn remote_search_is_bit_identical_to_in_process() {
        let m = mono(&DOCS);
        for n in [1, 2, 3, 7] {
            let fleet = Fleet::boot(&DOCS, n, 0xFEED + n as u64);
            let remote = fleet.engine();
            let sharded = ShardedEngine::from_shards(shard_engines(&DOCS, n), LmParams::default());
            for q in QUERIES {
                let q = parse(q).unwrap();
                // A `k` past u32 must not wrap on its way to the shards.
                for k in [0, 1, 3, 20, 1 << 32, (1 << 32) + 1, usize::MAX] {
                    let r = remote.try_search_with(&q, k, SearchMode::Exact).unwrap();
                    assert_eq!(
                        r,
                        sharded.search(&q, k),
                        "remote vs sharded at {n} shards, k={k}, query {q:?}"
                    );
                    assert_eq!(
                        r,
                        m.search_with(&q, k, SearchMode::Exact),
                        "remote vs mono at {n} shards, k={k}, query {q:?}"
                    );
                    let pruned = remote.try_search_with(&q, k, SearchMode::Pruned).unwrap();
                    assert_eq!(
                        pruned,
                        sharded.try_search_with(&q, k, SearchMode::Pruned).unwrap(),
                        "pruned remote vs sharded at {n} shards, k={k}, query {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn remote_stats_phrases_and_doc_len_match_in_process() {
        let m = mono(&DOCS);
        for n in [1, 2, 3, 7] {
            let fleet = Fleet::boot(&DOCS, n, 7 * n as u64 + 1);
            let remote = fleet.engine();
            assert_eq!(remote.num_docs(), m.index().num_docs());
            assert_eq!(
                RetrievalBackend::total_tokens(&remote),
                m.index().total_tokens()
            );
            assert_eq!(
                RetrievalBackend::epsilon_prob(&remote).to_bits(),
                m.index().epsilon_prob().to_bits(),
                "epsilon must be bit-identical at {n} shards"
            );
            for doc in 0..DOCS.len() as u32 {
                assert_eq!(
                    RetrievalBackend::doc_len(&remote, doc),
                    m.index().doc_len(doc)
                );
            }
            for phrase in [
                vec!["grand".to_string(), "canal".to_string()],
                vec!["gondola".to_string()],
                vec!["zzzz".to_string()],
            ] {
                let a = RetrievalBackend::resolve_phrase(&m, &phrase);
                let b = remote.resolve_phrase(&phrase);
                assert_eq!(a.hits, b.hits, "{phrase:?} hits at {n} shards");
                assert_eq!(
                    a.collection_prob.to_bits(),
                    b.collection_prob.to_bits(),
                    "{phrase:?} prob at {n} shards"
                );
                let again = remote.resolve_phrase(&phrase);
                assert!(Arc::ptr_eq(&b, &again), "global cache must memoize");
            }
            assert_eq!(remote.shard_count(), n);
            assert!(remote.shard_endpoint(0).is_some());
            assert!(remote.phrase_cache_len() >= 1);
        }
    }

    #[test]
    fn wrong_fingerprint_is_typed_per_shard() {
        let fleet = Fleet::boot(&DOCS, 2, 111);
        match RemoteEngine::connect_with_fingerprints(
            &fleet.addrs,
            LmParams::default(),
            &fleet.expected(999),
        ) {
            Err(ShardedError::Shard { shard: 0, source }) => {
                assert!(
                    matches!(source, crate::ondisk::OndiskError::MetaMismatch { .. }),
                    "{source:?}"
                );
            }
            Err(other) => panic!("expected shard-0 MetaMismatch, got {other:?}"),
            Ok(_) => panic!("expected shard-0 MetaMismatch, got a connected engine"),
        }
    }

    #[test]
    fn dead_shard_surfaces_as_typed_error_naming_it() {
        let fleet = Fleet::boot(&DOCS, 3, 42);
        let remote = fleet.engine();
        // Kill shard 1 out from under the engine.
        fleet.shutdowns[1].store(true, Ordering::SeqCst);
        // Wait for the server thread to actually wind down.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let q = parse("#combine(grand venice)").unwrap();
        match remote.try_search_with(&q, 5, SearchMode::Exact) {
            Err(ShardedError::Shard { shard: 1, source }) => {
                let text = source.to_string();
                assert!(
                    text.contains(fleet.addrs[1].as_str()),
                    "error must name the endpoint: {text}"
                );
            }
            other => panic!("expected shard-1 error, got {other:?}"),
        }
        // The infallible facade degrades to empty instead of panicking.
        assert!(remote.search(&q, 5).is_empty());
    }

    #[test]
    fn shutdown_op_drains_the_server() {
        let fleet = Fleet::boot(&DOCS, 1, 5);
        let shard = RemoteShard::connect(&fleet.addrs[0], 5, std::time::Duration::from_millis(20))
            .expect("connect");
        shard.shutdown().expect("shutdown acked");
        // The serve loop observes the flag and exits; Drop joins it.
    }

    /// One raw QGRP exchange on an open connection.
    fn exchange(stream: &mut std::net::TcpStream, op: proto::Op, payload: &[u8]) -> proto::Frame {
        proto::write_frame(stream, 1, op as u8, proto::STATUS_OK, payload).expect("send");
        proto::read_frame(stream).expect("a frame back, not a dead shard")
    }

    /// A `ScoreTopK` request for the one-leaf query `venice`, with the
    /// given `k` and claimed probability count (one probability sent).
    fn score_request(k: u32, claimed_probs: u32) -> Vec<u8> {
        let mut p = Vec::new();
        proto::put_str(&mut p, "venice");
        proto::put_u32(&mut p, k);
        p.push(0); // exact
        proto::put_u32(&mut p, 0);
        proto::put_u64(&mut p, 2500f64.to_bits());
        proto::put_u64(&mut p, 0.01f64.to_bits());
        proto::put_u32(&mut p, claimed_probs);
        proto::put_u64(&mut p, 0.1f64.to_bits());
        p
    }

    #[test]
    fn hostile_frames_are_answered_and_the_connection_survives() {
        let fleet = Fleet::boot(&DOCS, 1, 77);
        let mut stream = std::net::TcpStream::connect(&fleet.addrs[0]).expect("connect");
        let huge = u32::MAX.to_le_bytes();
        for (what, op, payload, status) in [
            (
                "a doc id beyond the segment",
                proto::Op::DocLen,
                huge.to_vec(),
                proto::STATUS_ERROR,
            ),
            (
                "k = u32::MAX (clamped to the segment, then answered)",
                proto::Op::ScoreTopK,
                score_request(u32::MAX, 1),
                proto::STATUS_OK,
            ),
            (
                "a probability count the payload cannot hold",
                proto::Op::ScoreTopK,
                score_request(10, u32::MAX),
                proto::STATUS_ERROR,
            ),
            (
                "a word count the payload cannot hold",
                proto::Op::ResolvePhrase,
                huge.to_vec(),
                proto::STATUS_ERROR,
            ),
        ] {
            let answer = exchange(&mut stream, op, &payload);
            assert_eq!(answer.status, status, "{what}");
            let hello = exchange(&mut stream, proto::Op::Hello, &[]);
            assert_eq!(hello.status, proto::STATUS_OK, "hello after {what}");
            let mut r = proto::PayloadReader::new(&hello.payload);
            assert_eq!(r.u64().unwrap(), segment_fp(77, 0), "hello after {what}");
        }
    }

    #[test]
    fn an_oversized_count_from_a_shard_is_a_typed_error() {
        // A fake shard: an honest Hello, then every answer is a vector
        // header claiming u32::MAX elements with none behind it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            while let Ok(frame) = proto::read_frame(&mut stream) {
                let mut out = Vec::new();
                if frame.op == proto::Op::Hello as u8 {
                    proto::put_u64(&mut out, 5);
                    proto::put_u32(&mut out, 0);
                    proto::put_u32(&mut out, 3);
                    proto::put_u64(&mut out, 12);
                } else {
                    proto::put_u32(&mut out, u32::MAX);
                }
                proto::write_frame(
                    &mut stream,
                    frame.request_id,
                    frame.op,
                    proto::STATUS_OK,
                    &out,
                )
                .expect("answer");
            }
        });
        let remote = RemoteEngine::connect_with_fingerprints(&[addr], LmParams::default(), &[5])
            .expect("the fake's hello is honest");
        let q = parse("venice").unwrap();
        match remote.try_search_with(&q, 5, SearchMode::Exact) {
            Err(ShardedError::Shard { shard: 0, .. }) => {}
            other => panic!("expected a shard-0 error, got {other:?}"),
        }
        assert!(remote
            .resolve_phrase(&["venice".to_string()])
            .hits
            .is_empty());
        drop(remote); // closes the stream; the fake's read loop ends
        fake.join().expect("fake shard thread");
    }

    proptest::proptest! {
        /// Process-boundary equivalence on random worlds at the pinned
        /// shard counts {1, 2, 3, 7}.
        #[test]
        fn remote_equals_in_process_on_random_worlds(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u8..6, 0..16),
                1..12,
            ),
            npick in 0usize..4,
            qpick in 0u8..6,
        ) {
            const VOCAB: [&str; 6] =
                ["alpha", "beta", "gamma", "delta", "beta gamma", "alpha beta"];
            let texts: Vec<String> = docs
                .iter()
                .map(|d| {
                    d.iter()
                        .map(|&x| VOCAB[x as usize])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let n = [1usize, 2, 3, 7][npick];
            let fleet = Fleet::boot(&refs, n, 0xC0FFEE + n as u64);
            let remote = fleet.engine();
            let sharded = ShardedEngine::from_shards(
                shard_engines(&refs, n),
                LmParams::default(),
            );
            let queries = [
                "#combine(alpha beta)",
                "#1(beta gamma)",
                "#weight(0.7 alpha 0.3 #1(alpha beta))",
                "#combine(#1(gamma delta) delta)",
                "delta",
                "#combine(alpha #1(beta gamma) zeta)",
            ];
            let q = parse(queries[qpick as usize % queries.len()]).unwrap();
            for mode in [SearchMode::Exact, SearchMode::Pruned] {
                let r = remote.try_search_with(&q, 10, mode).unwrap();
                proptest::prop_assert_eq!(
                    r,
                    sharded.try_search_with(&q, 10, mode).unwrap(),
                    "mode {:?} at {} shards", mode, n
                );
            }
        }
    }
}
