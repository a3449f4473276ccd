//! The coordinator side of QGRP: [`RemoteShard`], one shard process's
//! RPC client and a [`ShardHandle`], and [`RemoteEngine`], the
//! scatter-gather coordinator ([`ScatterEngine`]) instantiated over it.
//!
//! ## The two-phase search on the wire
//!
//! A shard cannot score alone: Dirichlet smoothing reads the **global**
//! collection probability (global cf / global tokens) and the global
//! epsilon floor. So the coordinator's search is up to two rounds, each
//! one frame per shard here:
//!
//! 1. [`RemoteShard::leaf_cfs`] — every shard flattens the query (sent
//!    as its `Display` string, serialized once per search) and returns
//!    its local per-leaf collection frequencies; the coordinator sums
//!    them — integers, so the global counts are *exact*. This round is
//!    sent only for a query with a leaf the coordinator has not summed
//!    before against this fleet: it remembers every completed sum (one
//!    key and one `u64` per distinct leaf, for the fleet's lifetime), so
//!    a warm search is one round trip per shard.
//! 2. [`RemoteShard::score_topk`] — every shard scores its local
//!    candidates with the global inputs shipped as f64 *bits* (μ, ε,
//!    per-leaf probabilities) and its global doc-id base, returning its
//!    sorted local top-k keyed by global doc id.
//!
//! What runs at the far end of each frame is the very
//! `ShardHandle for Arc<SearchEngine>` method an in-process shard runs, so
//! the results are bit-identical to [`crate::sharded::ShardedEngine`]
//! by shared code; the equivalence tests at N ∈ {1, 2, 3, 7} pin it.
//!
//! ## Failure posture
//!
//! Every transport or protocol failure is a typed
//! [`ShardedError::Shard`] naming the failing shard (the serving facade
//! maps it to `ServiceError::ArtifactShard`). The stream reconnects
//! once per call before giving up, and initial connection retries with
//! linear backoff — a shard that is still `exec`ing when the
//! coordinator first dials is tolerated, a dead one is reported.
//! Element counts in a response are checked against the bytes that
//! arrived before anything is allocated for them.

use crate::engine::{SearchHit, SearchMode};
use crate::lm::LmParams;
use crate::ondisk::OndiskError;
use crate::phrase::PhraseHit;
use crate::query_lang::QueryNode;
use crate::remote::proto::{
    decode_error, put_str, put_u32, put_u64, read_frame, write_frame, Op, PayloadReader,
    ProtoError, STATUS_OK,
};
use crate::sharded::{ScatterEngine, ShardHandle, ShardedError};
use parking_lot::Mutex;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What a shard reports about itself in the [`Op::Hello`] handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloInfo {
    /// The segment fingerprint embedded in the shard's artifact.
    pub(crate) fingerprint: u64,
    /// The shard index the process was started as.
    pub(crate) shard: u32,
    /// Documents in the shard's segment.
    pub(crate) num_docs: u32,
    /// Tokens in the shard's segment.
    pub total_tokens: u64,
}

/// A QGRP client for one shard process: one stream behind a lock,
/// monotonically increasing request ids, reconnect-once on transport
/// failure.
pub struct RemoteShard {
    addr: String,
    stream: Mutex<Option<TcpStream>>,
    next_id: AtomicU64,
}

impl RemoteShard {
    /// Connect to a shard process, retrying `attempts` times with
    /// `backoff` between tries (a freshly spawned child may not be
    /// listening yet).
    pub fn connect(
        addr: &str,
        attempts: u32,
        backoff: Duration,
    ) -> Result<RemoteShard, ProtoError> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(RemoteShard {
                        addr: addr.to_string(),
                        stream: Mutex::new(Some(stream)),
                        next_id: AtomicU64::new(1),
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ProtoError::Io(format!(
            "connect {addr}: {}",
            last.map(|e| e.to_string()).unwrap_or_default()
        )))
    }

    /// A transport or protocol failure as the typed per-shard error the
    /// loading path already uses, naming the endpoint — the serving
    /// facade turns it into `ServiceError::ArtifactShard`.
    fn wire_error(&self, e: ProtoError) -> OndiskError {
        OndiskError::Io(format!("{}: {e}", self.addr))
    }

    /// One request/response round trip. Holds the stream lock for the
    /// whole exchange (requests on one stream are strictly sequential);
    /// on a transport failure the stream is dropped and redialed once
    /// before the error is surfaced.
    fn call(&self, op: Op, payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
        let mut guard = self.stream.lock();
        for attempt in 0..2 {
            if guard.is_none() {
                match TcpStream::connect(&self.addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        *guard = Some(stream);
                    }
                    Err(e) => return Err(ProtoError::Io(format!("connect {}: {e}", self.addr))),
                }
            }
            let stream = guard.as_mut().expect("stream populated above");
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let result = write_frame(stream, id, op as u8, STATUS_OK, payload)
                .map_err(|e| ProtoError::Io(e.to_string()))
                .and_then(|()| read_frame(stream));
            match result {
                Ok(frame) => {
                    if frame.request_id != id {
                        *guard = None; // desynchronized: don't reuse
                        return Err(ProtoError::IdMismatch {
                            sent: id,
                            received: frame.request_id,
                        });
                    }
                    if frame.status != STATUS_OK {
                        return Err(decode_error(&frame.payload));
                    }
                    return Ok(frame.payload);
                }
                Err(ProtoError::Io(m)) if attempt == 0 => {
                    // Stale stream (shard restarted, half-closed
                    // socket): redial once, then re-send.
                    *guard = None;
                    let _ = m;
                }
                Err(e) => {
                    *guard = None;
                    return Err(e);
                }
            }
        }
        unreachable!("second attempt always returns");
    }

    /// Identity handshake.
    pub fn hello(&self) -> Result<HelloInfo, ProtoError> {
        let payload = self.call(Op::Hello, &[])?;
        let mut r = PayloadReader::new(&payload);
        let info = HelloInfo {
            fingerprint: r.u64()?,
            shard: r.u32()?,
            num_docs: r.u32()?,
            total_tokens: r.u64()?,
        };
        r.finish()?;
        Ok(info)
    }

    /// Phase 1: this shard's per-leaf collection frequencies for
    /// `query` (wire form: the AST's `Display`, which re-parses
    /// exactly).
    pub fn leaf_cfs(&self, query: &str) -> Result<Vec<u64>, ProtoError> {
        let mut payload = Vec::new();
        put_str(&mut payload, query);
        let response = self.call(Op::LeafCfs, &payload)?;
        let mut r = PayloadReader::new(&response);
        let count = r.count(8)?;
        let mut cfs = Vec::with_capacity(count);
        for _ in 0..count {
            cfs.push(r.u64()?);
        }
        r.finish()?;
        Ok(cfs)
    }

    /// Phase 2: the shard's sorted local top-k (global doc ids, score
    /// bits), scored with the supplied global inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn score_topk(
        &self,
        query: &str,
        k: usize,
        mode: SearchMode,
        base: u32,
        mu: f64,
        epsilon: f64,
        probs: &[f64],
    ) -> Result<Vec<SearchHit>, ProtoError> {
        let mut payload = Vec::new();
        put_str(&mut payload, query);
        put_u32(&mut payload, k as u32);
        payload.push(match mode {
            SearchMode::Exact => 0,
            SearchMode::Pruned => 1,
        });
        put_u32(&mut payload, base);
        put_u64(&mut payload, mu.to_bits());
        put_u64(&mut payload, epsilon.to_bits());
        put_u32(&mut payload, probs.len() as u32);
        for p in probs {
            put_u64(&mut payload, p.to_bits());
        }
        let response = self.call(Op::ScoreTopK, &payload)?;
        let mut r = PayloadReader::new(&response);
        let count = r.count(12)?;
        let mut hits = Vec::with_capacity(count);
        for _ in 0..count {
            let doc = r.u32()?;
            let score = f64::from_bits(r.u64()?);
            hits.push(SearchHit { doc, score });
        }
        r.finish()?;
        Ok(hits)
    }

    /// Resolve one phrase to the shard's local hits.
    pub(crate) fn resolve_phrase(&self, words: &[String]) -> Result<Vec<PhraseHit>, ProtoError> {
        let mut payload = Vec::new();
        put_u32(&mut payload, words.len() as u32);
        for w in words {
            put_str(&mut payload, w);
        }
        let response = self.call(Op::ResolvePhrase, &payload)?;
        let mut r = PayloadReader::new(&response);
        let count = r.count(8)?;
        let mut hits = Vec::with_capacity(count);
        for _ in 0..count {
            hits.push(PhraseHit {
                doc: r.u32()?,
                tf: r.u32()?,
            });
        }
        r.finish()?;
        Ok(hits)
    }

    /// Length of one local document.
    pub(crate) fn doc_len(&self, doc: u32) -> Result<u32, ProtoError> {
        let mut payload = Vec::new();
        put_u32(&mut payload, doc);
        let response = self.call(Op::DocLen, &payload)?;
        let mut r = PayloadReader::new(&response);
        let len = r.u32()?;
        r.finish()?;
        Ok(len)
    }

    /// The shard's phrase-cache entry count.
    pub(crate) fn stats(&self) -> Result<u64, ProtoError> {
        let response = self.call(Op::Stats, &[])?;
        let mut r = PayloadReader::new(&response);
        let len = r.u64()?;
        r.finish()?;
        Ok(len)
    }

    /// Ask the shard process to drain and exit.
    pub(crate) fn shutdown(&self) -> Result<(), ProtoError> {
        self.call(Op::Shutdown, &[]).map(|_| ())
    }
}

impl ShardHandle for RemoteShard {
    type Query<'q> = String;

    fn prepare(query: &QueryNode) -> String {
        query.to_string()
    }

    fn leaf_cfs(&self, query: &String) -> Result<Vec<u64>, OndiskError> {
        RemoteShard::leaf_cfs(self, query).map_err(|e| self.wire_error(e))
    }

    fn score_topk(
        &self,
        query: &String,
        k: usize,
        mode: SearchMode,
        base: u32,
        mu: f64,
        epsilon: f64,
        probs: &[f64],
    ) -> Result<Vec<SearchHit>, OndiskError> {
        RemoteShard::score_topk(self, query, k, mode, base, mu, epsilon, probs)
            .map_err(|e| self.wire_error(e))
    }

    fn resolve_phrase(&self, words: &[String]) -> Result<Vec<PhraseHit>, OndiskError> {
        RemoteShard::resolve_phrase(self, words).map_err(|e| self.wire_error(e))
    }

    fn doc_len(&self, doc: u32) -> Result<u32, OndiskError> {
        RemoteShard::doc_len(self, doc).map_err(|e| self.wire_error(e))
    }

    fn phrase_cache_len(&self) -> Result<usize, OndiskError> {
        self.stats()
            .map(|len| len as usize)
            .map_err(|e| self.wire_error(e))
    }

    fn endpoint(&self) -> Option<String> {
        Some(self.addr.clone())
    }
}

/// [`ScatterEngine`] over shard *processes*: the same coordinator as
/// the in-process [`crate::sharded::ShardedEngine`], with a QGRP round
/// trip where that one makes a call.
pub type RemoteEngine = ScatterEngine<RemoteShard>;

impl ScatterEngine<RemoteShard> {
    /// Connect to shard processes at `addrs` (index = shard id) and
    /// verify each one's Hello: the shard index must match its slot and
    /// the fingerprint must equal `expected[i]` — the seq-keyed
    /// [`crate::segstore::segment_fp`] of the segment the coordinator's
    /// manifest lists in that slot, the same pinning the store loader
    /// enforces, applied across the socket. Global statistics are
    /// aggregated once from the handshakes (integer sums in shard order
    /// — bit-identical to the manifest's).
    pub fn connect_with_fingerprints(
        addrs: &[String],
        params: LmParams,
        expected: &[u64],
    ) -> Result<RemoteEngine, ShardedError> {
        assert_eq!(
            addrs.len(),
            expected.len(),
            "one expected fingerprint per shard address"
        );
        let mut parts = Vec::with_capacity(addrs.len());
        for (i, (addr, &want)) in addrs.iter().zip(expected).enumerate() {
            let refused = |source| ShardedError::Shard { shard: i, source };
            let shard = RemoteShard::connect(addr, 40, Duration::from_millis(50))
                .map_err(|e| refused(OndiskError::Io(format!("{addr}: {e}"))))?;
            let info = shard.hello().map_err(|e| refused(shard.wire_error(e)))?;
            if info.fingerprint != want {
                return Err(refused(OndiskError::MetaMismatch {
                    expected: want,
                    found: info.fingerprint,
                }));
            }
            if info.shard as usize != i {
                return Err(refused(OndiskError::Malformed {
                    context: "shard process answers for a different shard index",
                }));
            }
            parts.push((shard, info.num_docs as usize, info.total_tokens));
        }
        ScatterEngine::assemble(parts, params)
    }

    /// Ask every shard process to drain and exit (used by supervisors
    /// and tests; errors are ignored — a dead shard is already down).
    pub fn shutdown_all(&self) {
        for shard in self.shards() {
            let _ = shard.shutdown();
        }
    }
}
