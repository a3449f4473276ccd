//! The coordinator side of QGRP: a per-shard RPC client plus a
//! [`RemoteEngine`] that scatter-gathers N shard *processes*
//! byte-identically to the in-process [`crate::sharded::ShardedEngine`].
//!
//! ## The two-phase search
//!
//! A shard cannot score alone: Dirichlet smoothing reads the **global**
//! collection probability (global cf / global tokens) and the global
//! epsilon floor. So a search is two rounds:
//!
//! 1. [`RemoteShard::leaf_cfs`] — every shard flattens the query (the
//!    shared `flatten_specs` pass) and returns its local per-leaf
//!    collection frequencies. The coordinator sums them in shard order
//!    — integer sums, so the global counts are *exact* — and computes
//!    the same `cf / total_tokens` probabilities and `epsilon_for`
//!    floor the in-process engine computes.
//! 2. [`RemoteShard::score_topk`] — every shard scores its local
//!    candidates through the one shared `shard_topk` with the global
//!    inputs shipped as f64 *bits* (μ, ε, per-leaf probabilities) and
//!    its global doc-id base, returning its sorted local top-k keyed by
//!    global doc id.
//!
//! The gather then merges under the same total order (score descending,
//! doc ascending) and truncates to k — exactly the in-process merge.
//! Identical flattening + identical integer statistics + identical
//! float-op sequence + identical merge = bit-identical results, which
//! the equivalence tests at N ∈ {1, 2, 3, 7} pin.
//!
//! ## Failure posture
//!
//! Every transport or protocol failure is a typed
//! [`ShardedError::Shard`] naming the failing shard (the serving facade
//! maps it to `ServiceError::ArtifactShard`). The stream reconnects
//! once per call before giving up, and initial connection retries with
//! linear backoff — a shard that is still `exec`ing when the
//! coordinator first dials is tolerated, a dead one is reported.

use crate::engine::{flatten_specs, phrase_cache_slot, PhraseInfo, SearchHit, SearchMode};
use crate::index::epsilon_for;
use crate::lm::LmParams;
use crate::ondisk::OndiskError;
use crate::par::parallel_map;
use crate::phrase::PhraseHit;
use crate::query_lang::QueryNode;
use crate::remote::proto::{
    decode_error, put_str, put_u32, put_u64, read_frame, write_frame, Op, PayloadReader,
    ProtoError, STATUS_OK,
};
use crate::sharded::ShardedError;
use crate::topk::Scored;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of global phrase-cache locks (mirrors the sharded engine).
const PHRASE_CACHE_LOCKS: usize = 16;

/// What a shard reports about itself in the [`Op::Hello`] handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloInfo {
    /// The segment fingerprint embedded in the shard's artifact.
    pub fingerprint: u64,
    /// The shard index the process was started as.
    pub shard: u32,
    /// Documents in the shard's segment.
    pub num_docs: u32,
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

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
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
        let count = r.u32()? as usize;
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
    ) -> Result<Vec<Scored>, ProtoError> {
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
        let count = r.u32()? as usize;
        let mut hits = Vec::with_capacity(count);
        for _ in 0..count {
            let doc = r.u32()?;
            let score = f64::from_bits(r.u64()?);
            hits.push(Scored { doc, score });
        }
        r.finish()?;
        Ok(hits)
    }

    /// Resolve one phrase to the shard's local `(doc, tf)` hits.
    pub fn resolve_phrase(&self, words: &[String]) -> Result<Vec<(u32, u32)>, ProtoError> {
        let mut payload = Vec::new();
        put_u32(&mut payload, words.len() as u32);
        for w in words {
            put_str(&mut payload, w);
        }
        let response = self.call(Op::ResolvePhrase, &payload)?;
        let mut r = PayloadReader::new(&response);
        let count = r.u32()? as usize;
        let mut hits = Vec::with_capacity(count);
        for _ in 0..count {
            hits.push((r.u32()?, r.u32()?));
        }
        r.finish()?;
        Ok(hits)
    }

    /// Length of one local document.
    pub fn doc_len(&self, doc: u32) -> Result<u32, ProtoError> {
        let mut payload = Vec::new();
        put_u32(&mut payload, doc);
        let response = self.call(Op::DocLen, &payload)?;
        let mut r = PayloadReader::new(&response);
        let len = r.u32()?;
        r.finish()?;
        Ok(len)
    }

    /// The shard's phrase-cache entry count.
    pub fn stats(&self) -> Result<u64, ProtoError> {
        let response = self.call(Op::Stats, &[])?;
        let mut r = PayloadReader::new(&response);
        let len = r.u64()?;
        r.finish()?;
        Ok(len)
    }

    /// Ask the shard process to drain and exit.
    pub fn shutdown(&self) -> Result<(), ProtoError> {
        self.call(Op::Shutdown, &[]).map(|_| ())
    }
}

/// N shard *processes* behind the
/// [`RetrievalBackend`](crate::backend::RetrievalBackend) surface —
/// the process-level twin of [`crate::sharded::ShardedEngine`], byte-
/// identical to it (and hence to the monolithic engine) by the shared
/// scoring path and the two-phase global-statistics protocol (module
/// docs).
pub struct RemoteEngine {
    shards: Vec<RemoteShard>,
    /// Global doc id of each shard's first document (prefix sums of the
    /// Hello doc counts, in shard order).
    doc_bases: Vec<u32>,
    num_docs: usize,
    total_tokens: u64,
    params: LmParams,
    search_threads: usize,
    /// Globally assembled phrase resolutions (hits re-based to global
    /// doc ids). Only successful resolutions are cached — a transport
    /// failure returns an empty, *uncached* resolution so a recovered
    /// shard is consulted again.
    phrase_cache: Vec<Mutex<HashMap<Vec<String>, Arc<PhraseInfo>>>>,
}

impl RemoteEngine {
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
        assert!(!addrs.is_empty(), "remote engine needs >= 1 shard");
        assert_eq!(
            addrs.len(),
            expected.len(),
            "one expected fingerprint per shard address"
        );
        let mut shards = Vec::with_capacity(addrs.len());
        let mut doc_bases = Vec::with_capacity(addrs.len());
        let mut next = 0u64;
        let mut total_tokens = 0u64;
        for (i, addr) in addrs.iter().enumerate() {
            let shard = RemoteShard::connect(addr, 40, Duration::from_millis(50))
                .map_err(|e| wire_error(i, addr, e))?;
            let info = shard.hello().map_err(|e| wire_error(i, addr, e))?;
            let want = expected[i];
            if info.fingerprint != want {
                return Err(ShardedError::Shard {
                    shard: i,
                    source: OndiskError::MetaMismatch {
                        expected: want,
                        found: info.fingerprint,
                    },
                });
            }
            if info.shard as usize != i {
                return Err(ShardedError::Shard {
                    shard: i,
                    source: OndiskError::Malformed {
                        context: "shard process answers for a different shard index",
                    },
                });
            }
            doc_bases.push(u32::try_from(next).map_err(|_| ShardedError::Shard {
                shard: i,
                source: OndiskError::Malformed {
                    context: "doc ids overflow u32",
                },
            })?);
            next += info.num_docs as u64;
            total_tokens += info.total_tokens;
            shards.push(shard);
        }
        Ok(RemoteEngine {
            shards,
            doc_bases,
            num_docs: next as usize,
            total_tokens,
            params,
            search_threads: 1,
            phrase_cache: (0..PHRASE_CACHE_LOCKS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        })
    }

    /// Set the per-query scatter width (1 = sequential round-robin).
    /// Never changes results — only who waits on which socket.
    pub fn with_search_threads(mut self, threads: usize) -> RemoteEngine {
        self.search_threads = threads.max(1);
        self
    }

    /// The socket address of shard `shard`, when it exists.
    pub fn shard_addr(&self, shard: usize) -> Option<&str> {
        self.shards.get(shard).map(|s| s.addr())
    }

    /// The shard owning global doc `doc`.
    fn shard_of(&self, doc: u32) -> usize {
        self.doc_bases.partition_point(|&base| base <= doc) - 1
    }

    /// Ask every shard process to drain and exit (used by supervisors
    /// and tests; errors are ignored — a dead shard is already down).
    pub fn shutdown_all(&self) {
        for shard in &self.shards {
            let _ = shard.shutdown();
        }
    }

    /// The fallible search behind the backend surface. Any failing
    /// shard aborts the query with a typed error naming it.
    pub fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError> {
        let mut specs = Vec::new();
        flatten_specs(query, 1.0, &mut specs);
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let wire_query = query.to_string();

        // Phase 1: exact global per-leaf collection frequencies.
        let mut cfs = vec![0u64; specs.len()];
        for (si, shard) in self.shards.iter().enumerate() {
            let local = shard
                .leaf_cfs(&wire_query)
                .map_err(|e| wire_error(si, shard.addr(), e))?;
            if local.len() != cfs.len() {
                return Err(ShardedError::Shard {
                    shard: si,
                    source: OndiskError::Malformed {
                        context: "shard flattened a different leaf count",
                    },
                });
            }
            for (total, local_cf) in cfs.iter_mut().zip(local) {
                *total += local_cf;
            }
        }
        let probs: Vec<f64> = cfs
            .iter()
            .map(|&cf| cf as f64 / self.total_tokens.max(1) as f64)
            .collect();
        let epsilon = epsilon_for(self.total_tokens);

        // Phase 2: scatter scoring with the global inputs; each shard
        // returns its sorted top-k keyed by global doc id.
        let per_shard: Vec<Result<Vec<Scored>, ProtoError>> =
            parallel_map(self.shards.len(), self.search_threads, |si| {
                self.shards[si].score_topk(
                    &wire_query,
                    k,
                    mode,
                    self.doc_bases[si],
                    self.params.mu,
                    epsilon,
                    &probs,
                )
            });

        // Gather: merge under the same total order and keep k — the
        // in-process engine's exact merge.
        let mut merged: Vec<Scored> = Vec::new();
        for (si, result) in per_shard.into_iter().enumerate() {
            let hits = result.map_err(|e| wire_error(si, self.shards[si].addr(), e))?;
            merged.extend(hits);
        }
        merged.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        merged.truncate(k);
        Ok(merged
            .into_iter()
            .map(|s| SearchHit {
                doc: s.doc,
                score: s.score,
            })
            .collect())
    }

    /// Resolve (and cache) one phrase globally — the sharded engine's
    /// assembly, over the wire. Failures return an empty resolution
    /// without caching it (see the field docs).
    pub fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        let lock = &self.phrase_cache[phrase_cache_slot(words, self.phrase_cache.len())];
        if let Some(hit) = lock.lock().get(words) {
            return hit.clone();
        }
        let mut hits = Vec::new();
        let mut complete = true;
        for (si, shard) in self.shards.iter().enumerate() {
            match shard.resolve_phrase(words) {
                Ok(local) => {
                    let base = self.doc_bases[si];
                    hits.extend(local.into_iter().map(|(doc, tf)| PhraseHit {
                        doc: base + doc,
                        tf,
                    }));
                }
                Err(_) => {
                    complete = false;
                    break;
                }
            }
        }
        if !complete {
            return Arc::new(PhraseInfo {
                hits: Vec::new(),
                collection_prob: 0.0,
            });
        }
        let cf: u64 = hits.iter().map(|h| h.tf as u64).sum();
        let info = Arc::new(PhraseInfo {
            hits,
            collection_prob: cf as f64 / self.total_tokens.max(1) as f64,
        });
        lock.lock().insert(words.to_vec(), info.clone());
        info
    }
}

/// Map a transport/protocol failure to the typed per-shard error the
/// loading path already uses — the serving facade turns it into
/// `ServiceError::ArtifactShard` naming the shard and its endpoint.
fn wire_error(shard: usize, addr: &str, e: ProtoError) -> ShardedError {
    ShardedError::Shard {
        shard,
        source: OndiskError::Io(format!("{addr}: {e}")),
    }
}

impl crate::backend::RetrievalBackend for RemoteEngine {
    fn params(&self) -> LmParams {
        self.params
    }

    fn epsilon_prob(&self) -> f64 {
        epsilon_for(self.total_tokens)
    }

    fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    fn num_docs(&self) -> usize {
        self.num_docs
    }

    fn doc_len(&self, doc: u32) -> u32 {
        let si = self.shard_of(doc);
        self.shards[si]
            .doc_len(doc - self.doc_bases[si])
            .unwrap_or(0)
    }

    fn resolve_phrase(&self, words: &[String]) -> Arc<PhraseInfo> {
        RemoteEngine::resolve_phrase(self, words)
    }

    fn search(&self, query: &QueryNode, k: usize) -> Vec<SearchHit> {
        self.search_with(query, k, SearchMode::Exact)
    }

    /// Infallible facade over [`RemoteEngine::try_search_with`]: a
    /// failed scatter degrades to no hits. Serving paths that need the
    /// typed error call `try_search_with` instead (the default the
    /// `QueryExpander` uses).
    fn search_with(&self, query: &QueryNode, k: usize, mode: SearchMode) -> Vec<SearchHit> {
        self.try_search_with(query, k, mode).unwrap_or_default()
    }

    fn try_search_with(
        &self,
        query: &QueryNode,
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<SearchHit>, ShardedError> {
        RemoteEngine::try_search_with(self, query, k, mode)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_endpoint(&self, shard: usize) -> Option<String> {
        self.shard_addr(shard).map(|s| s.to_string())
    }

    fn phrase_cache_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.stats().unwrap_or(0) as usize)
            .sum()
    }
}
