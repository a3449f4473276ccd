//! The shard side of QGRP: serve one `QGIX` segment as a standalone
//! process on a local socket.
//!
//! [`ShardServer`] owns a [`SearchEngine`] over one segment plus its
//! identity (shard index + embedded segment fingerprint). Each op is
//! decode → the engine's [`ShardHandle`] method → encode — the same
//! method an in-process shard is called through, so a fleet of shard
//! processes is byte-identical to the in-process engine by shared code.
//! All *global* inputs — μ, the smoothing floor, per-leaf collection
//! probabilities, the shard's global doc-id base — arrive bit-exactly
//! on the wire with each [`Op::ScoreTopK`].
//!
//! The accept loop mirrors `core::http`'s lifecycle patterns: a
//! non-blocking listener polled against a shutdown flag, short read
//! timeouts so connection threads observe shutdown between frames, and
//! scoped connection threads that drain before `serve` returns. Every
//! malformed frame or failed op is answered with a typed error frame —
//! a hostile or desynchronized peer cannot panic a shard: element
//! counts are checked against the payload before allocation, `k` is
//! clamped to the segment, and a doc id the segment does not hold is an
//! error frame.

use crate::engine::{SearchEngine, SearchMode};
use crate::ondisk::OndiskError;
use crate::query_lang::parse;
use crate::remote::proto::{
    encode_error, put_u32, put_u64, read_frame, write_frame, Frame, Op, PayloadReader, ProtoError,
    STATUS_ERROR, STATUS_OK,
};
use crate::sharded::ShardHandle;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the accept loop and idle connections poll the shutdown
/// flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Per-read budget once a frame has begun arriving — a peer that
/// stalls mid-frame for this long is dropped rather than parked
/// forever (the slowloris posture `core::http` takes, applied to
/// frames).
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// One shard process's server: a [`SearchEngine`] over one segment,
/// addressable over QGRP.
pub struct ShardServer {
    listener: TcpListener,
    engine: Arc<SearchEngine>,
    shard: u32,
    fingerprint: u64,
    shutdown: Arc<AtomicBool>,
}

impl ShardServer {
    /// Bind on `addr` (use port 0 for an ephemeral port) serving
    /// `engine` as shard `shard` with the segment's embedded
    /// `fingerprint`.
    pub fn bind(
        addr: &str,
        engine: Arc<SearchEngine>,
        shard: usize,
        fingerprint: u64,
    ) -> std::io::Result<ShardServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(ShardServer {
            listener,
            engine,
            shard: shard as u32,
            fingerprint,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown flag: set it (from a signal watcher, a stdin-EOF
    /// watcher, or an [`Op::Shutdown`] frame) and `serve` drains and
    /// returns.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Serve until the shutdown flag is set. Each connection runs on a
    /// scoped thread; all of them observe shutdown within one poll
    /// interval and are joined before this returns.
    pub fn serve(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        scope.spawn(move || self.handle_connection(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
        });
        Ok(())
    }

    /// One connection: frames in, frames out, until EOF, shutdown, or a
    /// transport error. While idle the thread peeks with a short
    /// timeout so it observes shutdown between frames; once a frame has
    /// begun it reads with a generous per-frame budget. Framing errors
    /// that leave the stream position undefined close the connection.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let mut stream = stream;
        while !self.shutdown.load(Ordering::SeqCst) {
            let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
            let mut first = [0u8; 1];
            match stream.peek(&mut first) {
                Ok(0) => return, // clean EOF between frames
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // idle; re-check shutdown
                }
                Err(_) => return,
            }
            let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
            let frame = match read_frame(&mut stream) {
                Ok(frame) => frame,
                Err(_) => return, // stalled, desync, or hostile: close
            };
            let keep = self.answer(&mut stream, frame);
            if !keep {
                return;
            }
        }
    }

    /// Dispatch one frame and write the response. Returns `false` when
    /// the connection (or the whole server) should wind down.
    fn answer(&self, stream: &mut TcpStream, frame: Frame) -> bool {
        if frame.status != STATUS_OK {
            let payload = encode_error("bad_status", "request frames must carry status 0");
            return write_frame(stream, frame.request_id, frame.op, STATUS_ERROR, &payload).is_ok();
        }
        let Some(op) = Op::from_u8(frame.op) else {
            let payload = encode_error("unknown_op", &format!("unknown op byte {}", frame.op));
            return write_frame(stream, frame.request_id, frame.op, STATUS_ERROR, &payload).is_ok();
        };
        let result = self.dispatch(op, &frame.payload);
        let (status, payload) = match &result {
            Ok(payload) => (STATUS_OK, payload.clone()),
            Err((code, message)) => (STATUS_ERROR, encode_error(code, message)),
        };
        let wrote = write_frame(stream, frame.request_id, frame.op, status, &payload).is_ok();
        let _ = stream.flush();
        if op == Op::Shutdown && result.is_ok() {
            self.shutdown.store(true, Ordering::SeqCst);
            return false;
        }
        wrote
    }

    /// Execute one op against the local segment.
    fn dispatch(&self, op: Op, payload: &[u8]) -> Result<Vec<u8>, (String, String)> {
        match op {
            Op::Hello => self.op_hello(payload),
            Op::LeafCfs => self.op_leaf_cfs(payload),
            Op::ScoreTopK => self.op_score_topk(payload),
            Op::ResolvePhrase => self.op_resolve_phrase(payload),
            Op::DocLen => self.op_doc_len(payload),
            Op::Stats => self.op_stats(payload),
            Op::Shutdown => Ok(Vec::new()),
        }
    }

    fn op_hello(&self, payload: &[u8]) -> Result<Vec<u8>, (String, String)> {
        expect_empty(payload)?;
        let mut out = Vec::new();
        put_u64(&mut out, self.fingerprint);
        put_u32(&mut out, self.shard);
        put_u32(&mut out, self.engine.index().num_docs() as u32);
        put_u64(&mut out, self.engine.index().total_tokens());
        Ok(out)
    }

    /// Phase 1: this shard's per-leaf collection frequencies. Integer
    /// counts — the coordinator sums them across shards exactly.
    fn op_leaf_cfs(&self, payload: &[u8]) -> Result<Vec<u8>, (String, String)> {
        let mut r = PayloadReader::new(payload);
        let query = read_query(&mut r)?;
        r.finish().map_err(malformed)?;
        let cfs = ShardHandle::leaf_cfs(&*self.engine, &&query).map_err(refused("shard_error"))?;
        let mut out = Vec::new();
        put_u32(&mut out, cfs.len() as u32);
        for cf in cfs {
            put_u64(&mut out, cf);
        }
        Ok(out)
    }

    /// Phase 2: score this shard's candidates with the caller's global
    /// smoothing inputs.
    fn op_score_topk(&self, payload: &[u8]) -> Result<Vec<u8>, (String, String)> {
        let mut r = PayloadReader::new(payload);
        let query = read_query(&mut r)?;
        let k = r.u32().map_err(malformed)? as usize;
        let mode = match r.u8().map_err(malformed)? {
            0 => SearchMode::Exact,
            1 => SearchMode::Pruned,
            other => {
                return Err((
                    "bad_mode".to_string(),
                    format!("unknown search mode byte {other}"),
                ))
            }
        };
        let base = r.u32().map_err(malformed)?;
        let mu = f64::from_bits(r.u64().map_err(malformed)?);
        let epsilon = f64::from_bits(r.u64().map_err(malformed)?);
        let leaf_count = r.count(8).map_err(malformed)?;
        let mut probs = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            probs.push(f64::from_bits(r.u64().map_err(malformed)?));
        }
        r.finish().map_err(malformed)?;

        let engine = &*self.engine;
        let sorted = ShardHandle::score_topk(engine, &&query, k, mode, base, mu, epsilon, &probs)
            .map_err(refused("leaf_mismatch"))?;
        let mut out = Vec::new();
        put_u32(&mut out, sorted.len() as u32);
        for s in sorted {
            put_u32(&mut out, s.doc);
            put_u64(&mut out, s.score.to_bits());
        }
        Ok(out)
    }

    fn op_resolve_phrase(&self, payload: &[u8]) -> Result<Vec<u8>, (String, String)> {
        let mut r = PayloadReader::new(payload);
        // A string is at least its 4-byte length prefix.
        let count = r.count(4).map_err(malformed)?;
        let mut words = Vec::with_capacity(count);
        for _ in 0..count {
            words.push(r.string().map_err(malformed)?);
        }
        r.finish().map_err(malformed)?;
        let hits =
            ShardHandle::resolve_phrase(&*self.engine, &words).map_err(refused("shard_error"))?;
        let mut out = Vec::new();
        put_u32(&mut out, hits.len() as u32);
        for h in &hits {
            put_u32(&mut out, h.doc);
            put_u32(&mut out, h.tf);
        }
        Ok(out)
    }

    fn op_doc_len(&self, payload: &[u8]) -> Result<Vec<u8>, (String, String)> {
        let mut r = PayloadReader::new(payload);
        let doc = r.u32().map_err(malformed)?;
        r.finish().map_err(malformed)?;
        let len = ShardHandle::doc_len(&*self.engine, doc).map_err(refused("bad_doc"))?;
        let mut out = Vec::new();
        put_u32(&mut out, len);
        Ok(out)
    }

    fn op_stats(&self, payload: &[u8]) -> Result<Vec<u8>, (String, String)> {
        expect_empty(payload)?;
        let len = ShardHandle::phrase_cache_len(&*self.engine).map_err(refused("shard_error"))?;
        let mut out = Vec::new();
        put_u64(&mut out, len as u64);
        Ok(out)
    }
}

fn expect_empty(payload: &[u8]) -> Result<(), (String, String)> {
    PayloadReader::new(payload).finish().map_err(malformed)
}

fn malformed(e: ProtoError) -> (String, String) {
    ("malformed".to_string(), e.to_string())
}

/// An error frame for a request that decoded but that the segment
/// cannot answer (a doc id it does not hold, probabilities that do not
/// fit the query).
fn refused(code: &'static str) -> impl Fn(OndiskError) -> (String, String) {
    move |e| (code.to_string(), e.to_string())
}

/// Decode and parse the query string all search ops carry. The wire
/// form is `QueryNode`'s `Display`, which round-trips through `parse`
/// exactly (pinned in `query_lang`), so both ends flatten the same AST.
fn read_query(r: &mut PayloadReader<'_>) -> Result<crate::query_lang::QueryNode, (String, String)> {
    let text = r.string().map_err(malformed)?;
    parse(&text).map_err(|e| ("bad_query".to_string(), e.to_string()))
}

/// Announce the bound address on stdout (`qgx shard` prints this line;
/// the supervisor reads it to learn the ephemeral port).
pub fn announce(addr: &std::net::SocketAddr) {
    println!("QGRP listening {addr}");
    let _ = std::io::stdout().flush();
}

/// Parse the address out of an [`announce`] line.
pub fn parse_announce(line: &str) -> Option<String> {
    line.trim()
        .strip_prefix("QGRP listening ")
        .map(|s| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_line_round_trips() {
        let addr: std::net::SocketAddr = "127.0.0.1:4567".parse().unwrap();
        let line = format!("QGRP listening {addr}");
        assert_eq!(parse_announce(&line), Some("127.0.0.1:4567".to_string()));
        assert_eq!(parse_announce("something else"), None);
    }
}
