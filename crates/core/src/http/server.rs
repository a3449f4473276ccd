//! The HTTP/1.1 server: accept loop, bounded queue, worker pool.
//!
//! One thread accepts; a fixed pool of workers drains a bounded
//! connection queue. Admission control happens **at the edge**: a full
//! queue sheds the connection immediately with a 503 + `Retry-After`
//! instead of letting it queue unboundedly, and a request's
//! [`Deadline`] starts at *accept*, so time spent waiting for a worker
//! counts against the budget and a request that aged out in the queue
//! is refused (408) rather than served late.
//!
//! Reads are deadline-bounded in short slices (≤100 ms per `read`), so
//! a slowloris client trickling header bytes ties up a worker for at
//! most one deadline budget, and a drain request (SIGTERM) is noticed
//! within ~100 ms even by workers parked on idle keep-alive
//! connections.

use super::parser::{self, HttpLimits, ParseError, RequestHead};
use super::{expand_error_body, protocol_error_body, status_for};
use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::service::{Deadline, ExpansionRequest, QueryExpander, ServiceError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock a queue mutex, recovering from poison. A worker that panicked
/// while holding it leaves the queue state at worst one connection
/// short — never structurally corrupt — so serving must continue
/// instead of cascading the panic into every worker that touches the
/// same mutex afterwards. (Stats need no recovery: every counter,
/// per-code tally, and latency histogram is lock-free.)
fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The closed universe of wire codes the serving path can count: every
/// [`ServiceError::code`], every [`ParseError::code`], and the
/// server-local rejections minted in this module. Listing them lets
/// the per-code failure counters be a fixed array of `AtomicU64`s —
/// bumped lock-free on the hot path — instead of a mutex-guarded map;
/// a tripwire test pins the list against both `CODES` constants, so a
/// new error variant cannot silently lose its counter.
const WIRE_CODES: [&str; 24] = [
    // ServiceError::CODES (typed /expand failures).
    "empty_query",
    "no_linked_entities",
    "no_engine",
    "artifact_missing",
    "artifact_load",
    "artifact_shard",
    "artifact_fingerprint",
    "artifact_stale",
    "timeout",
    "overloaded",
    // ParseError::CODES (protocol rejections).
    "request_line_too_long",
    "head_too_large",
    "too_many_headers",
    "malformed_request_line",
    "unsupported_version",
    "malformed_header",
    "bad_content_length",
    "body_too_large",
    "unsupported_transfer_encoding",
    "length_required",
    // Server-local codes (router + body decoding + serialization).
    "bad_request",
    "internal",
    "method_not_allowed",
    "not_found",
];

/// Lock-free per-code failure tallies over [`WIRE_CODES`].
struct CodeCounters {
    counts: [AtomicU64; WIRE_CODES.len()],
}

impl Default for CodeCounters {
    fn default() -> CodeCounters {
        CodeCounters {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for CodeCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.nonzero()).finish()
    }
}

impl CodeCounters {
    fn bump(&self, code: &str) {
        match WIRE_CODES.iter().position(|&c| c == code) {
            Some(i) => {
                self.counts[i].fetch_add(1, Ordering::Relaxed);
            }
            None => debug_assert!(false, "wire code {code:?} missing from WIRE_CODES"),
        }
    }

    fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        WIRE_CODES
            .iter()
            .zip(self.counts.iter())
            .filter_map(|(&code, n)| {
                let n = n.load(Ordering::Relaxed);
                (n > 0).then_some((code, n))
            })
    }
}

/// Everything the server needs to know before binding.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port; see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Worker threads draining the connection queue.
    pub workers: usize,
    /// Connections allowed to wait for a worker; one more is shed.
    pub queue_depth: usize,
    /// Per-request deadline, measured from **accept** for the first
    /// request on a connection (queue wait counts) and from read start
    /// for keep-alive follow-ups.
    pub deadline: Duration,
    /// Requests served per connection before it is closed (keep-alive
    /// recycling bound; 1 disables keep-alive).
    pub keep_alive_requests: usize,
    /// Protocol buffering ceilings.
    pub limits: HttpLimits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 128,
            deadline: Duration::from_secs(2),
            keep_alive_requests: 100,
            limits: HttpLimits::default(),
        }
    }
}

/// Live serving counters, shared between workers and observers.
/// Everything is monotonic and **lock-free**: scalar counters and the
/// per-code tallies are atomics, and the latency distributions are
/// log-bucketed `LatencyHistogram`s (constant memory over any run
/// length, one relaxed `fetch_add` per sample) — so concurrent workers
/// never serialize on a stats mutex and [`ServerStats::snapshot`] is
/// safe to call from any thread at any time (the `/statz` endpoint
/// does).
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    queries_served: AtomicU64,
    failures: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    bad_requests: AtomicU64,
    error_codes: CodeCounters,
    request_us: LatencyHistogram,
    connection_us: LatencyHistogram,
}

/// What `/statz` serves: the server's counters and latency
/// percentiles, readable while it runs (and printed once more when
/// `qgx serve` drains).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatzSnapshot {
    /// Connections accepted (shed ones included — they were accepted,
    /// then refused).
    pub connections: u64,
    /// `/expand` requests answered successfully.
    pub queries_served: u64,
    /// `/expand` requests answered with a typed `ServiceError`
    /// (timeouts included, shed connections not — those never reached
    /// a worker).
    pub failures: u64,
    /// Connections refused at the edge with 503 (queue full).
    pub shed: u64,
    /// Requests refused with 408 (deadline exceeded — queued too long,
    /// read too slowly, or computed too late).
    pub timeouts: u64,
    /// Protocol-level rejections (malformed heads, oversized bodies…).
    pub(crate) bad_requests: u64,
    /// Typed failures by wire code (`ServiceError::code` and
    /// `ParseError::code` values share this namespace).
    pub error_codes: BTreeMap<String, u64>,
    /// Median `/expand` service time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile `/expand` service time, microseconds.
    pub p99_us: f64,
    /// 99th-percentile connection lifetime, microseconds.
    pub conn_p99_us: f64,
}

impl ServerStats {
    fn bump_code(&self, code: &str) {
        self.error_codes.bump(code);
    }

    fn record_service_error(&self, error: &ServiceError) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        if matches!(error, ServiceError::Timeout { .. }) {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        self.bump_code(error.code());
    }

    fn record_protocol_error(&self, error: &ParseError) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
        self.bump_code(error.code());
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Successful `/expand` responses so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Typed-error `/expand` responses so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Connections shed at the edge so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests refused for exceeding their deadline so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Typed failures by wire code, copied out (codes never bumped are
    /// absent — exactly the map the old mutex-guarded implementation
    /// accumulated, so the `/statz` wire format is unchanged).
    pub(crate) fn error_codes(&self) -> BTreeMap<String, u64> {
        self.error_codes
            .nonzero()
            .map(|(code, n)| (code.to_string(), n))
            .collect()
    }

    /// The `/expand` service-time distribution (µs), copied out.
    pub fn request_latency(&self) -> HistogramSnapshot {
        self.request_us.snapshot()
    }

    /// A consistent-enough copy of all counters for `/statz`.
    pub fn snapshot(&self) -> StatzSnapshot {
        let request = self.request_us.snapshot();
        let connection = self.connection_us.snapshot();
        StatzSnapshot {
            connections: self.connections(),
            queries_served: self.queries_served(),
            failures: self.failures(),
            shed: self.shed(),
            timeouts: self.timeouts(),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            error_codes: self.error_codes(),
            p50_us: request.percentile_us(50.0),
            p99_us: request.percentile_us(99.0),
            conn_p99_us: connection.percentile_us(99.0),
        }
    }
}

/// The bounded handoff between the accept loop and the workers.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    conns: VecDeque<(TcpStream, Instant)>,
    draining: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue, or hand the connection back with the depth that caused
    /// the shed (the caller answers 503 on it).
    fn push(&self, conn: TcpStream, accepted: Instant) -> Result<(), (TcpStream, usize)> {
        let mut state = lock_recovered(&self.state);
        if state.conns.len() >= self.capacity {
            let depth = state.conns.len();
            return Err((conn, depth));
        }
        state.conns.push_back((conn, accepted));
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` means the server is draining and empty —
    /// the worker should exit.
    fn pop(&self) -> Option<(TcpStream, Instant)> {
        let mut state = lock_recovered(&self.state);
        loop {
            if let Some(conn) = state.conns.pop_front() {
                return Some(conn);
            }
            if state.draining {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop blocking pops once the queue empties; wake every worker.
    fn begin_drain(&self) {
        lock_recovered(&self.state).draining = true;
        self.ready.notify_all();
    }

    fn draining(&self) -> bool {
        lock_recovered(&self.state).draining
    }
}

/// Per-worker reusable buffers. Each worker thread owns exactly one,
/// created once at spawn and threaded through every connection it
/// serves, so steady-state serving performs near-zero allocation per
/// request: request bytes accumulate in `read`, the response is staged
/// in [`ResponseScratch`], and all three buffers keep their capacity
/// across requests.
#[derive(Default)]
struct WorkerScratch {
    /// Buffered request bytes for the connection being served
    /// (head + body + any pipelined follow-up bytes).
    read: Vec<u8>,
    /// Response staging buffers.
    response: ResponseScratch,
}

/// The two response buffers: the JSON body is serialized into `body`,
/// then head + body are assembled in `wire` and written with a single
/// `write_all` — same bytes on the socket as the old two-write path,
/// but no per-response `String`/`Vec` allocations.
#[derive(Default)]
struct ResponseScratch {
    /// The response body being staged (gains the trailing newline for
    /// JSON responses).
    body: String,
    /// The full wire image of the response (status line, headers,
    /// body).
    wire: Vec<u8>,
}

/// The bound server: call [`HttpServer::serve`] to run it.
pub struct HttpServer {
    listener: TcpListener,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
}

impl HttpServer {
    /// Bind `config.addr`. The listener is live (a client can connect)
    /// but nothing is served until [`HttpServer::serve`] runs.
    pub fn bind(config: ServerConfig) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(HttpServer {
            listener,
            config,
            stats: Arc::new(ServerStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actual bound address (resolves a `:0` port request).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The live counters, shared; readable during and after `serve`.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Setting this flag makes [`HttpServer::serve`] stop accepting,
    /// drain queued and in-flight connections, and return. Signal
    /// handlers and tests share the same mechanism.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until the shutdown flag is set, then drain and return.
    ///
    /// Blocks the calling thread (it becomes the accept loop); spawns
    /// `config.workers` scoped workers that borrow `expander`.
    pub fn serve(&self, expander: &QueryExpander<'_>) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let queue = ConnQueue::new(self.config.queue_depth);
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                let queue = &queue;
                scope.spawn(move || {
                    let mut scratch = WorkerScratch::default();
                    while let Some((stream, accepted)) = queue.pop() {
                        self.handle_connection(stream, accepted, expander, queue, &mut scratch);
                    }
                });
            }
            while !self.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        self.stats.connections.fetch_add(1, Ordering::Relaxed);
                        // Accepted sockets must not inherit the
                        // listener's nonblocking mode.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let accepted = Instant::now();
                        if let Err((mut stream, depth)) = queue.push(stream, accepted) {
                            self.stats.shed.fetch_add(1, Ordering::Relaxed);
                            self.stats.bump_code("overloaded");
                            shed_connection(&mut stream, depth, self.config.deadline);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Transient accept failure (EMFILE etc.);
                        // back off instead of spinning.
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            queue.begin_drain();
        });
        Ok(())
    }

    /// Serve one connection: up to `keep_alive_requests` exchanges,
    /// each under its own deadline.
    fn handle_connection(
        &self,
        mut stream: TcpStream,
        accepted: Instant,
        expander: &QueryExpander<'_>,
        queue: &ConnQueue,
        scratch: &mut WorkerScratch,
    ) {
        let _ = stream.set_nodelay(true);
        let conn_start = accepted;
        // Split the scratch so the read buffer and the response
        // buffers can be borrowed independently below.
        let WorkerScratch {
            read: buf,
            response,
        } = scratch;
        buf.clear();
        for exchange in 0..self.config.keep_alive_requests.max(1) {
            // The first request's clock started at accept (queue wait
            // counts); keep-alive follow-ups get a fresh budget.
            let deadline = if exchange == 0 {
                Deadline::starting_at(accepted, self.config.deadline)
            } else {
                Deadline::after(self.config.deadline)
            };
            if exchange == 0 && deadline.expired() {
                // The connection aged out waiting for a worker: an
                // admission refusal (typed 408), not an idle peer —
                // the silent close is only for connections a worker
                // picked up promptly and that never spoke.
                self.refuse(&mut stream, Stop::TimedOut, &deadline, response);
                break;
            }
            let head = match self.read_head(&mut stream, buf, &deadline, queue) {
                Ok(head) => head,
                Err(stop) => {
                    self.refuse(&mut stream, stop, &deadline, response);
                    break;
                }
            };
            let body_len = match self.read_body(&mut stream, buf, &head, &deadline) {
                Ok(body_len) => body_len,
                Err(stop) => {
                    self.refuse(&mut stream, stop, &deadline, response);
                    break;
                }
            };
            // Decide keep-alive only once the request is fully read: a
            // drain that began while the body trickled in must
            // advertise `Connection: close`.
            let keep_alive = head.keep_alive()
                && exchange + 1 < self.config.keep_alive_requests
                && !queue.draining();
            let consumed = head.head_len + body_len;
            let ok = self.handle_request(
                &mut stream,
                &head,
                &buf[head.head_len..consumed],
                expander,
                &deadline,
                keep_alive,
                response,
            );
            // Drop the exchange's bytes; pipelined bytes of the next
            // request stay buffered.
            buf.drain(..consumed);
            if ok.is_err() || !keep_alive {
                break;
            }
        }
        graceful_close(&mut stream, Duration::from_millis(100));
        self.stats
            .connection_us
            .record(conn_start.elapsed().as_secs_f64() * 1e6);
    }

    /// Read until a complete head is buffered, in ≤100 ms slices so
    /// drain requests are noticed and slow writers hit the deadline.
    fn read_head(
        &self,
        stream: &mut TcpStream,
        buf: &mut Vec<u8>,
        deadline: &Deadline,
        queue: &ConnQueue,
    ) -> Result<RequestHead, Stop> {
        let mut tmp = [0u8; 4096];
        loop {
            match parser::parse_head(buf, &self.config.limits) {
                Ok(Some(head)) => return Ok(head),
                Ok(None) => {}
                Err(e) => return Err(Stop::Protocol(e)),
            }
            if deadline.expired() {
                // Zero buffered bytes is an *idle* keep-alive peer —
                // close silently; partial bytes are a timed-out (or
                // deliberately slow) request and get the typed 408.
                return Err(if buf.is_empty() {
                    Stop::Closed
                } else {
                    Stop::TimedOut
                });
            }
            if buf.is_empty() && queue.draining() {
                // Draining and no request in flight: close now.
                return Err(Stop::Closed);
            }
            match read_slice(stream, &mut tmp, deadline) {
                SliceStep::Data(n) => buf.extend_from_slice(&tmp[..n]),
                SliceStep::Closed => return Err(Stop::Closed),
                SliceStep::TimedOutSlice => {}
            }
        }
    }

    /// Read the declared body; on success the body sits in `buf` right
    /// after the head and its length is returned (no copy — the caller
    /// slices `buf`).
    fn read_body(
        &self,
        stream: &mut TcpStream,
        buf: &mut Vec<u8>,
        head: &RequestHead,
        deadline: &Deadline,
    ) -> Result<usize, Stop> {
        let length = head
            .content_length(&self.config.limits)
            .map_err(Stop::Protocol)?;
        if length == 0 && head.method == "POST" && head.header("content-length").is_none() {
            return Err(Stop::Protocol(ParseError::LengthRequired));
        }
        let want = head.head_len + length;
        let mut tmp = [0u8; 4096];
        while buf.len() < want {
            if deadline.expired() {
                return Err(Stop::TimedOut);
            }
            match read_slice(stream, &mut tmp, deadline) {
                SliceStep::Data(n) => buf.extend_from_slice(&tmp[..n]),
                SliceStep::Closed => return Err(Stop::Closed),
                SliceStep::TimedOutSlice => {}
            }
        }
        Ok(length)
    }

    /// End an exchange that stopped before its request was read: a
    /// closed or idle peer gets nothing; a timed-out request its typed
    /// 408; a malformed one its typed protocol error. Either reply
    /// closes the connection.
    fn refuse(
        &self,
        stream: &mut TcpStream,
        stop: Stop,
        deadline: &Deadline,
        rs: &mut ResponseScratch,
    ) {
        let (status, body, retry) = match stop {
            Stop::Closed => return,
            Stop::TimedOut => {
                let timeout = deadline.timeout_error();
                self.stats.record_service_error(&timeout);
                let body = protocol_error_body("timeout", &timeout.to_string());
                (408, body, timeout.retry_after_seconds())
            }
            Stop::Protocol(e) => {
                self.stats.record_protocol_error(&e);
                (
                    e.status(),
                    protocol_error_body(e.code(), &e.to_string()),
                    None,
                )
            }
        };
        let _ = self.respond(stream, status, &body, false, retry, deadline, rs);
    }

    /// Route one parsed request and write its response.
    #[allow(clippy::too_many_arguments)]
    fn handle_request(
        &self,
        stream: &mut TcpStream,
        head: &RequestHead,
        body: &[u8],
        expander: &QueryExpander<'_>,
        deadline: &Deadline,
        keep_alive: bool,
        rs: &mut ResponseScratch,
    ) -> std::io::Result<()> {
        let path = head.target.split('?').next().unwrap_or("");
        match (head.method.as_str(), path) {
            ("POST", "/expand") => {
                let t0 = Instant::now();
                let text = match std::str::from_utf8(body) {
                    Ok(text) => text,
                    Err(_) => {
                        self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                        self.stats.bump_code("bad_request");
                        let body = protocol_error_body("bad_request", "body is not UTF-8");
                        return self.respond(stream, 400, &body, keep_alive, None, deadline, rs);
                    }
                };
                let request: ExpansionRequest = match serde_json::from_str(text) {
                    Ok(request) => request,
                    Err(e) => {
                        self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                        self.stats.bump_code("bad_request");
                        let body =
                            protocol_error_body("bad_request", &format!("bad request JSON: {e}"));
                        return self.respond(stream, 400, &body, keep_alive, None, deadline, rs);
                    }
                };
                match expander.expand_deadlined(&request, *deadline) {
                    // Serialize before counting the query as served: a
                    // response that cannot serialize is a server bug,
                    // but it must cost one typed 500, not the worker.
                    Ok(response) => {
                        rs.body.clear();
                        match serde_json::to_string_into(&response, &mut rs.body) {
                            Ok(()) => {
                                self.stats.queries_served.fetch_add(1, Ordering::Relaxed);
                                self.stats
                                    .request_us
                                    .record(t0.elapsed().as_secs_f64() * 1e6);
                                self.respond_staged(stream, 200, keep_alive, None, deadline, rs)
                            }
                            Err(e) => {
                                self.stats.failures.fetch_add(1, Ordering::Relaxed);
                                self.stats.bump_code("internal");
                                let body = protocol_error_body(
                                    "internal",
                                    &format!("response serialization failed: {e}"),
                                );
                                self.respond(stream, 500, &body, keep_alive, None, deadline, rs)
                            }
                        }
                    }
                    Err(error) => {
                        self.stats.record_service_error(&error);
                        let status = status_for(&error);
                        // The typed error owns its back-off hint: 408
                        // and 503 advertise different Retry-After
                        // values (see ServiceError::retry_after_seconds).
                        let retry = error.retry_after_seconds();
                        let body = expand_error_body(&request.text, &error);
                        // A timed-out request gets its typed answer,
                        // then the connection closes: its read cursor
                        // can no longer be trusted.
                        let keep = keep_alive && status != 408;
                        self.respond(stream, status, &body, keep, retry, deadline, rs)
                    }
                }
            }
            ("GET", "/healthz") => write_http_response(
                stream,
                200,
                "text/plain",
                b"ok\n",
                keep_alive,
                None,
                deadline,
                &mut rs.wire,
            ),
            ("GET", "/statz") => {
                rs.body.clear();
                match serde_json::to_string_into(&self.stats.snapshot(), &mut rs.body) {
                    Ok(()) => self.respond_staged(stream, 200, keep_alive, None, deadline, rs),
                    Err(e) => {
                        self.stats.bump_code("internal");
                        let body = protocol_error_body(
                            "internal",
                            &format!("statz serialization failed: {e}"),
                        );
                        self.respond(stream, 500, &body, keep_alive, None, deadline, rs)
                    }
                }
            }
            (_, "/expand") | (_, "/healthz") | (_, "/statz") => {
                self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                self.stats.bump_code("method_not_allowed");
                let body = protocol_error_body(
                    "method_not_allowed",
                    &format!("{} is not served on {path}", head.method),
                );
                self.respond(stream, 405, &body, keep_alive, None, deadline, rs)
            }
            _ => {
                self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                self.stats.bump_code("not_found");
                let body = protocol_error_body("not_found", &format!("no endpoint at {path}"));
                self.respond(stream, 404, &body, keep_alive, None, deadline, rs)
            }
        }
    }

    /// Stage `body` in the scratch and write it as a JSON response.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        stream: &mut TcpStream,
        status: u16,
        body: &str,
        keep_alive: bool,
        retry_after: Option<u32>,
        deadline: &Deadline,
        rs: &mut ResponseScratch,
    ) -> std::io::Result<()> {
        rs.body.clear();
        rs.body.push_str(body);
        self.respond_staged(stream, status, keep_alive, retry_after, deadline, rs)
    }

    /// Write the JSON response already staged in `rs.body` (it gains a
    /// trailing newline so socket payloads are byte-identical to
    /// `qgx replay --json` lines).
    fn respond_staged(
        &self,
        stream: &mut TcpStream,
        status: u16,
        keep_alive: bool,
        retry_after: Option<u32>,
        deadline: &Deadline,
        rs: &mut ResponseScratch,
    ) -> std::io::Result<()> {
        rs.body.push('\n');
        write_http_response(
            stream,
            status,
            "application/json",
            rs.body.as_bytes(),
            keep_alive,
            retry_after,
            deadline,
            &mut rs.wire,
        )
    }
}

/// Outcome of one bounded read slice.
enum SliceStep {
    Data(usize),
    /// End of stream, or a read error: either way the peer is gone.
    Closed,
    TimedOutSlice,
}

/// One deadline-bounded read of at most 100 ms, so callers can
/// re-check the deadline and the drain flag between slices.
fn read_slice(stream: &mut TcpStream, tmp: &mut [u8], deadline: &Deadline) -> SliceStep {
    let slice = deadline
        .remaining()
        .min(Duration::from_millis(100))
        .max(Duration::from_millis(1));
    if stream.set_read_timeout(Some(slice)).is_err() {
        return SliceStep::Closed;
    }
    match stream.read(tmp) {
        Ok(0) => SliceStep::Closed,
        Ok(n) => SliceStep::Data(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            SliceStep::TimedOutSlice
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => SliceStep::TimedOutSlice,
        Err(_) => SliceStep::Closed,
    }
}

/// Why an exchange ends before its request is fully read.
enum Stop {
    /// The peer closed, went idle, or the server is draining.
    Closed,
    /// The request's deadline ran out mid-read.
    TimedOut,
    /// The request is malformed.
    Protocol(ParseError),
}

/// The reason phrase for every status this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// Serialize and send one response. The full wire image (status line,
/// headers, body) is assembled in `out` — a reusable per-worker buffer
/// — and written with a single `write_all`, so the bytes on the socket
/// are unchanged but the syscall count and per-response allocations
/// drop. Write timeout is the deadline remainder (at least 100 ms), so
/// an unread response cannot park a worker forever.
#[allow(clippy::too_many_arguments)]
pub(super) fn write_http_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<u32>,
    deadline: &Deadline,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    out.clear();
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    if let Some(seconds) = retry_after {
        write!(out, "Retry-After: {seconds}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    let timeout = deadline.remaining().max(Duration::from_millis(100));
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(out)?;
    stream.flush()
}

/// Best-effort graceful close: FIN our side, then briefly read and
/// discard whatever the peer still has in flight. Dropping a socket
/// with unread received bytes makes the kernel answer with RST, which
/// can discard the response we just wrote — a shed client would see
/// "connection reset" instead of its clean 503. The drain is bounded
/// by `grace` and a byte cap, so a hostile trickler cannot hold the
/// thread past it.
fn graceful_close(stream: &mut TcpStream, grace: Duration) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let t0 = Instant::now();
    let mut tmp = [0u8; 4096];
    let mut drained = 0usize;
    while t0.elapsed() < grace && drained < 256 * 1024 {
        let left = grace
            .saturating_sub(t0.elapsed())
            .max(Duration::from_millis(1));
        if stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => drained += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Shed one connection at the edge: best-effort 503, then a graceful
/// close (short grace — this runs on the accept thread).
pub(super) fn shed_connection(stream: &mut TcpStream, queue_depth: usize, deadline: Duration) {
    let error = ServiceError::Overloaded { queue_depth };
    let mut body = protocol_error_body(error.code(), &error.to_string());
    body.push('\n');
    let d = Deadline::after(deadline.min(Duration::from_millis(200)));
    // Cold path (runs on the accept thread): a throwaway wire buffer
    // is fine here.
    let _ = write_http_response(
        stream,
        503,
        "application/json",
        body.as_bytes(),
        false,
        error.retry_after_seconds(),
        &d,
        &mut Vec::new(),
    );
    graceful_close(stream, Duration::from_millis(50));
}
