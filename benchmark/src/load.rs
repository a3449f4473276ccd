//! The load generator: closed-loop and open-loop windows over a fixed
//! set of keep-alive connections, with every response checked as it
//! arrives.
//!
//! `qgx serve` pins one connection to one worker until it closes, so
//! the generator never holds more connections than the server has
//! workers: the same [`Client`]s are reused by warm-up, every window,
//! and the `/statz` read at the end.

use crate::client::Client;
use crate::metrics::PhaseCount;
use crate::proc::check_interrupted;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What a client waits before giving a request up; also the latency a
/// failed request is charged. Twice the server's own 2 s deadline, so
/// the server's typed 408 always arrives first.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(4);

/// How responses are judged as they arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Status 200 and, per pool entry, the same bytes every time (the
    /// first body of each entry is kept for the oracle comparison).
    Stable,
    /// Status 200 and a JSON object that echoes an `/expand` response;
    /// bodies may change between requests (a new generation went live).
    WellFormed,
}

/// Requests and the verdicts on their responses, shared by all windows
/// of one server's life.
pub struct Traffic {
    /// The server address.
    pub addr: SocketAddr,
    /// One serialized request body per pool entry.
    pub bodies: Vec<String>,
    check: Check,
    first_body: Vec<OnceLock<Vec<u8>>>,
    /// Requests sent.
    pub attempted: AtomicU64,
    /// Requests that did not come back as a correct 200.
    pub failed: AtomicU64,
    /// Of the failed: 503 (shed at the edge).
    pub shed: AtomicU64,
    /// Of the failed: 408 (deadline).
    pub timeouts: AtomicU64,
    /// Of the failed: a 200 whose body was wrong for its check.
    pub mismatched: AtomicU64,
    /// `(phase, counters when it began)`, in order.
    marks: Mutex<Vec<(&'static str, [u64; 4])>>,
}

impl Traffic {
    /// Traffic for `addr` sending `bodies[i]` for pool entry `i`.
    pub fn new(addr: SocketAddr, bodies: Vec<String>, check: Check) -> Traffic {
        let first_body = bodies.iter().map(|_| OnceLock::new()).collect();
        Traffic {
            addr,
            bodies,
            check,
            first_body,
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            mismatched: AtomicU64::new(0),
            marks: Mutex::new(Vec::new()),
        }
    }

    fn counters(&self) -> [u64; 4] {
        [&self.attempted, &self.failed, &self.shed, &self.timeouts]
            .map(|counter| counter.load(Ordering::Relaxed))
    }

    /// Requests from now on count towards phase `name` (call between
    /// windows, never while requests are in flight).
    pub fn enter_phase(&self, name: &'static str) {
        let mark = (name, self.counters());
        self.marks.lock().expect("no holder panics").push(mark);
    }

    /// Requests per phase, phases in the order first entered; a phase
    /// entered several times (one window per round) is summed.
    pub fn phases(&self) -> Vec<PhaseCount> {
        let marks = self.marks.lock().expect("no holder panics");
        let ends = marks
            .iter()
            .skip(1)
            .map(|(_, at)| *at)
            .chain([self.counters()]);
        let mut phases: Vec<PhaseCount> = Vec::new();
        for ((name, from), to) in marks.iter().zip(ends) {
            let at = match phases.iter().position(|p| p.phase == *name) {
                Some(at) => at,
                None => {
                    phases.push(PhaseCount::new(name));
                    phases.len() - 1
                }
            };
            phases[at].attempted += to[0] - from[0];
            phases[at].failed += to[1] - from[1];
            phases[at].shed += to[2] - from[2];
            phases[at].timeouts += to[3] - from[3];
        }
        phases
    }

    /// `n` fresh clients for this server.
    pub fn clients(&self, n: usize) -> Vec<Client> {
        (0..n)
            .map(|_| Client::new(self.addr, CLIENT_TIMEOUT))
            .collect()
    }

    /// The first body received for pool entry `index`, if it was sent.
    pub fn first_body(&self, index: usize) -> Option<&[u8]> {
        self.first_body[index].get().map(Vec::as_slice)
    }

    /// Send pool entry `index` on `client`; returns whether it came
    /// back correct.
    pub fn send(&self, client: &mut Client, index: usize) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let ok = match client.post("/expand", &self.bodies[index]) {
            Ok(response) if response.status == 200 => {
                let ok = match self.check {
                    Check::Stable => {
                        self.first_body[index].get_or_init(|| response.body.clone())
                            == &response.body
                    }
                    Check::WellFormed => {
                        response.body.starts_with(b"{\"query\":") && response.body.ends_with(b"}\n")
                    }
                };
                if !ok {
                    self.mismatched.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
            Ok(response) => {
                match response.status {
                    503 => self.shed.fetch_add(1, Ordering::Relaxed),
                    408 => self.timeouts.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
                false
            }
            Err(_) => false,
        };
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
}

/// One closed-loop window's outcome.
#[derive(Debug, Clone, Default)]
pub struct ClosedWindow {
    /// Requests completed correctly.
    pub completed: u64,
    /// Window wall clock, seconds.
    pub seconds: f64,
}

impl ClosedWindow {
    /// Correct completions per second.
    pub fn qps(&self) -> f64 {
        self.completed as f64 / self.seconds.max(1e-9)
    }
}

/// Closed loop: every client sends its next request as soon as the
/// previous one returns, drawing pool entries from `sequence` through
/// the shared `cursor`, until `duration` has passed.
pub fn closed_window(
    traffic: &Traffic,
    clients: &mut [Client],
    sequence: &[usize],
    cursor: &AtomicUsize,
    duration: Duration,
) -> Result<ClosedWindow, String> {
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let completed = &completed;
            scope.spawn(move || {
                while start.elapsed() < duration && check_interrupted().is_ok() {
                    let at = cursor.fetch_add(1, Ordering::Relaxed) % sequence.len();
                    if traffic.send(client, sequence[at]) {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    check_interrupted()?;
    Ok(ClosedWindow {
        completed: completed.load(Ordering::Relaxed),
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// One closed-loop pass over `order`, each entry exactly once (the
/// warm-up). Returns the wall clock in seconds.
pub fn closed_pass(
    traffic: &Traffic,
    clients: &mut [Client],
    order: &[usize],
) -> Result<f64, String> {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let cursor = &cursor;
            scope.spawn(move || {
                while check_interrupted().is_ok() {
                    let Some(&index) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    traffic.send(client, index);
                }
            });
        }
    });
    check_interrupted()?;
    Ok(start.elapsed().as_secs_f64())
}

/// One open-loop window's outcome; per-request vectors are in schedule
/// order.
#[derive(Debug, Clone, Default)]
pub struct OpenWindow {
    /// Per request: microseconds from its **scheduled** arrival to its
    /// response (the client timeout for a failed one).
    pub latency_us: Vec<f64>,
    /// Per request: microseconds from its scheduled arrival to the
    /// moment it was actually written — how late the generator ran.
    pub lag_us: Vec<f64>,
    /// Requests that failed.
    pub failed: u64,
}

/// Open loop: requests fire on `plan`'s schedule whether or not earlier
/// ones have returned (up to one in flight per client). Stops early,
/// between requests, once `stop` is set.
pub fn open_window(
    traffic: &Traffic,
    clients: &mut [Client],
    plan: &[(u64, usize)],
    stop: Option<&AtomicBool>,
) -> Result<OpenWindow, String> {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    // (scheduled µs, latency µs, lag µs, failed) per request.
    let mut samples: Vec<(u64, f64, f64, bool)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while check_interrupted().is_ok()
                        && !stop.is_some_and(|s| s.load(Ordering::SeqCst))
                    {
                        let Some(&(at_us, index)) =
                            plan.get(cursor.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        let scheduled = Duration::from_micros(at_us);
                        let now = start.elapsed();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let sent = start.elapsed();
                        let ok = traffic.send(client, index);
                        let done = start.elapsed();
                        let since = |t: Duration| t.saturating_sub(scheduled).as_secs_f64() * 1e6;
                        let latency = if ok {
                            since(done)
                        } else {
                            CLIENT_TIMEOUT.as_secs_f64() * 1e6
                        };
                        out.push((at_us, latency, since(sent), !ok));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("load thread panicked"));
        }
    });
    samples.sort_by_key(|sample| sample.0);
    let window = OpenWindow {
        latency_us: samples.iter().map(|s| s.1).collect(),
        lag_us: samples.iter().map(|s| s.2).collect(),
        failed: samples.iter().filter(|s| s.3).count() as u64,
    };
    check_interrupted()?;
    Ok(window)
}
