//! The traced run: per-layer metrics taken from outside, by timing
//! calls into each crate's public functions.
//!
//! A span — name, start, end, parent, request — is recorded around
//! every call; spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends. The
//! program has no spans of its own yet, so one request's layers cannot
//! be timed *inside* `QueryExpander::expand`: each request is replayed
//! layer by layer first (link → strategy → query build → search), then
//! served whole, and the layer spans name the whole-request span as
//! their parent. A span's self time is its duration minus its
//! children's durations.

use crate::client::Client;
use crate::json;
use crate::load::{Traffic, CLIENT_TIMEOUT};
use crate::metrics::{Metric, Report};
use crate::oracle::{self, Knobs, Tier};
use crate::plan::{Mix, MixSampler};
use crate::stats::median;
use crate::workloads::{Env, Serving, TRACED_REQUESTS};
use querygraph_core::cache::config_fingerprint;
use querygraph_core::expansion::{
    expanded_titles, CycleExpander, CycleExpanderConfig, DirectLinkExpander, Expander,
};
use querygraph_core::http::parser::{parse_head, HttpLimits};
use querygraph_core::service::ServingWorld;
use querygraph_core::ExpansionCache;
use querygraph_corpus::ingest::{DumpStream, DumpWriter};
use querygraph_graph::cycles::CycleFinder;
use querygraph_graph::subgraph::induce;
use querygraph_graph::traversal::ball;
use querygraph_retrieval::backend::ReloadableEngine;
use querygraph_retrieval::index::epsilon_for;
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::ondisk::{load_index, save_index};
use querygraph_retrieval::segstore::{self, segment_fp};
use querygraph_retrieval::{
    AnyEngine, ArtifactSource, IndexBuilder, QueryNode, RemoteEngine, RemoteShard,
    RetrievalBackend, SearchMode, SegStore, ShardServer, ShardedEngine,
};
use querygraph_wiki::synth::SynthWiki;
use querygraph_wiki::KnowledgeBase;
use serde::Value;
use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Requests re-run with recording off and on to price the recording.
const OVERHEAD_REQUESTS: usize = 64;
/// Documents the in-process ingest probe of the track tier streams.
const TRACK_PROBE_DOCS: usize = 60_000;

/// Span id handed out while recording is off.
const OFF: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<u32>,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; with `enabled` false every call is a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Declare a span to be timed later (so children can name a parent
    /// that runs after them).
    fn declare(&mut self, name: &'static str, parent: Option<u32>, request: usize) -> u32 {
        if !self.enabled {
            return OFF;
        }
        self.spans.push(Span {
            name,
            parent: parent.filter(|&p| p != OFF),
            request: request as u32,
            start_ns: 0,
            end_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as declared span `id`.
    fn run<T>(&mut self, id: u32, f: impl FnOnce() -> T) -> T {
        if id == OFF {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        let span = &mut self.spans[id as usize];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        out
    }

    /// Declare and time `f` in one step.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let id = self.declare(name, parent, request);
        (id, self.run(id, f))
    }

    /// Name span `id` after the fact (a cache lookup is a hit or a miss
    /// only once it has run).
    fn rename(&mut self, id: u32, name: &'static str) {
        if id != OFF {
            self.spans[id as usize].name = name;
        }
    }

    /// Append a span of `seconds` that the program timed itself,
    /// starting where the previous span ended.
    fn reported(&mut self, name: &'static str, seconds: f64) {
        let start_ns = self.spans.last().map_or(0, |s| s.end_ns);
        self.spans.push(Span {
            name,
            parent: None,
            request: 0,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
        });
    }

    /// Durations of every span called `name`, microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total seconds under spans called `name`.
    fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Per span called `name`: `(duration, children's durations summed)`
    /// in microseconds.
    fn with_children_us(&self, name: &str) -> Vec<(f64, f64)> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += (s.end_ns - s.start_ns) as f64 / 1e3;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| ((s.end_ns - s.start_ns) as f64 / 1e3, covered[i]))
            .collect()
    }

    /// Self time per span name, seconds, largest first.
    fn self_time_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered[i]) as f64 / 1e9;
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot.1 += own,
                None => totals.push((s.name, own)),
            }
        }
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        totals
    }

    /// Write the spans as JSON lines.
    fn write(&self, path: &Path) -> Result<(), String> {
        let failed = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(failed)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(failed)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )
            .map_err(failed)?;
        }
        out.flush().map_err(failed)
    }
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Record the p50 of span `span` as metric `metric`.
fn set_p50(report: &mut Report, tracer: &Tracer, metric: &str, span: &str) {
    let durations = tracer.durations_us(span);
    if !durations.is_empty() {
        report.set(
            metric,
            Metric::single(p50(&durations), durations.len() as u64),
        );
    }
}

/// Finish a traced run: write the span file and note the layers with
/// the most self time.
fn finish(env: &Env, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let path = env.out_dir.join(format!("trace-{}.jsonl", report.workload));
    tracer.write(&path)?;
    let top: Vec<String> = tracer
        .self_time_by_name()
        .iter()
        // The whole-request span's self time is what its layers left
        // uncovered; it is reported as core.service.self_us instead.
        .filter(|(name, _)| *name != "core.service.expand")
        .take(3)
        .map(|(name, s)| format!("{name} {s:.3}s"))
        .collect();
    report.notes.push(format!(
        "{} spans in {}; most self time: {}",
        tracer.spans.len(),
        path.display(),
        top.join(", ")
    ));
    Ok(())
}

/// Server-side and socket-level figures, read from the live server
/// after the rounds: `/statz`, a kept-alive cache-hit round trip, a
/// fresh-connection round trip, and the head parser alone.
pub fn http_probes(
    report: &mut Report,
    traffic: &Traffic,
    clients: &mut [Client],
    cached: bool,
) -> Result<(), String> {
    let client = &mut clients[0];
    let statz = client.get("/statz").map_err(|e| format!("statz: {e}"))?;
    let statz: Value = serde_json::from_str(&String::from_utf8_lossy(&statz.body))
        .map_err(|e| format!("statz body: {e:?}"))?;
    let served = json::number(&statz, "queries_served").unwrap_or(0.0) as u64;
    for (metric, field) in [
        ("core.http.server_p50_us", "p50_us"),
        ("core.http.server_p99_us", "p99_us"),
        ("core.http.connections", "connections"),
        ("core.http.shed", "shed"),
        ("core.http.timeouts", "timeouts"),
    ] {
        let value = json::number(&statz, field).ok_or_else(|| format!("statz lacks {field}"))?;
        report.set(metric, Metric::single(value, served));
    }
    if cached {
        // The same query back to back: the first call may miss, every
        // later one rides parse → cache probe → write.
        let body = &traffic.bodies[0];
        let mut times = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            let response = client
                .post("/expand", body)
                .map_err(|e| format!("hit probe: {e}"))?;
            times.push(t.elapsed().as_secs_f64() * 1e6);
            if response.status != 200 {
                return Err(format!("hit probe answered {}", response.status));
            }
        }
        report.set(
            "core.http.hit_roundtrip_us",
            Metric::single(p50(&times[1..]), times.len() as u64 - 1),
        );
    }
    // Free both workers first: an open connection pins one.
    for client in clients.iter_mut() {
        client.close();
    }
    let mut times = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let response = Client::new(traffic.addr, CLIENT_TIMEOUT)
            .get("/healthz")
            .map_err(|e| format!("fresh-connection probe: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
        if response.status != 200 {
            return Err(format!("healthz answered {}", response.status));
        }
    }
    report.set(
        "core.http.fresh_conn_roundtrip_us",
        Metric::single(p50(&times), times.len() as u64),
    );
    let head = format!(
        "POST /expand HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
        traffic.addr,
        traffic.bodies[0].len()
    );
    let limits = HttpLimits::default();
    let (batches, per_batch) = (50, 200);
    let mut times = Vec::new();
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            let parsed = parse_head(black_box(head.as_bytes()), &limits);
            if !matches!(black_box(parsed), Ok(Some(_))) {
                return Err("parse_head rejected the harness's own request head".to_string());
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    report.set(
        "core.http.parse_head_us",
        Metric::single(p50(&times), (batches * per_batch) as u64),
    );
    Ok(())
}

/// Bytes of the store's live segment files and manifest per document.
pub fn store_size(report: &mut Report, tier: Tier, store: &Path) -> Result<(), String> {
    let fingerprint = config_fingerprint(&tier.config());
    let manifest = segstore::read_manifest(store, fingerprint)
        .map_err(|e| format!("manifest of {}: {e}", store.display()))?
        .ok_or_else(|| format!("{} has never published", store.display()))?;
    let size = |path: PathBuf| {
        std::fs::metadata(&path)
            .map(|m| m.len())
            .map_err(|e| format!("stat {}: {e}", path.display()))
    };
    let mut bytes = size(segstore::manifest_path(store))?;
    for segment in &manifest.segments {
        bytes += size(store.join(segstore::segment_file(segment.seq)))?;
    }
    let docs = manifest.total_docs();
    report.set(
        "retrieval.segstore.index_bytes_per_doc",
        Metric::single(bytes as f64 / docs.max(1) as f64, docs),
    );
    Ok(())
}

/// What one request's replay counted.
#[derive(Default)]
struct Counts {
    entities: Vec<f64>,
    features: Vec<f64>,
    hits: Vec<f64>,
    bytes: Vec<f64>,
    ball_nodes: Vec<f64>,
    cycles: Vec<f64>,
    /// Searches on a secondary backend that returned an error.
    search_failures: u64,
}

/// The engines one request is searched on.
struct Engines<'e> {
    /// The engine the expander serves from, and its span name.
    primary: (&'static str, &'e AnyEngine),
    /// Further backends searched with the same query, each under its
    /// own span name and in its own mode.
    others: Vec<(&'static str, &'e dyn RetrievalBackend, SearchMode)>,
}

/// Replay `requests` layer by layer, then whole, recording spans.
fn replay(
    tracer: &mut Tracer,
    kb: &KnowledgeBase,
    engines: &Engines<'_>,
    knobs: &Knobs,
    pool: &[String],
    requests: &[usize],
    counts: &mut Counts,
) -> Result<(), String> {
    let expander = knobs.builder().build(kb, engines.primary.1);
    let cycles = (knobs.strategy == "cycles").then(CycleExpanderConfig::default);
    let mut seen: HashSet<usize> = HashSet::new();
    for (r, &index) in requests.iter().enumerate() {
        let text = pool[index].trim();
        let request = knobs.request(text);
        let root = tracer.declare("core.service.expand", None, r);
        let (_, entities) = tracer.span("link.linker.link", Some(root), r, || {
            expander.linker().link_articles(text)
        });
        let (strategy, features) =
            tracer.span("core.expansion.expand", Some(root), r, || match &cycles {
                Some(config) => CycleExpander {
                    config: config.clone(),
                }
                .expand(kb, &entities),
                None => DirectLinkExpander { max_features: 10 }.expand(kb, &entities),
            });
        if let Some(config) = &cycles {
            // The strategy's own steps, with the arguments it uses.
            let graph = kb.graph();
            let nodes: Vec<u32> = entities
                .iter()
                .map(|&a| kb.article_node(kb.resolve_redirect(a)))
                .collect();
            let (_, mut neighborhood) =
                tracer.span("graph.traversal.ball", Some(strategy), r, || {
                    ball(graph, &nodes, config.neighborhood_radius)
                });
            counts.ball_nodes.push(neighborhood.len() as f64);
            neighborhood.truncate(config.max_neighborhood);
            for &node in &nodes {
                if !neighborhood.contains(&node) {
                    neighborhood.push(node);
                }
            }
            let (_, sub) = tracer.span("graph.subgraph.induce", Some(strategy), r, || {
                induce(graph, &neighborhood)
            });
            let local: Vec<u32> = nodes.iter().filter_map(|&n| sub.local_of(n)).collect();
            let (_, found) = tracer.span("graph.cycles.enumerate", Some(strategy), r, || {
                let mut found = 0u64;
                CycleFinder::new(&sub.graph)
                    .max_len(config.max_len)
                    .require_any_of(&local)
                    .limit(config.max_cycles)
                    .for_each(|cycle| found += black_box(cycle.len() as u64).min(1));
                found
            });
            counts.cycles.push(found as f64);
        }
        let (_, node) = tracer.span("retrieval.query_lang.build", Some(root), r, || {
            let node = QueryNode::phrases_of_titles(&expanded_titles(kb, &entities, &features));
            black_box(node.to_string());
            node
        });
        let (name, engine) = engines.primary;
        if seen.insert(index) {
            // The query's phrases are in no engine's memo yet: the
            // primary engine's first search is timed as such, the other
            // backends are warmed untimed, so every span below is warm.
            tracer
                .span("retrieval.engine.search_first_touch", None, r, || {
                    engine.try_search_with(&node, knobs.top_k, SearchMode::Exact)
                })
                .1
                .map_err(|e| format!("search: {e}"))?;
            for (_, backend, mode) in &engines.others {
                // A failure here shows again, and is counted, below.
                let _ = backend.try_search_with(&node, knobs.top_k, *mode);
            }
        }
        let (_, hits) = tracer.span(name, Some(root), r, || {
            engine.try_search_with(&node, knobs.top_k, SearchMode::Exact)
        });
        let hits = hits.map_err(|e| format!("search: {e}"))?;
        for (name, backend, mode) in &engines.others {
            let (_, other) = tracer.span(name, None, r, || {
                backend.try_search_with(&node, knobs.top_k, *mode)
            });
            match other {
                Ok(other) if other.len() == hits.len() => {}
                Ok(_) => {
                    return Err(format!(
                        "{name} returned a different hit count for {text:?}"
                    ))
                }
                Err(_) => counts.search_failures += 1,
            }
        }
        let response = tracer
            .run(root, || expander.expand(&request))
            .map_err(|e| format!("expand {text:?}: {e}"))?;
        let (_, body) = tracer.span("core.service.serialize", None, r, || {
            serde_json::to_string(&response).expect("response serializes")
        });
        counts.entities.push(entities.len() as f64);
        counts.features.push(features.len() as f64);
        counts.hits.push(hits.len() as f64);
        counts.bytes.push(body.len() as f64);
    }
    Ok(())
}

/// Turn a replay's spans and counts into the request-path metrics.
fn request_metrics(report: &mut Report, tracer: &Tracer, counts: &Counts) {
    let n = counts.entities.len() as u64;
    for (metric, span) in [
        ("link.linker.link_us", "link.linker.link"),
        ("graph.traversal.ball_us", "graph.traversal.ball"),
        ("graph.subgraph.induce_us", "graph.subgraph.induce"),
        ("graph.cycles.enumerate_us", "graph.cycles.enumerate"),
        ("core.expansion.expand_us", "core.expansion.expand"),
        (
            "retrieval.query_lang.build_us",
            "retrieval.query_lang.build",
        ),
        ("retrieval.engine.search_us", "retrieval.engine.search"),
        (
            "retrieval.engine.search_pruned_us",
            "retrieval.engine.search_pruned",
        ),
        (
            "retrieval.engine.search_first_touch_us",
            "retrieval.engine.search_first_touch",
        ),
        ("retrieval.sharded.search_us", "retrieval.sharded.search"),
        ("retrieval.remote.search_us", "retrieval.remote.search"),
        ("core.service.expand_us", "core.service.expand"),
        ("core.service.serialize_us", "core.service.serialize"),
    ] {
        set_p50(report, tracer, metric, span);
    }
    for (metric, values) in [
        ("link.linker.entities_per_query", &counts.entities),
        ("graph.traversal.ball_nodes", &counts.ball_nodes),
        ("graph.cycles.found_per_query", &counts.cycles),
        ("core.expansion.features_per_query", &counts.features),
        ("retrieval.engine.hits_per_query", &counts.hits),
        ("core.service.response_bytes", &counts.bytes),
    ] {
        if !values.is_empty() {
            report.set(metric, Metric::single(mean(values), values.len() as u64));
        }
    }
    let empty = counts.features.iter().filter(|&&f| f == 0.0).count();
    report.set(
        "core.expansion.empty_share",
        Metric::single(empty as f64 / n.max(1) as f64, n),
    );
    let whole = tracer.with_children_us("core.service.expand");
    let own: Vec<f64> = whole.iter().map(|(d, c)| (d - c).max(0.0)).collect();
    report.set("core.service.self_us", Metric::single(p50(&own), n));
    let covered: Vec<f64> = whole.iter().map(|(d, c)| c / d.max(1e-9)).collect();
    report.notes.push(format!(
        "layer spans cover {:.1}% of core.service.expand (median per request; the rest is core.service.self_us)",
        100.0 * p50(&covered)
    ));
}

/// Price the recording itself: the same requests with it off, then on.
fn overhead(
    report: &mut Report,
    kb: &KnowledgeBase,
    engines: &Engines<'_>,
    knobs: &Knobs,
    pool: &[String],
    requests: &[usize],
) -> Result<(), String> {
    let subset = &requests[..requests.len().min(OVERHEAD_REQUESTS)];
    let mut wall = [0.0f64; 2];
    for (slot, enabled) in [(0, false), (1, true)] {
        let mut tracer = Tracer::new(enabled);
        let t = Instant::now();
        replay(
            &mut tracer,
            kb,
            engines,
            knobs,
            pool,
            subset,
            &mut Counts::default(),
        )?;
        wall[slot] = t.elapsed().as_secs_f64();
    }
    report.set(
        "bench.trace.overhead_pct",
        Metric::single(
            100.0 * (wall[1] - wall[0]) / wall[0].max(1e-9),
            subset.len() as u64,
        ),
    );
    Ok(())
}

/// The in-process trace of a serving workload.
pub fn serving(
    env: &Env,
    spec: &Serving,
    world: &ServingWorld,
    pool: &[String],
    requests: &[usize],
    report: &mut Report,
) -> Result<(), String> {
    let kb = &world.wiki.kb;
    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    report.set(
        "core.cache.world_synth_s",
        Metric::single(world.stats.world_seconds, 1),
    );
    report.set(
        "core.cache.index_build_s",
        Metric::single(world.stats.index_build_seconds, 1),
    );
    if spec.fleet {
        // The same dump → ingest → compact 2 the served fleet was built
        // by, through the library; then the store behind an in-process
        // scatter-gather engine and behind two QGRP shard servers.
        let dir = env.work.fresh("trace")?;
        let store = ingest_probe(
            &mut tracer,
            spec.tier,
            &world.wiki,
            usize::MAX,
            8000,
            2,
            &dir,
            report,
        )?;
        let (sharded, manifest) = oracle::segstore_engine(spec.tier, &store)?;
        let lm = LmParams::default();
        let fingerprint = config_fingerprint(&spec.tier.config());
        let segments = segstore::load_generation(&store, fingerprint, ArtifactSource::Read)
            .map_err(|e| format!("load {}: {e}", store.display()))?
            .ok_or("the probe store has never published")?
            .into_engines(lm);
        let prints: Vec<u64> = manifest
            .segments
            .iter()
            .map(|s| segment_fp(fingerprint, s.seq))
            .collect();
        let servers: Vec<ShardServer> = segments
            .into_iter()
            .zip(&prints)
            .enumerate()
            .map(|(i, (engine, &print))| {
                ShardServer::bind("127.0.0.1:0", Arc::new(engine), i, print)
                    .map_err(|e| format!("bind shard {i}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let addrs: Vec<String> = servers
            .iter()
            .map(|s| {
                s.local_addr()
                    .map(|a| a.to_string())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        let outcome = std::thread::scope(|scope| {
            for server in &servers {
                scope.spawn(|| server.serve());
            }
            let outcome = (|| {
                let remote = RemoteEngine::connect_with_fingerprints(&addrs, lm, &prints)
                    .map_err(|e| format!("connect shard servers: {e}"))?;
                let engines = Engines {
                    primary: ("retrieval.sharded.search", &sharded),
                    others: vec![
                        ("retrieval.remote.search", &remote, SearchMode::Exact),
                        (
                            "retrieval.engine.search",
                            world.engine.backend(),
                            SearchMode::Exact,
                        ),
                    ],
                };
                replay(
                    &mut tracer,
                    kb,
                    &engines,
                    &spec.knobs,
                    pool,
                    requests,
                    &mut counts,
                )?;
                rpc_probe(&mut tracer, &addrs[0], kb, &spec.knobs, pool, requests, lm)?;
                overhead(report, kb, &engines, &spec.knobs, pool, requests)
            })();
            for server in &servers {
                server.shutdown_flag().store(true, Ordering::SeqCst);
            }
            outcome
        });
        outcome?;
        set_p50(
            report,
            &tracer,
            "retrieval.remote.rpc_us",
            "retrieval.remote.rpc",
        );
        report.set(
            "retrieval.remote.failures",
            Metric::single(counts.search_failures as f64, requests.len() as u64),
        );
    } else {
        let engines = Engines {
            primary: ("retrieval.engine.search", &world.engine),
            others: vec![(
                "retrieval.engine.search_pruned",
                world.engine.backend(),
                SearchMode::Pruned,
            )],
        };
        replay(
            &mut tracer,
            kb,
            &engines,
            &spec.knobs,
            pool,
            requests,
            &mut counts,
        )?;
        overhead(report, kb, &engines, &spec.knobs, pool, requests)?;
        if spec.cache > 0 {
            cache_probe(&mut tracer, spec, world, pool, requests, report)?;
        }
    }
    request_metrics(report, &tracer, &counts);
    finish(env, &tracer, report)
}

/// The expansion cache alone: the planned requests through a cached
/// expander, hits and misses timed apart.
fn cache_probe(
    tracer: &mut Tracer,
    spec: &Serving,
    world: &ServingWorld,
    pool: &[String],
    requests: &[usize],
    report: &mut Report,
) -> Result<(), String> {
    let cache = Arc::new(ExpansionCache::new(spec.cache));
    let expander = spec
        .knobs
        .builder()
        .expansion_cache(Arc::clone(&cache))
        .build(&world.wiki.kb, &world.engine);
    for (r, &index) in requests.iter().enumerate() {
        let request = spec.knobs.request(&pool[index]);
        let hits_before = cache.hits();
        let id = tracer.declare("core.expcache.lookup", None, r);
        tracer
            .run(id, || expander.expand(&request))
            .map_err(|e| format!("cached expand: {e}"))?;
        let hit = cache.hits() > hits_before;
        tracer.rename(
            id,
            if hit {
                "core.expcache.hit"
            } else {
                "core.expcache.miss"
            },
        );
    }
    report.set(
        "core.expcache.hit_rate",
        Metric::single(cache.hit_rate(), cache.lookups()),
    );
    set_p50(report, tracer, "core.expcache.hit_us", "core.expcache.hit");
    set_p50(
        report,
        tracer,
        "core.expcache.miss_us",
        "core.expcache.miss",
    );
    Ok(())
}

/// One QGRP round trip at a time: `leaf_cfs` then `score_topk` on
/// shard 0 for each planned query (scored with that shard's own leaf
/// statistics — the work of a real call, not its global ranking).
fn rpc_probe(
    tracer: &mut Tracer,
    addr: &str,
    kb: &KnowledgeBase,
    knobs: &Knobs,
    pool: &[String],
    requests: &[usize],
    lm: LmParams,
) -> Result<(), String> {
    let shard = RemoteShard::connect(addr, 40, std::time::Duration::from_millis(50))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let info = shard.hello().map_err(|e| format!("hello {addr}: {e}"))?;
    // An engine-less expander yields each request's query string.
    let expander = knobs.builder().build_offline(kb);
    for (r, &index) in requests.iter().enumerate().take(128) {
        let query = expander
            .expand_text(&pool[index])
            .map_err(|e| format!("expand {:?}: {e}", pool[index]))?
            .expanded_query;
        let cfs = shard
            .leaf_cfs(&query)
            .map_err(|e| format!("leaf_cfs: {e}"))?;
        let probs: Vec<f64> = cfs
            .iter()
            .map(|&cf| cf as f64 / info.total_tokens.max(1) as f64)
            .collect();
        tracer
            .span("retrieval.remote.rpc", None, r, || {
                shard.score_topk(
                    &query,
                    knobs.top_k,
                    SearchMode::Exact,
                    0,
                    lm.mu,
                    epsilon_for(info.total_tokens),
                    &probs,
                )
            })
            .1
            .map_err(|e| format!("score_topk: {e}"))?;
    }
    Ok(())
}

/// The write path through the library: synthesize the tier's corpus,
/// dump the first `max_docs` documents, stream the dump back through
/// `DumpStream` → `IndexBuilder` → `SegStore::commit_segment` in
/// `batch_docs` batches, compact to `compact_to` segments, load the
/// generation and swap it into a `ReloadableEngine`. Returns the store
/// directory.
#[allow(clippy::too_many_arguments)] // one call site per tier; a struct would only rename them
fn ingest_probe(
    tracer: &mut Tracer,
    tier: Tier,
    wiki: &SynthWiki,
    max_docs: usize,
    batch_docs: usize,
    compact_to: usize,
    dir: &Path,
    report: &mut Report,
) -> Result<PathBuf, String> {
    let config = tier.config();
    let fingerprint = config_fingerprint(&config);
    let corpus = querygraph_corpus::synth::generate_corpus(wiki, &config.corpus);
    let dump = dir.join("probe.xml");
    let (_, written) = tracer.span("corpus.synth.dump", None, 0, || -> std::io::Result<u64> {
        let mut writer = DumpWriter::create(&dump)?;
        for (_, doc) in corpus.corpus.iter().take(max_docs) {
            writer.write_doc(doc)?;
        }
        let written = writer.docs_written();
        writer.finish()?;
        Ok(written)
    });
    let docs = written.map_err(|e| format!("write {}: {e}", dump.display()))?;
    drop(corpus);

    let store_dir = dir.join("probe-store");
    let mut store = SegStore::open(&store_dir, fingerprint)
        .map_err(|e| format!("open {}: {e}", store_dir.display()))?;
    let mut stream =
        DumpStream::from_path(&dump).map_err(|e| format!("open {}: {e}", dump.display()))?;
    let (mut batch, mut segments_peak, mut index_docs) = (0usize, 0usize, 0u64);
    let ingest_start = Instant::now();
    loop {
        let (_, parsed) = tracer.span("corpus.ingest.parse", None, batch, || {
            stream
                .by_ref()
                .take(batch_docs)
                .collect::<Result<Vec<_>, _>>()
        });
        let parsed = parsed.map_err(|e| format!("{}: {e}", dump.display()))?;
        if parsed.is_empty() {
            break;
        }
        let texts: Vec<String> = parsed
            .iter()
            .map(querygraph_corpus::imageclef::linking_text)
            .collect();
        let (_, index) = tracer.span("retrieval.index.build", None, batch, || {
            let mut builder = IndexBuilder::new();
            for text in &texts {
                builder.add_document(text);
            }
            builder.build()
        });
        index_docs += texts.len() as u64;
        if batch == 0 {
            // The artifact format alone, on the first batch's index.
            let path = dir.join("probe.qgidx");
            tracer
                .span("retrieval.ondisk.save", None, 0, || {
                    save_index(&path, &index, &[], fingerprint)
                })
                .1
                .map_err(|e| format!("save {}: {e}", path.display()))?;
            tracer
                .span("retrieval.ondisk.load", None, 0, || load_index(&path))
                .1
                .map_err(|e| format!("load {}: {e}", path.display()))?;
        }
        tracer
            .span("retrieval.segstore.commit", None, batch, || {
                store.commit_segment(&index)
            })
            .1
            .map_err(|e| format!("commit: {e}"))?;
        segments_peak = segments_peak.max(store.manifest().segments.len());
        batch += 1;
    }
    tracer
        .span("retrieval.segstore.compact", None, 0, || {
            segstore::compact(&mut store, compact_to, ArtifactSource::Read)
        })
        .1
        .map_err(|e| format!("compact: {e}"))?;
    let ingest_s = ingest_start.elapsed().as_secs_f64();

    let lm = LmParams::default();
    let load = |tracer: &mut Tracer| -> Result<(AnyEngine, u64), String> {
        let (_, generation) = tracer.span("retrieval.segstore.load_generation", None, 0, || {
            segstore::load_generation(&store_dir, fingerprint, ArtifactSource::Read)
        });
        let generation = generation
            .map_err(|e| format!("load generation: {e}"))?
            .ok_or("the probe store has never published")?;
        let epoch = generation.manifest.generation_fingerprint();
        Ok((
            AnyEngine::Sharded(ShardedEngine::from_shards(generation.into_engines(lm), lm)),
            epoch,
        ))
    };
    let (serving, epoch) = load(tracer)?;
    let (next, _) = load(tracer)?;
    let slot = ReloadableEngine::new(serving, epoch);
    let (_, old) = tracer.span("retrieval.backend.swap", None, 0, || {
        slot.swap(next, epoch + 1)
    });
    drop(old);

    let per_s = |span: &str, docs: u64| docs as f64 / tracer.total_s(span).max(1e-9);
    report.set(
        "corpus.synth.dump_docs_per_s",
        Metric::single(per_s("corpus.synth.dump", docs), docs),
    );
    report.set(
        "corpus.ingest.parse_docs_per_s",
        Metric::single(per_s("corpus.ingest.parse", docs), docs),
    );
    report.set(
        "corpus.ingest.peak_buffer_bytes",
        Metric::single(stream.peak_buffer_bytes() as f64, docs),
    );
    report.set(
        "retrieval.index.build_docs_per_s",
        Metric::single(per_s("retrieval.index.build", index_docs), index_docs),
    );
    report.set(
        "retrieval.ondisk.save_s",
        Metric::single(tracer.total_s("retrieval.ondisk.save"), 1),
    );
    report.set(
        "retrieval.ondisk.load_s",
        Metric::single(tracer.total_s("retrieval.ondisk.load"), 1),
    );
    let commits = tracer.durations_us("retrieval.segstore.commit");
    report.set(
        "retrieval.segstore.commit_ms",
        Metric::single(p50(&commits) / 1e3, commits.len() as u64),
    );
    report.set(
        "retrieval.segstore.compact_s",
        Metric::single(tracer.total_s("retrieval.segstore.compact"), 1),
    );
    let loads = tracer.durations_us("retrieval.segstore.load_generation");
    report.set(
        "retrieval.segstore.load_generation_ms",
        Metric::single(p50(&loads) / 1e3, loads.len() as u64),
    );
    report.set(
        "retrieval.segstore.segments_peak",
        Metric::single(segments_peak as f64, batch as u64),
    );
    set_p50(
        report,
        tracer,
        "retrieval.backend.swap_us",
        "retrieval.backend.swap",
    );
    if report.get("retrieval.segstore.ingest_docs_per_s").is_none() {
        report.set(
            "retrieval.segstore.ingest_docs_per_s",
            Metric::single(docs as f64 / ingest_s.max(1e-9), docs),
        );
    }
    Ok(store_dir)
}

/// The in-process trace of `ingest_swap`: the write path, then the
/// reader's path over the store it produced.
pub fn ingest(
    env: &Env,
    tier: Tier,
    knobs: &Knobs,
    wiki: &SynthWiki,
    pool: &[String],
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let dir = env.work.fresh("trace")?;
    let store = ingest_probe(
        &mut tracer,
        tier,
        wiki,
        TRACK_PROBE_DOCS,
        6000,
        4,
        &dir,
        report,
    )?;
    let (engine, _) = oracle::segstore_engine(tier, &store)?;
    let requests = MixSampler::new(pool.len(), Mix::Uniform, env.seed, 4).take(TRACED_REQUESTS);
    let engines = Engines {
        primary: ("retrieval.sharded.search", &engine),
        others: Vec::new(),
    };
    let mut counts = Counts::default();
    replay(
        &mut tracer,
        &wiki.kb,
        &engines,
        knobs,
        pool,
        &requests,
        &mut counts,
    )?;
    overhead(report, &wiki.kb, &engines, knobs, pool, &requests)?;
    request_metrics(report, &tracer, &counts);
    finish(env, &tracer, report)
}

/// `repro_batch`: the stage breakdown the binary itself emits (its
/// `BuildStats` and `RunSummary`, read from every invocation's record
/// and summarised by the median); the invocation is the only call the
/// harness can time.
pub fn repro(env: &Env, records: &[Value], report: &mut Report) -> Result<(), String> {
    let n = records.len() as u64;
    let median_of = |read: &dyn Fn(&Value) -> Option<f64>, what: &str| {
        records
            .iter()
            .map(read)
            .collect::<Option<Vec<f64>>>()
            .filter(|values| !values.is_empty())
            .map(|values| median(&values))
            .ok_or_else(|| format!("a bench record lacks {what}"))
    };
    let run_number = |field: &'static str| {
        move |record: &Value| json::number(json::child(record, "run")?, field)
    };
    for (metric, field) in [
        ("core.cache.world_synth_s", "world_seconds"),
        ("core.cache.index_build_s", "index_build_seconds"),
    ] {
        let value = median_of(&|record| json::number(record, field), field)?;
        report.set(metric, Metric::single(value, n));
    }
    let stage = |record: &Value, name: &str| {
        json::child(json::child(record, "run")?, "stage_seconds")?
            .as_array()?
            .iter()
            .filter_map(Value::as_array)
            .find(|pair| pair.first().and_then(Value::as_str) == Some(name))
            .and_then(|pair| json::as_f64(pair.get(1)?))
    };
    // The binary's own stage totals, as spans too, so the span file
    // reads like the other workloads'.
    let mut tracer = Tracer::new(true);
    for (metric, _) in crate::metrics::PER_LAYER {
        let Some(name) = metric
            .strip_prefix("core.pipeline.")
            .and_then(|rest| rest.strip_suffix("_s"))
        else {
            continue;
        };
        let seconds = median_of(&|record| stage(record, name), metric)?;
        report.set(metric, Metric::single(seconds, n));
        tracer.reported(metric, seconds);
    }
    let evaluations = median_of(
        &run_number("ground_truth_evaluations"),
        "run.ground_truth_evaluations",
    )?;
    report.set(
        "core.ground_truth.evaluations",
        Metric::single(evaluations, n),
    );
    let hit_rate = median_of(
        &run_number("ground_truth_cache_hit_rate"),
        "run.ground_truth_cache_hit_rate",
    )?;
    report.set(
        "core.ground_truth.memo_hit_rate",
        Metric::single(hit_rate, evaluations as u64),
    );
    finish(env, &tracer, report)
}
