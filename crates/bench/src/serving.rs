//! Serving a segment store: one path from a manifest to a live engine.
//!
//! `qgx serve|replay` boot a *store-backed* world — `--segstore <dir>`,
//! or an `--index-cache <dir>` boot, whose cache entry is a published
//! store at any `--shards` width — into one generation slot
//! ([`ReloadableEngine`]), and every generation reaches that slot the
//! same way:
//!
//! * **prepare** — load it in process *or* spawn its `qgx shard`
//!   fleet, never both. In process, the store's [`HeldSegments`] keep
//!   every segment engine the current generation serves, so a new
//!   generation loads only the segments it adds (one, for a commit) and
//!   shares the rest, phrase caches warm;
//! * **install** — [`boot`] is the watcher's first tick: it puts the
//!   first generation in a new slot keyed by the generation fingerprint
//!   of the manifest it prepared (or, for an index cache, loaded or
//!   published);
//! * **watch** — [`Live::watch`] reads the manifest every
//!   `WATCH_INTERVAL` (5 ms) and, on a new generation, prepares it off
//!   the serving path, swaps it in and logs. A replaced in-process
//!   generation is retired by dropping its `Arc`: in-flight requests
//!   keep it alive, and segments the new one shares stay loaded. A
//!   replaced fleet is drained once its last in-flight snapshot drops.
//!   A generation that fails to prepare is logged once and not retried
//!   until the manifest names another.
//!
//! An in-memory world has no store: it boots into a slot of its own at
//! epoch 0, which nothing swaps and no watcher follows. So every world
//! serves through a slot, and every request pins one generation of it
//! (`QueryExpanderBuilder::build_live`).
//!
//! The module also owns a fleet child's side ([`run_shard`]) and the
//! SIGTERM/SIGINT relay both processes install. Every line it writes
//! goes out whole through [`log_line`].

use crate::CliOptions;
use querygraph_core::cache::{self, config_fingerprint, BuildStats, IndexSource};
use querygraph_core::service::ServingWorld;
use querygraph_corpus::synth::{generate_corpus, SynthCorpus};
use querygraph_retrieval::backend::{AnyEngine, EngineGeneration, ReloadableEngine};
use querygraph_retrieval::engine::SearchEngine;
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::ondisk::{load_index, ArtifactSource};
use querygraph_retrieval::remote::{server, RemoteEngine, ShardServer};
use querygraph_retrieval::segstore::{
    self, segment_file, segment_fp, HeldSegments, Manifest, SegStore,
};
use querygraph_wiki::synth::SynthWiki;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the live-reload watcher reads the store's manifest: a few
/// hundred checksummed bytes, so a publish reaches readers within a few
/// milliseconds for about 5 ms of CPU per second.
const WATCH_INTERVAL: Duration = Duration::from_millis(5);

/// Log one line to stderr in a single `write` syscall. A supervisor and
/// its shard children share the stderr fd, and the standard formatting
/// macros issue one write per format fragment, so concurrent lines
/// could byte-interleave unless each goes out whole.
pub fn log_line(line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = std::io::stderr().write_all(buf.as_bytes());
}

/// A booted world: what `qgx serve|replay` answer from.
pub struct World {
    /// The knowledge base (and topic inventory) queries link against.
    pub wiki: SynthWiki,
    /// The tier's synthetic corpus, when [`boot`] was asked for it.
    pub corpus: Option<SynthCorpus>,
    /// Build / load / prepare wall-clock breakdown.
    pub stats: BuildStats,
    /// The generation slot requests pin: a handle on the store's slot,
    /// or an in-memory world's engine at epoch 0.
    pub slot: ReloadableEngine,
    /// The store behind a store-backed world (`None`: the slot is never
    /// swapped).
    pub live: Option<Live>,
}

/// Boot the world `cli` selects. `segstore` serves that store;
/// otherwise the world is built or loaded (`--index-cache`, `--shards`)
/// and, when its cache entry is a published store, served from it.
/// `fleet` — `--shard-procs n` and the `qgx` executable — serves every
/// store generation from `n` shard children instead of in process.
/// A refusal carries the process exit code and the message.
pub fn boot(
    cli: &CliOptions,
    segstore: Option<&Path>,
    fleet: Option<(usize, PathBuf)>,
    want_corpus: bool,
) -> Result<World, (i32, String)> {
    let config = cli.config();
    let fingerprint = config_fingerprint(&config);
    let (wiki, corpus, mut stats, engine, store) = match segstore {
        Some(dir) => {
            let manifest = segstore::read_manifest(dir, fingerprint)
                .map_err(|e| (1, format!("segment store {}: {e}", dir.display())))?
                .ok_or_else(|| {
                    let dir = dir.display();
                    (
                        1,
                        format!("segment store {dir} has never published — run `qgx ingest` first"),
                    )
                })?;
            // Expansion needs the knowledge graph; the corpus text
            // already lives in the segments.
            let t = Instant::now();
            let wiki = querygraph_wiki::synth::generate(&config.wiki);
            let corpus = want_corpus.then(|| generate_corpus(&wiki, &config.corpus));
            let stats = BuildStats {
                world_seconds: t.elapsed().as_secs_f64(),
                index_build_seconds: 0.0,
                index_write_seconds: 0.0,
                index_load_seconds: 0.0,
                index_source: IndexSource::Loaded,
                shard_count: manifest.segments.len(),
                shard_load_seconds: Vec::new(),
            };
            (
                wiki,
                corpus,
                stats,
                None,
                Some((dir.to_path_buf(), manifest)),
            )
        }
        None => {
            let (world, corpus) = ServingWorld::open_with_options(
                &config,
                cli.index_cache.as_deref(),
                LmParams::default(),
                &cli.world_options(),
            );
            let ServingWorld {
                wiki,
                engine,
                stats,
                store,
                ..
            } = world;
            let store = store
                .zip(cli.index_cache.as_deref())
                .map(|(manifest, dir)| {
                    let shards = cli.world_options().shard_count();
                    (cache::store_dir(dir, &config, shards), manifest)
                });
            (
                wiki,
                want_corpus.then_some(corpus),
                stats,
                Some(engine),
                store,
            )
        }
    };
    let (slot, live) = match (store, engine) {
        (Some((dir, manifest)), engine) => {
            if let Some((n, _)) = &fleet {
                if *n != manifest.segments.len() {
                    return Err((
                        2,
                        format!(
                            "--shard-procs {n} but the live generation has {} segment(s) — \
                             `qgx compact --shards {n}` reshapes it",
                            manifest.segments.len()
                        ),
                    ));
                }
            }
            let mut store = Store {
                dir,
                fingerprint,
                fleet: fleet.map(|(_, exe)| exe),
                held: HeldSegments::default(),
            };
            let t = Instant::now();
            // An index cache already holds its generation in process; a
            // fleet never loads what its children serve.
            let prepared = match engine.filter(|_| store.fleet.is_none()) {
                Some(engine) => Prepared {
                    engine,
                    fleet: None,
                    manifest,
                    segment_load_seconds: Vec::new(),
                    loaded: 0,
                    reused: 0,
                },
                None => {
                    let prepared = store
                        .prepare(&manifest)
                        .map_err(|e| (1, format!("segment store {}: {e}", store.dir.display())))?;
                    if segstore.is_some() {
                        stats.index_load_seconds = t.elapsed().as_secs_f64();
                        stats.shard_load_seconds = prepared.segment_load_seconds.clone();
                    }
                    prepared
                }
            };
            let live = Live::install(store, prepared);
            (live.slot.clone(), Some(live))
        }
        // An in-memory world: its engine at epoch 0, never swapped.
        (None, Some(engine)) if fleet.is_none() => (ReloadableEngine::new(engine, 0), None),
        (None, _) => {
            return Err((
                1,
                "the index cache holds no published store for the children to load".into(),
            ))
        }
    };
    Ok(World {
        wiki,
        corpus,
        stats,
        slot,
        live,
    })
}

/// How a store is served.
struct Store {
    dir: PathBuf,
    /// The store (= world-configuration) fingerprint.
    fingerprint: u64,
    /// `Some(qgx)`: serve each generation from a fleet of `qgx shard`
    /// children; `None`: load it in process.
    fleet: Option<PathBuf>,
    /// The segment engines in-process generations share, by seq.
    held: HeldSegments,
}

/// One generation, ready to swap in.
struct Prepared {
    engine: AnyEngine,
    fleet: Option<Fleet>,
    /// The manifest the engine serves.
    manifest: Manifest,
    segment_load_seconds: Vec<f64>,
    /// Segments read (or shard children spawned) for this generation.
    loaded: usize,
    /// Segments shared with the generation it replaces.
    reused: usize,
}

impl Store {
    /// Prepare `manifest`'s generation: spawn its fleet, or load in
    /// process the segments [`HeldSegments`] lacks and share the rest.
    fn prepare(&mut self, manifest: &Manifest) -> Result<Prepared, String> {
        if let Some(exe) = &self.fleet {
            manifest.check_servable().map_err(|e| e.to_string())?;
            let (fleet, remote) = Fleet::spawn(exe, self, manifest)?;
            return Ok(Prepared {
                engine: AnyEngine::Remote(remote),
                fleet: Some(fleet),
                manifest: manifest.clone(),
                segment_load_seconds: Vec::new(),
                loaded: manifest.segments.len(),
                reused: 0,
            });
        }
        let generation = self
            .held
            .load(&self.dir, manifest, LmParams::default())
            .map_err(|e| e.to_string())?;
        Ok(Prepared {
            engine: generation.engine,
            fleet: None,
            manifest: manifest.clone(),
            segment_load_seconds: generation.segment_load_seconds,
            loaded: generation.loaded,
            reused: generation.reused,
        })
    }

    /// The store's manifest, read afresh.
    fn read_manifest(&self) -> Result<Option<Manifest>, segstore::SegStoreError> {
        segstore::read_manifest(&self.dir, self.fingerprint)
    }
}

/// A store-backed world's serving state: the generation slot, the
/// current generation's fleet, if any, and what the watcher has already
/// reported.
pub struct Live {
    store: Store,
    slot: ReloadableEngine,
    fleet: Option<Fleet>,
    /// The generation fingerprint that last failed to prepare: not
    /// retried until the manifest names another generation.
    failed: Option<u64>,
    /// The manifest read error last logged: not logged again until a
    /// read succeeds or fails differently.
    read_error: Option<String>,
}

impl Live {
    /// The one installer: a new slot holding `prepared`, keyed by its
    /// manifest's generation fingerprint — so hot swaps invalidate the
    /// expansion cache exactly when the document set changes.
    fn install(store: Store, prepared: Prepared) -> Live {
        let epoch = prepared.manifest.generation_fingerprint();
        Live {
            store,
            slot: ReloadableEngine::new(prepared.engine, epoch),
            fleet: prepared.fleet,
            failed: None,
            read_error: None,
        }
    }

    /// The live-reload watcher behind `qgx serve`: tick every
    /// `WATCH_INTERVAL` (5 ms) until `shutdown`, then drain whichever fleet
    /// is current.
    pub fn watch(mut self, shutdown: Arc<AtomicBool>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(WATCH_INTERVAL);
                self.tick();
            }
            self.shutdown();
        })
    }

    /// One watcher tick: when the manifest names a new generation,
    /// prepare it off the serving path, swap it in (the only
    /// serving-visible pause: one mutex-guarded pointer replace), log,
    /// then retire the replaced one. A generation that cannot be
    /// prepared is logged once and the previous one keeps serving; one
    /// that a newer publish replaced while it loaded (a compaction
    /// removes the files it listed) is simply passed over.
    fn tick(&mut self) {
        let manifest = match self.store.read_manifest() {
            Ok(manifest) => {
                self.read_error = None;
                manifest
            }
            Err(e) => {
                let e = e.to_string();
                if self.read_error.as_ref() != Some(&e) {
                    log_line(&format!("# qgx: segstore watch: {e}"));
                    self.read_error = Some(e);
                }
                return;
            }
        };
        let Some(manifest) = manifest else {
            return;
        };
        let epoch = manifest.generation_fingerprint();
        if epoch == self.slot.epoch() || Some(epoch) == self.failed {
            return;
        }
        let t = Instant::now();
        let prepared = match self.store.prepare(&manifest) {
            Ok(prepared) => prepared,
            Err(e) => {
                let current = self.store.read_manifest().ok().flatten();
                if current.is_some_and(|m| m.generation_fingerprint() != epoch) {
                    return;
                }
                let what = if self.store.fleet.is_some() {
                    "fleet"
                } else {
                    "load"
                };
                log_line(&format!(
                    "# qgx: generation {} {what} failed ({e}); still serving the previous one",
                    manifest.generation
                ));
                self.failed = Some(epoch);
                return;
            }
        };
        let prepare_seconds = t.elapsed().as_secs_f64();
        let t_swap = Instant::now();
        let old = self.slot.swap(prepared.engine, epoch);
        let pause_us = t_swap.elapsed().as_secs_f64() * 1e6;
        log_line(&format!(
            "# qgx: serving generation {} ({} docs, {} segment(s)) — \
             prepared off-path in {prepare_seconds:.3}s, swap pause {pause_us:.0}µs \
             (loaded {}, reused {})",
            manifest.generation,
            manifest.total_docs(),
            manifest.segments.len(),
            prepared.loaded,
            prepared.reused
        ));
        // An in-process generation retires as its last holder drops it;
        // only a fleet needs its requests finished before it drains.
        if let Some(fleet) = std::mem::replace(&mut self.fleet, prepared.fleet) {
            retire(old, fleet);
        }
    }

    /// Stop serving: shut down and drain the current fleet, if any.
    pub fn shutdown(self) {
        if let Some(fleet) = self.fleet {
            fleet.shutdown(&self.slot.snapshot().engine);
        }
    }
}

/// Retire a replaced fleet generation: wait for its in-flight
/// snapshots to drop (after the swap, only they hold extra `Arc`s on
/// it; 10 s at most), then shut down and drain its fleet.
fn retire(old: Arc<EngineGeneration>, fleet: Fleet) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&old) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    fleet.shutdown(&old.engine);
}

/// The supervised children behind a fleet generation: one `qgx shard`
/// process per segment, stdin held open as the drain signal.
struct Fleet {
    children: Vec<Child>,
}

impl Fleet {
    /// The one fleet spawner: one `<exe> shard --segstore --seq` child
    /// per live segment of `manifest`, each announce line collected, and
    /// a `RemoteEngine` connected across them with seq-keyed fingerprint
    /// pinning. On any failure the children spawned so far are killed
    /// and the error returned — a watcher keeps serving the old
    /// generation.
    fn spawn(
        exe: &Path,
        store: &Store,
        manifest: &Manifest,
    ) -> Result<(Fleet, RemoteEngine), String> {
        let mut fleet = Fleet {
            children: Vec::with_capacity(manifest.segments.len()),
        };
        match fleet.start(exe, store, manifest) {
            Ok(remote) => Ok((fleet, remote)),
            Err(e) => {
                for child in &mut fleet.children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Err(e)
            }
        }
    }

    fn start(
        &mut self,
        exe: &Path,
        store: &Store,
        manifest: &Manifest,
    ) -> Result<RemoteEngine, String> {
        let mut addrs = Vec::with_capacity(manifest.segments.len());
        for (slot, seg) in manifest.segments.iter().enumerate() {
            let child = Command::new(exe)
                .arg("shard")
                .arg("--segstore")
                .arg(&store.dir)
                .arg("--seq")
                .arg(seg.seq.to_string())
                .arg("--shard")
                .arg(slot.to_string())
                .arg("--fingerprint")
                .arg(format!("{:016x}", store.fingerprint))
                .arg("--listen")
                .arg("127.0.0.1:0")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn segment {}: {e}", seg.seq))?;
            self.children.push(child);
            let child = self.children.last_mut().expect("just pushed");
            // The child's first stdout line is its QGRP announce; EOF
            // before that means it died (its stderr is inherited, so the
            // reason is already on ours).
            let stdout = child.stdout.take().expect("piped child stdout");
            let mut line = String::new();
            let addr = match BufReader::new(stdout).read_line(&mut line) {
                Ok(len) if len > 0 => server::parse_announce(line.trim()),
                _ => None,
            }
            .ok_or_else(|| {
                format!(
                    "segment {} did not announce a QGRP address (got {:?})",
                    seg.seq,
                    line.trim()
                )
            })?;
            log_line(&format!(
                "# qgx: shard {slot} pid {} listening on {addr} (segment {})",
                child.id(),
                seg.seq
            ));
            addrs.push(addr);
        }
        let expected: Vec<u64> = manifest
            .segments
            .iter()
            .map(|s| segment_fp(store.fingerprint, s.seq))
            .collect();
        RemoteEngine::connect_with_fingerprints(&addrs, LmParams::default(), &expected)
            .map_err(|e| format!("cannot connect to the segment fleet: {e}"))
    }

    /// Shut the fleet down once `engine` — the remote engine fronting
    /// it — is done serving: a polite QGRP `Shutdown` to every child,
    /// then every stdin closed (the drain signal — works even if the
    /// QGRP socket is wedged), a shared 5 s grace window to exit, and a
    /// kill for stragglers. Always reaps, so no zombies outlive the
    /// supervisor.
    fn shutdown(mut self, engine: &AnyEngine) {
        if let AnyEngine::Remote(remote) = engine {
            remote.shutdown_all();
        }
        for child in &mut self.children {
            drop(child.stdin.take());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for (shard, child) in self.children.iter_mut().enumerate() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        log_line(&format!("# qgx: shard {shard} exited ({status})"));
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Ok(None) | Err(_) => {
                        log_line(&format!(
                            "# qgx: shard {shard} did not drain in time; killing"
                        ));
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Raise `flag` on SIGTERM/SIGINT: the handler only flips an atomic; a
/// relay thread polls it every 50 ms.
pub fn relay_shutdown_signals(flag: Arc<AtomicBool>) {
    #[cfg(unix)]
    {
        sig::install();
        std::thread::spawn(move || loop {
            if sig::requested() {
                flag.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    #[cfg(not(unix))]
    drop(flag);
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Install the flag-setting handler for SIGINT (2) and SIGTERM (15).
    pub(crate) fn install() {
        // SAFETY: `signal(2)` takes a signal number and a handler of the
        // C signature; `handle` is async-signal-safe (one atomic
        // store), and installing it twice is harmless.
        unsafe {
            signal(2, handle);
            signal(15, handle);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub(crate) fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// One fleet child: load segment `seq` of the store in `dir`, verify its
/// embedded fingerprint against `segment_fp(fingerprint, seq)`, announce
/// the bound QGRP address on stdout, and serve until stdin EOF (the
/// supervisor's drain signal), SIGTERM/SIGINT, or a `Shutdown` frame.
pub fn run_shard(
    dir: &Path,
    seq: u64,
    shard: usize,
    fingerprint: u64,
    listen: &str,
) -> Result<(), String> {
    let path = dir.join(segment_file(seq));
    let want = segment_fp(fingerprint, seq);
    let loaded = load_index(&path)
        .map_err(|e| format!("shard {shard}: cannot load {}: {e}", path.display()))?;
    // The same pinning the store loader enforces: a mis-deployed or
    // stale segment dies here, before it can answer.
    if loaded.meta_fingerprint != want {
        return Err(format!(
            "shard {shard}: segment fingerprint mismatch \
             (expected {want:016x}, found {:016x})",
            loaded.meta_fingerprint
        ));
    }
    let num_docs = loaded.index.num_docs();
    let engine = SearchEngine::with_params(loaded.index, LmParams::default());
    engine.seed_phrase_cache(loaded.phrases);

    let qgrp = ShardServer::bind(listen, Arc::new(engine), shard, want)
        .map_err(|e| format!("shard {shard}: cannot bind {listen}: {e}"))?;
    let addr = qgrp
        .local_addr()
        .map_err(|e| format!("shard {shard}: no local address: {e}"))?;
    // The announce is the child's only stdout line — the supervisor
    // blocks on it; everything human-facing goes to stderr.
    server::announce(&addr);
    let _ = std::io::stdout().flush();
    log_line(&format!(
        "# qgx: shard {shard} serving {} ({num_docs} docs) on {addr}",
        path.display()
    ));

    // stdin EOF is the supervisor's drain signal: it outlives a wedged
    // socket and fires even if the parent dies without cleanup (the
    // pipe closes with it), so orphaned children exit on their own.
    let shutdown = qgrp.shutdown_flag();
    {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
            shutdown.store(true, Ordering::SeqCst);
        });
    }
    relay_shutdown_signals(shutdown);

    qgrp.serve()
        .map_err(|e| format!("shard {shard}: serve loop failed: {e}"))?;
    log_line(&format!("# qgx: shard {shard} drained"));
    Ok(())
}

/// Compact `store` into `shards` segments, measuring what a live server
/// would feel: the compaction wall clock (all off the serving path) and
/// the engine-swap pause (the only serving-visible moment — the new
/// generation is fully loaded before the swap, exactly as the watcher
/// does it). Returns `(compaction_seconds, swap_pause_us)`.
pub fn compact_and_measure(store: &mut SegStore, shards: usize) -> Result<(f64, f64), String> {
    let lm = LmParams::default();
    let fingerprint = store.manifest().fingerprint;
    let load = |dir: &Path| {
        segstore::load_generation(dir, fingerprint, ArtifactSource::Read)
            .ok()
            .flatten()
            .map(|generation| {
                let epoch = generation.manifest.generation_fingerprint();
                (generation.into_engine(lm), epoch)
            })
    };
    // Stand in for the live server: hold the pre-compaction generation
    // in a reloadable slot so the swap we time is the real operation.
    let serving = load(store.dir()).map(|(engine, epoch)| ReloadableEngine::new(engine, epoch));

    let t = Instant::now();
    match segstore::compact(store, shards.max(1), ArtifactSource::Read) {
        Ok(Some(_)) => {}
        Ok(None) => return Err("the store has never published — nothing to compact".into()),
        Err(e) => return Err(format!("compaction failed: {e}")),
    }
    let compaction_seconds = t.elapsed().as_secs_f64();

    let mut swap_pause_us = 0.0;
    if let (Some(serving), Some((engine, epoch))) = (serving, load(store.dir())) {
        let t = Instant::now();
        let old = serving.swap(engine, epoch);
        swap_pause_us = t.elapsed().as_secs_f64() * 1e6;
        drop(old);
    }
    Ok((compaction_seconds, swap_pause_us))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use querygraph_retrieval::index::IndexBuilder;
    use std::io::Read;

    fn empty_engine() -> AnyEngine {
        AnyEngine::Mono(Arc::new(SearchEngine::new(IndexBuilder::new().build())))
    }

    /// A replaced generation's fleet must outlive every in-flight
    /// snapshot of that generation: retirement waits for the last one
    /// to drop, and only then drains. `cat` children stand in for shard
    /// processes — they too exit on stdin EOF.
    #[test]
    fn a_replaced_fleet_drains_only_after_its_last_in_flight_snapshot_drops() {
        let slot = ReloadableEngine::new(empty_engine(), 1);
        let mut outputs = Vec::new();
        let children = (0..2)
            .map(|_| {
                let mut child = Command::new("cat")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .expect("spawn cat");
                outputs.push(child.stdout.take().expect("piped stdout"));
                child
            })
            .collect();
        let fleet = Fleet { children };

        let in_flight = slot.snapshot();
        let old = slot.swap(empty_engine(), 2);
        let retiring = std::thread::spawn(move || retire(old, fleet));
        // A drain takes milliseconds (cat exits at once on EOF), so a
        // retirement still running well after that is one still waiting
        // on the snapshot.
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            !retiring.is_finished(),
            "the fleet was retired while a request still held its generation"
        );

        drop(in_flight);
        retiring.join().expect("retirement thread");
        for mut output in outputs {
            let mut rest = Vec::new();
            output
                .read_to_end(&mut rest)
                .expect("child stdout reaches EOF once the child exits");
            assert!(rest.is_empty());
        }
    }
}
