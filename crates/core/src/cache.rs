//! World cache: build the retrieval index once, persist it, reload it.
//!
//! [`build_experiment`] is [`Experiment::build`] with an optional cache
//! directory. The synthetic wiki and corpus are always regenerated
//! (they are cheap and fully determined by the configuration); the
//! expensive part — tokenizing and indexing every document, plus
//! evaluating the phrase dictionary over every article title — is
//! persisted via [`querygraph_retrieval::ondisk`] and reloaded
//! zero-copy on subsequent runs.
//!
//! Artifacts are keyed by a configuration fingerprint
//! ([`config_fingerprint`]): the FNV-1a of the serialized wiki + corpus
//! configurations, which determine the index bytes exactly. The
//! fingerprint appears both in the artifact file name (so one cache
//! directory serves many configurations) and inside the artifact header
//! (so a renamed or stale file is rejected, not trusted). A monolithic
//! cache entry is one `QGIX` file; a `--shards N` entry is a segment
//! store ([`querygraph_retrieval::segstore`]) published once — see
//! [`store_dir`]. Any load
//! failure — missing file, corrupt section, version bump, fingerprint
//! mismatch — falls back to building and rewriting: a cache can lose
//! time, never correctness.
//!
//! [`BuildStats`] records build-vs-load wall-clock seconds; the
//! `--bench-out` records of `repro_all` and `qgx serve`/`replay` carry
//! them, and the repo benchmark reports them as
//! `core.cache.world_synth_s` / `core.cache.index_build_s`.

use crate::config::ExperimentConfig;
use crate::experiment::Experiment;
use crate::service::ServiceError;
use querygraph_corpus::imageclef::linking_text;
use querygraph_corpus::synth::{generate_corpus, SynthCorpus};
use querygraph_retrieval::backend::{AnyEngine, RetrievalBackend};
use querygraph_retrieval::engine::SearchEngine;
use querygraph_retrieval::index::IndexBuilder;
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::ondisk::{self, ArtifactSource, OndiskError};
use querygraph_retrieval::segstore::{self, Manifest, SegStore, SegStoreError};
use querygraph_retrieval::sharded::{self, ShardedEngine};
use querygraph_wiki::synth::{generate, SynthWiki};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How to build (or load) the retrieval backend of a world: physical
/// layout and artifact byte source. The default is today's behaviour —
/// one monolithic engine, artifact read into memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorldOptions {
    /// `Some(n)`: a [`ShardedEngine`] over `n` doc-partitioned shards
    /// (a one-generation segment store on disk; results byte-identical
    /// to the monolithic engine at any `n`, including 1). `None`: the
    /// monolithic engine and single-artifact layout.
    pub shards: Option<usize>,
    /// Memory-map artifacts instead of reading them (opt-in; falls
    /// back to reading on any error).
    pub mmap: bool,
}

impl WorldOptions {
    /// Options for an `n`-shard layout.
    pub fn sharded(n: usize) -> WorldOptions {
        WorldOptions {
            shards: Some(n.max(1)),
            mmap: false,
        }
    }

    /// The artifact byte source these options select.
    pub fn source(&self) -> ArtifactSource {
        if self.mmap {
            ArtifactSource::Mmap
        } else {
            ArtifactSource::Read
        }
    }

    /// Physical shard count (1 for the monolithic layout).
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or(1).max(1)
    }
}

/// Where the experiment's index came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexSource {
    /// Indexed from the corpus in this process.
    Built,
    /// Loaded from an on-disk artifact.
    Loaded,
}

impl IndexSource {
    /// Lower-case name, as archived in bench records.
    pub fn name(self) -> &'static str {
        match self {
            IndexSource::Built => "built",
            IndexSource::Loaded => "loaded",
        }
    }
}

/// Wall-clock breakdown of one [`build_experiment`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Seconds to synthesize the wiki and corpus (always paid).
    pub world_seconds: f64,
    /// Seconds to tokenize + index the corpus and warm the phrase
    /// dictionary (0 when the index was loaded).
    pub index_build_seconds: f64,
    /// Seconds to serialize + write the artifact (0 unless written).
    pub index_write_seconds: f64,
    /// Seconds to read + decode the artifact (0 unless loaded).
    pub index_load_seconds: f64,
    /// Whether the index was built or loaded.
    pub index_source: IndexSource,
    /// Physical shards behind the engine (1 = monolithic).
    pub shard_count: usize,
    /// Per-shard segment read+decode seconds, in shard order (empty
    /// unless a segment store was loaded; segments load in
    /// parallel, so these can sum past `index_load_seconds`).
    pub shard_load_seconds: Vec<f64>,
}

impl BuildStats {
    /// Total build-side seconds (what older records call
    /// `build_seconds`).
    pub fn total_seconds(&self) -> f64 {
        self.world_seconds
            + self.index_build_seconds
            + self.index_write_seconds
            + self.index_load_seconds
    }
}

/// FNV-1a fingerprint of the serialized wiki + corpus configurations —
/// the *configuration* inputs that determine the index bytes. Pipeline
/// knobs (pool caps, cycle limits …) deliberately do not participate:
/// they change the analysis, not the index. Generator/tokenizer *code*
/// changes are invisible to this fingerprint; [`build_experiment`]
/// additionally cross-checks a loaded index against the regenerated
/// corpus (doc count) to catch that kind of staleness.
pub fn config_fingerprint(config: &ExperimentConfig) -> u64 {
    let wiki = serde_json::to_string(&config.wiki).expect("wiki config serializes");
    let corpus = serde_json::to_string(&config.corpus).expect("corpus config serializes");
    ondisk::fnv1a(format!("{wiki}\n{corpus}").as_bytes())
}

/// The artifact path for `config` inside `dir`.
pub fn artifact_path(dir: &Path, config: &ExperimentConfig) -> PathBuf {
    dir.join(format!("index-{:016x}.qgidx", config_fingerprint(config)))
}

/// The `shards`-way cache entry for `config` inside `dir`: a segment
/// store keyed by the plain [`config_fingerprint`], holding one
/// generation of `shards` [`sharded::doc_ranges`] segments. The shard
/// count is in the name only — a 4-shard and an 8-shard cache of one
/// world are different directories — so `qgx serve|replay --segstore`
/// and `qgx compact` work on the directory as on any other store.
pub fn store_dir(dir: &Path, config: &ExperimentConfig, shards: usize) -> PathBuf {
    dir.join(format!(
        "index-{:016x}-s{shards}",
        config_fingerprint(config)
    ))
}

/// Strictly load the engine for `config` from the fingerprint-keyed
/// artifact in `dir`, reading its bytes per `source`
/// ([`ArtifactSource::Mmap`] maps the file instead of reading it):
/// seeded phrase dictionary included, every failure a typed
/// [`ServiceError`] (never a panic, never a silently wrong index). This
/// is the loading half of both construction paths — the serving facade
/// ([`crate::service::ServingWorld::load`]) surfaces the error;
/// [`build_experiment`] treats it as a cache miss and rebuilds.
///
/// With `corpus_docs` set, the loaded index must cover exactly that
/// many documents — the cross-check that catches generator/tokenizer
/// *code* drift the configuration fingerprint cannot see.
pub fn load_engine_with(
    config: &ExperimentConfig,
    dir: &Path,
    corpus_docs: Option<usize>,
    lm: LmParams,
    source: ArtifactSource,
) -> Result<SearchEngine, ServiceError> {
    let path = artifact_path(dir, config);
    if !path.exists() {
        return Err(ServiceError::ArtifactMissing { path });
    }
    let loaded =
        ondisk::load_index_with(&path, source).map_err(|source| ServiceError::ArtifactLoad {
            path: path.clone(),
            source,
        })?;
    let fingerprint = config_fingerprint(config);
    if loaded.meta_fingerprint != fingerprint {
        return Err(ServiceError::ArtifactFingerprint {
            path,
            expected: fingerprint,
            found: loaded.meta_fingerprint,
        });
    }
    if let Some(docs) = corpus_docs {
        if loaded.index.num_docs() != docs {
            return Err(ServiceError::ArtifactStale {
                path,
                indexed_docs: loaded.index.num_docs(),
                corpus_docs: docs,
            });
        }
    }
    let engine = SearchEngine::with_params(loaded.index, lm);
    engine.seed_phrase_cache(loaded.phrases);
    Ok(engine)
}

/// Strictly load the `shards`-way engine for `config` from its
/// [`store_dir`] in `dir`: the store's current generation must list
/// exactly `shards` segments; every segment is independently validated
/// and its phrase dictionary seeded, segments load in parallel, and
/// every failure is a typed [`ServiceError`] that — for segment
/// failures — names the shard (its manifest slot,
/// [`ServiceError::ArtifactShard`]).
///
/// Returns the engine, the manifest of the generation it loaded, and
/// per-shard load seconds (for the bench records).
pub fn load_store_engine(
    config: &ExperimentConfig,
    dir: &Path,
    shards: usize,
    corpus_docs: Option<usize>,
    lm: LmParams,
    source: ArtifactSource,
) -> Result<(ShardedEngine, Manifest, Vec<f64>), ServiceError> {
    let store = store_dir(dir, config, shards);
    let manifest = segstore::manifest_path(&store);
    let fingerprint = config_fingerprint(config);
    let load_failed = |source| ServiceError::ArtifactLoad {
        path: manifest.clone(),
        source,
    };
    let mut generation = match segstore::load_generation(&store, fingerprint, source) {
        Ok(Some(generation)) => generation,
        Ok(None) => return Err(ServiceError::ArtifactMissing { path: manifest }),
        Err(SegStoreError::Manifest(OndiskError::MetaMismatch { expected, found })) => {
            return Err(ServiceError::ArtifactFingerprint {
                path: manifest,
                expected,
                found,
            })
        }
        Err(SegStoreError::Manifest(source)) => return Err(load_failed(source)),
        Err(SegStoreError::Io(message)) => return Err(load_failed(OndiskError::Io(message))),
        Err(SegStoreError::Segment { seq, source }) => {
            // The store names a failing segment by sequence number;
            // serving errors name the shard, i.e. its manifest slot.
            let path = store.join(segstore::segment_file(seq));
            let slot = segstore::read_manifest(&store, fingerprint)
                .ok()
                .flatten()
                .and_then(|m| m.segments.iter().position(|s| s.seq == seq));
            return Err(match slot {
                Some(shard) => ServiceError::ArtifactShard {
                    path,
                    shard,
                    source,
                },
                None => ServiceError::ArtifactLoad { path, source },
            });
        }
    };
    if generation.manifest.segments.len() != shards {
        return Err(load_failed(OndiskError::Malformed {
            context: "shard count",
        }));
    }
    let shard_load_seconds = std::mem::take(&mut generation.segment_load_seconds);
    let loaded = generation.manifest.clone();
    let engine = generation.into_engine(lm);
    if let Some(docs) = corpus_docs {
        if engine.num_docs() != docs {
            return Err(ServiceError::ArtifactStale {
                path: manifest,
                indexed_docs: engine.num_docs(),
                corpus_docs: docs,
            });
        }
    }
    Ok((engine, loaded, shard_load_seconds))
}

/// Publish freshly built `shards` (with their warmed phrase
/// dictionaries) as the one live generation of the store at `store`:
/// every segment staged first, then a single manifest swap. Whatever
/// the directory held before — nothing, a stale or differently shaped
/// generation, a manifest that no longer opens — is replaced; its
/// segment files are removed or left as orphans no manifest lists.
/// Returns the published manifest.
fn publish_store(
    store: &Path,
    fingerprint: u64,
    shards: &[SearchEngine],
) -> Result<Manifest, SegStoreError> {
    let mut store = match SegStore::open(store, fingerprint) {
        Err(SegStoreError::Manifest(_)) => {
            std::fs::remove_file(segstore::manifest_path(store)).ok();
            SegStore::open(store, fingerprint)?
        }
        opened => opened?,
    };
    let staged = shards
        .iter()
        .map(|shard| store.stage_segment(shard.index(), &shard.export_phrase_cache()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(store.replace_segments(&staged)?.clone())
}

/// Run one cache write and return the seconds it took. Persistence
/// failures (read-only cache directory, full disk, a file in the way …)
/// must not fail the run: log one warning and serve from the freshly
/// built in-memory engine — the cache loses time, never correctness.
fn persist(label: &Path, write: impl FnOnce() -> std::io::Result<()>) -> f64 {
    let t = Instant::now();
    if let Err(e) = write() {
        eprintln!(
            "# index cache write {} failed: {e} — serving from the in-memory build",
            label.display()
        );
    }
    t.elapsed().as_secs_f64()
}

/// The single world-construction path behind [`Experiment::build`],
/// [`Experiment::build_with_cache`] and
/// [`crate::service::ServingWorld::open`]: synthesize the wiki and
/// corpus, then load the backend from the cache or build (and persist)
/// it — monolithic or sharded per [`WorldOptions`]. Cache-backed and
/// in-memory construction share every line except the load attempt, so
/// they cannot drift. With a cache directory and `shards` set, also
/// returns the manifest of the store generation the engine was loaded
/// from or published as (`None` when the publish failed).
pub(crate) fn build_world(
    config: &ExperimentConfig,
    cache_dir: Option<&Path>,
    lm: LmParams,
    options: &WorldOptions,
) -> (
    SynthWiki,
    SynthCorpus,
    AnyEngine,
    BuildStats,
    Option<Manifest>,
) {
    let t0 = Instant::now();
    let wiki = generate(&config.wiki);
    let corpus = generate_corpus(&wiki, &config.corpus);
    let world_seconds = t0.elapsed().as_secs_f64();
    let shard_count = options.shard_count();

    if let Some(dir) = cache_dir {
        let t = Instant::now();
        // The doc-count cross-check matters here: the fingerprint
        // covers the *configurations* and cannot see generator or
        // tokenizer code changes in a new binary. Cross-checking the
        // loaded index against the corpus we just regenerated catches
        // that staleness cheaply — a generator change that alters the
        // document set shifts the doc count with overwhelming
        // likelihood, and anything subtler is caught by the
        // golden-fingerprint tests the moment results would change.
        let docs = Some(corpus.corpus.len());
        let loaded = match options.shards {
            None => load_engine_with(config, dir, docs, lm, options.source())
                .map(|e| (AnyEngine::Mono(e), None, Vec::new())),
            Some(n) => load_store_engine(config, dir, n, docs, lm, options.source())
                .map(|(e, manifest, secs)| (AnyEngine::Sharded(e), Some(manifest), secs)),
        };
        match loaded {
            Ok((engine, manifest, shard_load_seconds)) => {
                let stats = BuildStats {
                    world_seconds,
                    index_build_seconds: 0.0,
                    index_write_seconds: 0.0,
                    index_load_seconds: t.elapsed().as_secs_f64(),
                    index_source: IndexSource::Loaded,
                    shard_count,
                    shard_load_seconds,
                };
                return (wiki, corpus, engine, stats, manifest);
            }
            // A missing artifact is the normal cold-cache case and
            // stays silent; every *other* failure (unreadable file,
            // corruption, old version, foreign fingerprint, stale doc
            // count) is reported — a cache that never hits should not
            // be invisible.
            Err(ServiceError::ArtifactMissing { .. }) => {}
            Err(e) => eprintln!("# index cache: {e} — rebuilding"),
        }
    }

    let t = Instant::now();
    let mut index_write_seconds = 0.0;
    let mut published = None;
    let (engine, index_build_seconds) = match options.shards {
        None => {
            let mut ib = IndexBuilder::new();
            for (_, doc) in corpus.corpus.iter() {
                ib.add_document(&linking_text(doc));
            }
            let engine = SearchEngine::with_params(ib.build(), lm);
            if cache_dir.is_some() {
                // Warm the phrase dictionary with every main-article
                // title — the phrases the §2.2 hill climb evaluates —
                // so the artifact ships a complete dictionary and
                // loaded runs skip all phrase matching. The dictionary
                // is a section of the artifact, so warming counts as
                // index *build* time; uncached builds skip it and let
                // the hill climb resolve phrases lazily, exactly as
                // before (either way the Report is byte-identical —
                // the dictionary is pure memoization).
                for article in wiki.kb.main_articles() {
                    engine.warm_phrase(&querygraph_text::tokenize(wiki.kb.title(article)));
                }
            }
            let built = t.elapsed().as_secs_f64();
            if let Some(dir) = cache_dir {
                let path = artifact_path(dir, config);
                index_write_seconds = persist(&path, || {
                    std::fs::create_dir_all(dir)?;
                    ondisk::save_index(
                        &path,
                        engine.index(),
                        &engine.export_phrase_cache(),
                        config_fingerprint(config),
                    )
                });
            }
            (AnyEngine::Mono(engine), built)
        }
        Some(n) => {
            // Doc-partition the corpus into contiguous shards (global
            // doc id = shard base + local id, so iteration order here
            // *is* the global order).
            let n = n.max(1);
            let num_docs = corpus.corpus.len();
            let mut builders: Vec<IndexBuilder> = (0..n).map(|_| IndexBuilder::new()).collect();
            let ranges = sharded::doc_ranges(num_docs, n);
            let mut shard_of_doc = 0usize;
            for (i, (_, doc)) in corpus.corpus.iter().enumerate() {
                while i >= ranges[shard_of_doc].end {
                    shard_of_doc += 1;
                }
                builders[shard_of_doc].add_document(&linking_text(doc));
            }
            let shards: Vec<SearchEngine> = builders
                .into_iter()
                .map(|b| SearchEngine::with_params(b.build(), lm))
                .collect();
            let engine = ShardedEngine::from_shards(shards, lm);
            if cache_dir.is_some() {
                // Same warming as the monolithic path, on every shard:
                // each segment ships its own complete local dictionary.
                for article in wiki.kb.main_articles() {
                    engine.warm_phrase(&querygraph_text::tokenize(wiki.kb.title(article)));
                }
            }
            let built = t.elapsed().as_secs_f64();
            if let Some(dir) = cache_dir {
                let store = store_dir(dir, config, shard_count);
                index_write_seconds = persist(&store, || {
                    published = Some(
                        publish_store(&store, config_fingerprint(config), engine.shards())
                            .map_err(std::io::Error::other)?,
                    );
                    Ok(())
                });
            }
            (AnyEngine::Sharded(engine), built)
        }
    };

    let stats = BuildStats {
        world_seconds,
        index_build_seconds,
        index_write_seconds,
        index_load_seconds: 0.0,
        index_source: IndexSource::Built,
        shard_count,
        shard_load_seconds: Vec::new(),
    };
    (wiki, corpus, engine, stats, published)
}

/// [`Experiment::build`] with an optional index cache directory.
///
/// With `cache_dir` set, a valid artifact for this configuration is
/// loaded instead of re-indexing; otherwise the index is built, the
/// phrase dictionary is warmed over every main-article title, and the
/// artifact is written for the next run. Loaded and built experiments
/// produce byte-identical `Report`s (pinned by the golden-fingerprint
/// tests).
pub fn build_experiment(
    config: &ExperimentConfig,
    cache_dir: Option<&Path>,
) -> (Experiment, BuildStats) {
    build_experiment_with(config, cache_dir, &WorldOptions::default())
}

/// [`build_experiment`] with explicit [`WorldOptions`] — the sharded
/// layout and/or mmap-backed loading. The `Report` produced is
/// byte-identical at any shard count (golden-pinned and
/// property-tested).
pub fn build_experiment_with(
    config: &ExperimentConfig,
    cache_dir: Option<&Path>,
    options: &WorldOptions,
) -> (Experiment, BuildStats) {
    let (wiki, corpus, engine, stats, _) =
        build_world(config, cache_dir, LmParams::default(), options);
    let experiment = Experiment {
        wiki,
        corpus,
        engine,
        config: config.clone(),
    };
    (experiment, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("querygraph-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp cache dir");
        dir
    }

    #[test]
    fn fingerprint_tracks_world_configs_only() {
        let a = ExperimentConfig::tiny();
        let mut b = a.clone();
        b.max_pool += 1; // pipeline knob: same world, same index
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        let mut c = a.clone();
        c.wiki.seed ^= 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
        let mut d = a.clone();
        d.corpus.noise_docs += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&d));
    }

    #[test]
    fn cold_build_writes_then_warm_run_loads() {
        let dir = temp_cache("cold-warm");
        let config = ExperimentConfig::tiny();
        let path = artifact_path(&dir, &config);
        std::fs::remove_file(&path).ok();

        let (_, cold) = build_experiment(&config, Some(&dir));
        assert_eq!(cold.index_source, IndexSource::Built);
        assert!(cold.index_build_seconds > 0.0);
        assert!(path.exists(), "cold run must persist the artifact");

        let (_, warm) = build_experiment(&config, Some(&dir));
        assert_eq!(warm.index_source, IndexSource::Loaded);
        assert_eq!(warm.index_build_seconds, 0.0);
        assert!(warm.index_load_seconds > 0.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_engine_matches_built_engine() {
        let dir = temp_cache("identical");
        let config = ExperimentConfig::tiny();
        std::fs::remove_file(artifact_path(&dir, &config)).ok();
        let (built, _) = build_experiment(&config, Some(&dir));
        let (loaded, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(stats.index_source, IndexSource::Loaded);
        let a = built.engine.as_mono().expect("mono build").index();
        let b = loaded.engine.as_mono().expect("mono load").index();
        assert_eq!(a.num_docs(), b.num_docs());
        assert_eq!(a.num_terms(), b.num_terms());
        assert_eq!(a.total_tokens(), b.total_tokens());
        // The persisted phrase dictionary arrives warm and identical.
        assert_eq!(
            built.engine.as_mono().unwrap().export_phrase_cache(),
            loaded.engine.as_mono().unwrap().export_phrase_cache()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_falls_back_to_rebuild() {
        let dir = temp_cache("corrupt");
        let config = ExperimentConfig::tiny();
        let path = artifact_path(&dir, &config);
        std::fs::remove_file(&path).ok();
        build_experiment(&config, Some(&dir));
        // Corrupt one payload byte: the next run must detect it, rebuild,
        // and rewrite a valid artifact.
        let mut bytes = std::fs::read(&path).expect("artifact exists");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).expect("rewrite corrupt");
        let (_, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(stats.index_source, IndexSource::Built);
        // …and the rewritten artifact loads again.
        let (_, again) = build_experiment(&config, Some(&dir));
        assert_eq!(again.index_source, IndexSource::Loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_artifact_is_refused_and_rebuilt_over() {
        let dir = temp_cache("v1-refused");
        let config = ExperimentConfig::tiny();
        let path = artifact_path(&dir, &config);
        std::fs::remove_file(&path).ok();
        build_experiment(&config, Some(&dir));
        // Exactly one format version is read: a header carrying
        // version 1 is refused typed, before anything else is trusted.
        let mut bytes = std::fs::read(&path).expect("artifact exists");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("plant v1 header");
        assert_eq!(
            ondisk::load_index(&path).map(|_| ()),
            Err(OndiskError::UnsupportedVersion { found: 1 })
        );
        // The cache answers with a rebuild and a current artifact.
        let (_, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(stats.index_source, IndexSource::Built);
        let rewritten = ondisk::load_index(&path).expect("rewritten artifact loads");
        assert_eq!(rewritten.meta_fingerprint, config_fingerprint(&config));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_artifact_with_matching_fingerprint_rebuilds() {
        // The fingerprint can't see generator-code changes; simulate
        // one by saving an index of the wrong world under the right
        // fingerprint and path. The doc-count cross-check must refuse
        // it.
        let dir = temp_cache("stale");
        let config = ExperimentConfig::tiny();
        let mut other = config.clone();
        other.corpus.noise_docs += 5; // different doc count
        let (wrong_world, _) = build_experiment(&other, None);
        ondisk::save_index(
            &artifact_path(&dir, &config),
            wrong_world.engine.as_mono().expect("mono").index(),
            &[],
            config_fingerprint(&config),
        )
        .expect("plant stale artifact");
        let (experiment, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(
            stats.index_source,
            IndexSource::Built,
            "stale artifact must be rejected by the doc-count guard"
        );
        assert_eq!(experiment.engine.num_docs(), experiment.corpus.corpus.len());
        // …and the rewritten artifact loads next time.
        let (_, again) = build_experiment(&config, Some(&dir));
        assert_eq!(again.index_source, IndexSource::Loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_in_renamed_artifact_rebuilds() {
        let dir = temp_cache("renamed");
        let config = ExperimentConfig::tiny();
        let mut other = config.clone();
        other.wiki.seed ^= 0xFF;
        std::fs::remove_file(artifact_path(&dir, &config)).ok();
        build_experiment(&config, Some(&dir));
        // Pose the tiny artifact as the other config's cache entry.
        std::fs::rename(artifact_path(&dir, &config), artifact_path(&dir, &other)).expect("rename");
        let (_, stats) = build_experiment(&other, Some(&dir));
        assert_eq!(
            stats.index_source,
            IndexSource::Built,
            "embedded fingerprint must veto a renamed artifact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_cold_build_writes_then_warm_run_loads() {
        let dir = temp_cache("sharded-cold-warm");
        let config = ExperimentConfig::tiny();
        let options = WorldOptions::sharded(3);
        let store = store_dir(&dir, &config, 3);
        std::fs::remove_dir_all(&store).ok();

        let (cold_exp, cold) = build_experiment_with(&config, Some(&dir), &options);
        assert_eq!(cold.index_source, IndexSource::Built);
        assert_eq!(cold.shard_count, 3);
        assert!(cold_exp.engine.as_sharded().is_some());
        // The cache entry *is* a store: one generation, three segments.
        let manifest = segstore::read_manifest(&store, config_fingerprint(&config))
            .expect("manifest reads")
            .expect("cold run must publish the store");
        assert_eq!((manifest.generation, manifest.segments.len()), (1, 3));

        let (warm_exp, warm) = build_experiment_with(&config, Some(&dir), &options);
        assert_eq!(warm.index_source, IndexSource::Loaded);
        assert_eq!(warm.shard_count, 3);
        assert_eq!(warm.shard_load_seconds.len(), 3);
        assert_eq!(warm_exp.engine.num_docs(), cold_exp.engine.num_docs());
        // The warmed phrase dictionaries rode along in the segments.
        assert_eq!(
            warm_exp.engine.backend().phrase_cache_len(),
            cold_exp.engine.backend().phrase_cache_len()
        );

        // A different shard count is a different cache entry: cold again.
        let (_, other) = build_experiment_with(&config, Some(&dir), &WorldOptions::sharded(2));
        assert_eq!(
            other.index_source,
            IndexSource::Built,
            "shard count keys the store directory"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unloadable_store_is_a_miss_that_rebuilds_to_a_loadable_generation() {
        let dir = temp_cache("sharded-miss");
        let config = ExperimentConfig::tiny();
        let options = WorldOptions::sharded(3);
        let fp = config_fingerprint(&config);
        let store = store_dir(&dir, &config, 3);
        std::fs::remove_dir_all(&store).ok();
        build_experiment_with(&config, Some(&dir), &options);
        let rebuilds_then_loads = |what: &str| {
            let (_, miss) = build_experiment_with(&config, Some(&dir), &options);
            assert_eq!(miss.index_source, IndexSource::Built, "{what}: must miss");
            let (exp, hit) = build_experiment_with(&config, Some(&dir), &options);
            assert_eq!(hit.index_source, IndexSource::Loaded, "{what}: must reload");
            assert_eq!(exp.engine.shard_count(), 3, "{what}");
        };

        // A different segment count (someone compacted the cache).
        let mut opened = SegStore::open(&store, fp).expect("opens");
        segstore::compact(&mut opened, 2, ArtifactSource::Read).expect("compacts");
        rebuilds_then_loads("wrong segment count");

        // A generation that lists no segments at all.
        let mut opened = SegStore::open(&store, fp).expect("opens");
        opened
            .replace_segments(&[])
            .expect("publishes an empty generation");
        rebuilds_then_loads("empty generation");

        // A stale generation: right shape, wrong world (doc count).
        let mut other = config.clone();
        other.corpus.noise_docs += 5;
        let (wrong_world, _) = build_experiment_with(&other, None, &options);
        let shards = wrong_world.engine.as_sharded().expect("sharded").shards();
        publish_store(&store, fp, shards).expect("plants the stale generation");
        rebuilds_then_loads("stale doc count");

        // A corrupt manifest, then a corrupt segment.
        std::fs::write(segstore::manifest_path(&store), b"torn").expect("tear manifest");
        rebuilds_then_loads("corrupt manifest");
        let live = segstore::read_manifest(&store, fp)
            .expect("reads")
            .expect("published");
        let victim = store.join(segstore::segment_file(live.segments[1].seq));
        std::fs::write(&victim, b"junk").expect("corrupt segment");
        rebuilds_then_loads("corrupt segment");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_cache_dir_serves_built_engine() {
        // A cache path that cannot be a directory (it's a file): the
        // write fails, the run must log one warning and serve from the
        // freshly built in-memory engine — monolithic and sharded
        // alike. (A 0o555 directory doesn't cut it as a fixture: the
        // test user may be root, for whom read-only modes are
        // advisory.)
        let blocker =
            std::env::temp_dir().join(format!("querygraph-cache-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("blocker file");
        let config = ExperimentConfig::tiny();
        for options in [WorldOptions::default(), WorldOptions::sharded(2)] {
            let (experiment, stats) = build_experiment_with(&config, Some(&blocker), &options);
            assert_eq!(stats.index_source, IndexSource::Built);
            assert_eq!(
                experiment.engine.num_docs(),
                experiment.corpus.corpus.len(),
                "in-memory engine must serve despite the failed write"
            );
            assert_eq!(experiment.engine.shard_count(), options.shard_count());
        }
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn build_stats_total_covers_all_parts() {
        let stats = BuildStats {
            world_seconds: 1.0,
            index_build_seconds: 2.0,
            index_write_seconds: 0.25,
            index_load_seconds: 0.5,
            index_source: IndexSource::Built,
            shard_count: 1,
            shard_load_seconds: Vec::new(),
        };
        assert!((stats.total_seconds() - 3.75).abs() < 1e-12);
        assert_eq!(IndexSource::Built.name(), "built");
        assert_eq!(IndexSource::Loaded.name(), "loaded");
    }
}
