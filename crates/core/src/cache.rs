//! World cache: build the retrieval index once, persist it, reload it.
//!
//! `build_experiment` is [`Experiment::build`] with an optional cache
//! directory. The synthetic wiki and corpus are always regenerated
//! (they are cheap and fully determined by the configuration); the
//! expensive part — tokenizing and indexing every document, plus
//! evaluating the phrase dictionary over every article title — is
//! persisted and reloaded zero-copy on subsequent runs.
//!
//! A cache entry is a segment store ([`querygraph_retrieval::segstore`])
//! published once: one generation of `--shards` `QGIX` segments (one by
//! default) — see [`store_dir`]. Entries are keyed by a configuration
//! fingerprint ([`config_fingerprint`]): the FNV-1a of the serialized
//! wiki + corpus configurations, which determine the index bytes
//! exactly. The fingerprint appears both in the directory name (so one
//! cache directory serves many configurations) and inside the manifest
//! and every segment (so a renamed or stale entry is rejected, not
//! trusted). Any load failure — missing store, corrupt section, version
//! bump, fingerprint mismatch — falls back to building and
//! republishing: a cache can lose time, never correctness.
//!
//! [`BuildStats`] records build-vs-load wall-clock seconds; the
//! `repro_all --bench-out` record carries them, and the repo benchmark
//! reports them as
//! `core.cache.world_synth_s` / `core.cache.index_build_s`.

use crate::config::ExperimentConfig;
use crate::experiment::Experiment;
use crate::service::ServiceError;
use querygraph_corpus::imageclef::linking_text;
use querygraph_corpus::synth::{generate_corpus, SynthCorpus};
use querygraph_retrieval::backend::AnyEngine;
use querygraph_retrieval::engine::SearchEngine;
use querygraph_retrieval::index::IndexBuilder;
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::ondisk::{self, ArtifactSource, OndiskError};
use querygraph_retrieval::segstore::{self, Manifest, SegStore, SegStoreError};
use querygraph_retrieval::sharded;
use querygraph_wiki::synth::{generate, SynthWiki};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How to build (or load) the retrieval backend of a world: its
/// physical layout. The default is one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldOptions {
    /// Doc-partitioned shards (and, cached, store segments). One is the
    /// plain engine; more serve through a
    /// [`ShardedEngine`](querygraph_retrieval::sharded::ShardedEngine),
    /// byte-identical at any count.
    pub shards: usize,
}

impl Default for WorldOptions {
    fn default() -> WorldOptions {
        WorldOptions::sharded(1)
    }
}

impl WorldOptions {
    /// Options for an `n`-shard layout.
    pub fn sharded(n: usize) -> WorldOptions {
        WorldOptions { shards: n.max(1) }
    }

    /// Physical shard count (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shards.max(1)
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

/// Wall-clock breakdown of one `build_experiment` call.
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
/// changes are invisible to this fingerprint; `build_experiment`
/// additionally cross-checks a loaded index against the regenerated
/// corpus (doc count) to catch that kind of staleness.
pub fn config_fingerprint(config: &ExperimentConfig) -> u64 {
    let wiki = serde_json::to_string(&config.wiki).expect("wiki config serializes");
    let corpus = serde_json::to_string(&config.corpus).expect("corpus config serializes");
    ondisk::fnv1a(format!("{wiki}\n{corpus}").as_bytes())
}

/// The `shards`-way cache entry for `config` inside `dir`: a segment
/// store keyed by the plain [`config_fingerprint`], holding one
/// generation of `shards` [`sharded::doc_ranges`] segments. The shard
/// count is in the name only — a 1-shard and a 4-shard cache of one
/// world are different directories — so `qgx serve|replay --segstore`
/// and `qgx compact` work on the directory as on any other store.
pub fn store_dir(dir: &Path, config: &ExperimentConfig, shards: usize) -> PathBuf {
    dir.join(format!(
        "index-{:016x}-s{shards}",
        config_fingerprint(config)
    ))
}

/// Strictly load the `shards`-way engine for `config` from its
/// [`store_dir`] in `dir`: the store's current generation must list
/// exactly `shards` segments; every segment is independently validated
/// and its phrase dictionary seeded, segments load in parallel, and
/// every failure is a typed [`ServiceError`] (never a panic, never a
/// silently wrong index) that — for segment failures — names the shard
/// (its manifest slot, [`ServiceError::ArtifactShard`]). The one loader
/// behind both construction paths: the serving facade
/// ([`crate::service::ServingWorld::load`]) surfaces the error;
/// `build_experiment` treats it as a cache miss and rebuilds.
///
/// With `corpus_docs` set, the loaded index must cover exactly that
/// many documents — the cross-check that catches generator/tokenizer
/// *code* drift the configuration fingerprint cannot see.
///
/// Returns the engine, the manifest of the generation it loaded, and
/// per-shard load seconds (for the bench records).
pub fn load_store_engine(
    config: &ExperimentConfig,
    dir: &Path,
    shards: usize,
    corpus_docs: Option<usize>,
    lm: LmParams,
) -> Result<(AnyEngine, Manifest, Vec<f64>), ServiceError> {
    let store = store_dir(dir, config, shards);
    let manifest = segstore::manifest_path(&store);
    let fingerprint = config_fingerprint(config);
    let load_failed = |source| ServiceError::ArtifactLoad {
        path: manifest.clone(),
        source,
    };
    let mut generation = match segstore::load_generation(&store, fingerprint, ArtifactSource::Read)
    {
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
    shards: &[impl Borrow<SearchEngine>],
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
        .map(Borrow::borrow)
        .map(|shard: &SearchEngine| {
            store.stage_segment(shard.index(), &shard.export_phrase_cache())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(store.replace_segments(&staged)?.clone())
}

/// The single world-construction path behind [`Experiment::build`],
/// [`Experiment::build_with_cache`] and
/// [`crate::service::ServingWorld::open`]: synthesize the wiki and
/// corpus, then load the backend from the cache or build it —
/// [`WorldOptions::shards`] doc-partitioned shards, the plain engine at
/// one — and publish it as the cache's store. Cache-backed and
/// in-memory construction share every line except the load attempt and
/// the publish, so they cannot drift. With a cache directory, also
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
        match load_store_engine(config, dir, shard_count, docs, lm) {
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
                return (wiki, corpus, engine, stats, Some(manifest));
            }
            // A missing store is the normal cold-cache case and stays
            // silent; every *other* failure (unreadable file,
            // corruption, old version, foreign fingerprint, stale doc
            // count, another width) is reported — a cache that never
            // hits should not be invisible.
            Err(ServiceError::ArtifactMissing { .. }) => {}
            Err(e) => eprintln!("# index cache: {e} — rebuilding"),
        }
    }

    // Doc-partition the corpus into contiguous shards (global doc id =
    // shard base + local id, so iteration order here *is* the global
    // order).
    let t = Instant::now();
    let mut builders: Vec<IndexBuilder> = (0..shard_count).map(|_| IndexBuilder::new()).collect();
    let ranges = sharded::doc_ranges(corpus.corpus.len(), shard_count);
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
    if cache_dir.is_some() {
        // Warm every shard's phrase dictionary with every main-article
        // title — the phrases the §2.2 hill climb evaluates — so each
        // segment ships a complete local dictionary and loaded runs
        // skip all phrase matching. The dictionary is a section of the
        // segment, so warming counts as index *build* time; uncached
        // builds skip it and let the hill climb resolve phrases lazily
        // (either way the Report is byte-identical — the dictionary is
        // pure memoization).
        for article in wiki.kb.main_articles() {
            let title = querygraph_text::tokenize(wiki.kb.title(article));
            for shard in &shards {
                shard.warm_phrase(&title);
            }
        }
    }
    let index_build_seconds = t.elapsed().as_secs_f64();

    let mut index_write_seconds = 0.0;
    let mut published = None;
    if let Some(dir) = cache_dir {
        // Persistence failures (read-only cache directory, full disk, a
        // file in the way …) must not fail the run: log one warning and
        // serve from the freshly built in-memory engine.
        let t = Instant::now();
        let store = store_dir(dir, config, shard_count);
        match publish_store(&store, config_fingerprint(config), &shards) {
            Ok(manifest) => published = Some(manifest),
            Err(e) => eprintln!(
                "# index cache write {} failed: {e} — serving from the in-memory build",
                store.display()
            ),
        }
        index_write_seconds = t.elapsed().as_secs_f64();
    }

    let stats = BuildStats {
        world_seconds,
        index_build_seconds,
        index_write_seconds,
        index_load_seconds: 0.0,
        index_source: IndexSource::Built,
        shard_count,
        shard_load_seconds: Vec::new(),
    };
    let engine = AnyEngine::from_shards(shards, lm);
    (wiki, corpus, engine, stats, published)
}

/// [`Experiment::build`] with an optional index cache directory.
///
/// With `cache_dir` set, a valid cache entry for this configuration is
/// loaded instead of re-indexing; otherwise the index is built, the
/// phrase dictionary is warmed over every main-article title, and the
/// entry is published for the next run. Loaded and built experiments
/// produce byte-identical `Report`s (pinned by the golden-fingerprint
/// tests).
pub(crate) fn build_experiment(
    config: &ExperimentConfig,
    cache_dir: Option<&Path>,
) -> (Experiment, BuildStats) {
    build_experiment_with(config, cache_dir, &WorldOptions::default())
}

/// `build_experiment` with explicit [`WorldOptions`] — the sharded
/// layout. The `Report` produced is byte-identical at any shard count
/// (golden-pinned and property-tested).
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

    /// The default (one-segment) cache entry's only live segment file.
    fn live_segment(dir: &Path, config: &ExperimentConfig) -> PathBuf {
        let store = store_dir(dir, config, 1);
        let manifest = segstore::read_manifest(&store, config_fingerprint(config))
            .expect("manifest reads")
            .expect("store published");
        assert_eq!(manifest.segments.len(), 1);
        store.join(segstore::segment_file(manifest.segments[0].seq))
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
        let store = store_dir(&dir, &config, 1);
        std::fs::remove_dir_all(&store).ok();

        let (_, cold) = build_experiment(&config, Some(&dir));
        assert_eq!(cold.index_source, IndexSource::Built);
        assert!(cold.index_build_seconds > 0.0);
        // The default cache entry is the one-segment store, nothing else.
        live_segment(&dir, &config);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir lists")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        assert_eq!(
            names,
            [store.file_name().unwrap().to_str().unwrap()],
            "no top-level artifact beside the store"
        );

        let (_, warm) = build_experiment(&config, Some(&dir));
        assert_eq!(warm.index_source, IndexSource::Loaded);
        assert_eq!(warm.index_build_seconds, 0.0);
        assert!(warm.index_load_seconds > 0.0);
        assert_eq!(warm.shard_load_seconds.len(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_engine_matches_built_engine() {
        let dir = temp_cache("identical");
        let config = ExperimentConfig::tiny();
        std::fs::remove_dir_all(store_dir(&dir, &config, 1)).ok();
        let (built, _) = build_experiment(&config, Some(&dir));
        let (loaded, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(stats.index_source, IndexSource::Loaded);
        // One segment serves as the plain engine, built or loaded.
        let a = built.engine.as_mono().expect("mono build");
        let b = loaded.engine.as_mono().expect("mono load");
        assert_eq!(a.index().num_docs(), b.index().num_docs());
        assert_eq!(a.index().num_terms(), b.index().num_terms());
        assert_eq!(a.index().total_tokens(), b.index().total_tokens());
        // The persisted phrase dictionary arrives warm and identical.
        assert_eq!(a.export_phrase_cache(), b.export_phrase_cache());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_falls_back_to_rebuild() {
        let dir = temp_cache("corrupt");
        let config = ExperimentConfig::tiny();
        std::fs::remove_dir_all(store_dir(&dir, &config, 1)).ok();
        build_experiment(&config, Some(&dir));
        // Corrupt one payload byte of the segment: the next run must
        // detect it, rebuild, and republish a valid store.
        let path = live_segment(&dir, &config);
        let mut bytes = std::fs::read(&path).expect("segment exists");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).expect("rewrite corrupt");
        let (_, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(stats.index_source, IndexSource::Built);
        // …and the republished store loads again.
        let (_, again) = build_experiment(&config, Some(&dir));
        assert_eq!(again.index_source, IndexSource::Loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_artifact_is_refused_and_rebuilt_over() {
        let dir = temp_cache("v1-refused");
        let config = ExperimentConfig::tiny();
        std::fs::remove_dir_all(store_dir(&dir, &config, 1)).ok();
        build_experiment(&config, Some(&dir));
        // Exactly one format version is read: a segment header carrying
        // version 1 is refused typed, before anything else is trusted.
        let path = live_segment(&dir, &config);
        let mut bytes = std::fs::read(&path).expect("segment exists");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("plant v1 header");
        assert_eq!(
            ondisk::load_index(&path).map(|_| ()),
            Err(OndiskError::UnsupportedVersion { found: 1 })
        );
        // The cache answers with a rebuild and a current segment.
        let (_, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(stats.index_source, IndexSource::Built);
        ondisk::load_index(&live_segment(&dir, &config)).expect("rewritten segment loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_artifact_with_matching_fingerprint_rebuilds() {
        // The fingerprint can't see generator-code changes; simulate
        // one by publishing an index of the wrong world under the right
        // fingerprint and path. The doc-count cross-check must refuse
        // it.
        let dir = temp_cache("stale");
        let config = ExperimentConfig::tiny();
        let mut other = config.clone();
        other.corpus.noise_docs += 5; // different doc count
        let (wrong_world, _) = build_experiment(&other, None);
        publish_store(
            &store_dir(&dir, &config, 1),
            config_fingerprint(&config),
            std::slice::from_ref(wrong_world.engine.as_mono().expect("mono")),
        )
        .expect("plant stale store");
        let (experiment, stats) = build_experiment(&config, Some(&dir));
        assert_eq!(
            stats.index_source,
            IndexSource::Built,
            "stale store must be rejected by the doc-count guard"
        );
        assert_eq!(experiment.engine.num_docs(), experiment.corpus.corpus.len());
        // …and the republished store loads next time.
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
        std::fs::remove_dir_all(store_dir(&dir, &config, 1)).ok();
        std::fs::remove_dir_all(store_dir(&dir, &other, 1)).ok();
        build_experiment(&config, Some(&dir));
        // Pose the tiny store as the other config's cache entry.
        std::fs::rename(store_dir(&dir, &config, 1), store_dir(&dir, &other, 1)).expect("rename");
        let (_, stats) = build_experiment(&other, Some(&dir));
        assert_eq!(
            stats.index_source,
            IndexSource::Built,
            "embedded fingerprint must veto a renamed store"
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
        // freshly built in-memory engine — one shard and two alike. (A
        // 0o555 directory doesn't cut it as a fixture: the test user
        // may be root, for whom read-only modes are advisory.)
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
