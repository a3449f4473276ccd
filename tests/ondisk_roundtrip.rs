//! The persisted index must be invisible end to end: for arbitrary
//! generated worlds, `write → load → Report` is byte-identical to the
//! in-memory build.
//!
//! The retrieval crate's unit tests already pin the format itself
//! (losslessness, checksums, the corruption battery); these tests close
//! the loop at the workspace level, through `Experiment::build_with_cache`
//! and the full §2–§3 pipeline — including the warm phrase dictionary a
//! loaded engine starts with.

use querygraph::core::cache::{config_fingerprint, load_store_engine, store_dir, IndexSource};
use querygraph::core::experiment::{Experiment, ExperimentConfig};
use querygraph::core::service::{ServiceError, ServingWorld};
use querygraph::retrieval::backend::AnyEngine;
use querygraph::retrieval::lm::LmParams;
use querygraph::retrieval::ondisk::fnv1a;
use querygraph::retrieval::segstore::{self, Manifest};
use std::path::{Path, PathBuf};

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "querygraph-ondisk-roundtrip-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp cache dir");
    dir
}

/// A micro world: small enough that one build + two runs cost a few
/// milliseconds, so the property can afford dozens of sampled worlds.
fn micro_config(
    wiki_seed: u64,
    corpus_seed: u64,
    topics: usize,
    queries: usize,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::tiny();
    config.wiki.seed = wiki_seed;
    config.wiki.num_topics = topics;
    config.wiki.articles_per_topic = 6;
    config.corpus.seed = corpus_seed;
    config.corpus.num_queries = queries.min(topics);
    config.corpus.noise_docs = 25;
    config.ground_truth.max_iterations = 12;
    config
}

/// The default cache entry for `config` in `dir`: the one-segment
/// store.
fn store(dir: &Path, config: &ExperimentConfig) -> PathBuf {
    store_dir(dir, config, 1)
}

/// The strict one-segment loader, with an optional doc-count check.
fn load(
    config: &ExperimentConfig,
    dir: &Path,
    corpus_docs: Option<usize>,
) -> Result<(AnyEngine, Manifest, Vec<f64>), ServiceError> {
    load_store_engine(config, dir, 1, corpus_docs, LmParams::default())
}

/// Built-vs-loaded report fingerprints for one configuration.
fn built_and_loaded_fingerprints(config: &ExperimentConfig, dir: &Path) -> [(usize, u64); 2] {
    std::fs::remove_dir_all(store(dir, config)).ok();
    let mut out = [(0, 0); 2];
    for (i, expect) in [IndexSource::Built, IndexSource::Loaded].iter().enumerate() {
        let (experiment, stats) = Experiment::build_with_cache(config, Some(dir));
        assert_eq!(stats.index_source, *expect, "pass {i} of {config:?}");
        let json = serde_json::to_string(&experiment.run_parallel(2)).expect("report serializes");
        out[i] = (json.len(), fnv1a(json.as_bytes()));
    }
    out
}

proptest::proptest! {
    /// For arbitrary micro worlds (random seeds and sizes), the report
    /// produced from the loaded store is byte-identical to the one
    /// produced by the in-memory build that wrote it.
    #[test]
    fn write_load_report_byte_identical(
        wiki_seed in 0u64..1_000_000,
        corpus_seed in 0u64..1_000_000,
        topics in 3usize..6,
        queries in 1usize..4,
    ) {
        // The shim's proptest! runs 64 cases; keep each world micro.
        let dir = temp_cache("prop");
        let config = micro_config(wiki_seed, corpus_seed, topics, queries);
        let [built, loaded] = built_and_loaded_fingerprints(&config, &dir);
        proptest::prop_assert_eq!(
            built, loaded,
            "loaded-index report diverged for {:?}", config
        );
        std::fs::remove_dir_all(store(&dir, &config)).ok();
    }
}

/// The same property at the full tiny configuration (the world the
/// golden pins cover), plus store reuse across experiments: loading
/// twice from one store is stable.
#[test]
fn tiny_config_write_load_stable_across_loads() {
    let dir = temp_cache("tiny");
    let config = ExperimentConfig::tiny();
    let [built, loaded] = built_and_loaded_fingerprints(&config, &dir);
    assert_eq!(built, loaded);
    // A third run loads the same store again and still agrees.
    let (experiment, stats) = Experiment::build_with_cache(&config, Some(&dir));
    assert_eq!(stats.index_source, IndexSource::Loaded);
    let json = serde_json::to_string(&experiment.run_parallel(2)).expect("report serializes");
    assert_eq!((json.len(), fnv1a(json.as_bytes())), built);
    std::fs::remove_dir_all(&dir).ok();
}

// ── typed errors through the serving facade ─────────────────────────
//
// `ServingWorld::load` / `cache::load_store_engine` is the strict
// serving path: unlike `build_experiment` it cannot fall back to
// rebuilding, so every load failure must surface as a typed
// `ServiceError` — and never a panic. The batteries below drive the
// same corruption space the retrieval-crate format tests cover, but
// through the facade, against the one segment of a default cache.

/// Persist a micro world's one-segment store once and return its
/// segment's path and bytes.
fn planted_segment(dir: &Path, config: &ExperimentConfig) -> (PathBuf, Vec<u8>) {
    let store = store(dir, config);
    std::fs::remove_dir_all(&store).ok();
    let world = ServingWorld::open(config, Some(dir));
    assert_eq!(world.stats.index_source, IndexSource::Built);
    let manifest = world.store.expect("store published");
    assert_eq!(manifest.segments.len(), 1);
    let path = store.join(segstore::segment_file(manifest.segments[0].seq));
    let bytes = std::fs::read(&path).expect("segment persisted");
    (path, bytes)
}

/// Every single-byte corruption of the segment must yield a typed
/// error naming shard 0 from the facade's strict loader — never a
/// panic, never a silently wrong engine.
#[test]
fn facade_rejects_every_flipped_byte_with_typed_error() {
    let dir = temp_cache("facade-flip");
    let config = micro_config(7, 11, 3, 1);
    let (path, bytes) = planted_segment(&dir, &config);
    // Cap the battery at ~2k flips so the test stays fast at any
    // segment size; the step stays 1 (exhaustive) for small files.
    let step = (bytes.len() / 2048).max(1);
    for i in (0..bytes.len()).step_by(step) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xFF;
        std::fs::write(&path, &corrupt).expect("write corrupt segment");
        match ServingWorld::load(&config, &dir) {
            Err(ServiceError::ArtifactShard {
                shard: 0, path: p, ..
            }) => assert_eq!(p, path),
            Err(other) => panic!("byte {i}: unexpected error class {other:?}"),
            Ok(_) => panic!("byte {i}: corrupted segment loaded successfully"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every truncation must fail typed as well (the loader's length and
/// checksum validation run before any content is trusted).
#[test]
fn facade_rejects_every_truncation_with_typed_error() {
    let dir = temp_cache("facade-trunc");
    let config = micro_config(13, 17, 3, 1);
    let (path, bytes) = planted_segment(&dir, &config);
    let step = (bytes.len() / 512).max(1);
    for len in (0..bytes.len()).step_by(step) {
        std::fs::write(&path, &bytes[..len]).expect("write truncated segment");
        let err = ServingWorld::load(&config, &dir)
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes loaded successfully"));
        assert!(
            matches!(err, ServiceError::ArtifactShard { shard: 0, .. }),
            "truncation to {len}: unexpected error class {err:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The non-corruption failure classes, each with its own typed variant:
/// missing store, foreign fingerprint (renamed store), stale doc count
/// (generator drift the fingerprint cannot see).
#[test]
fn facade_load_failure_classes_are_distinguished() {
    let dir = temp_cache("facade-classes");
    let config = micro_config(19, 23, 3, 1);

    // Missing: nothing persisted yet.
    std::fs::remove_dir_all(store(&dir, &config)).ok();
    assert!(matches!(
        ServingWorld::load(&config, &dir),
        Err(ServiceError::ArtifactMissing { .. })
    ));

    // Foreign fingerprint: pose another world's store as ours.
    let mut other = config.clone();
    other.wiki.seed ^= 0xBEEF;
    planted_segment(&dir, &other);
    std::fs::rename(store(&dir, &other), store(&dir, &config)).expect("rename store");
    match load(&config, &dir, None) {
        Err(ServiceError::ArtifactFingerprint {
            expected, found, ..
        }) => {
            assert_eq!(expected, config_fingerprint(&config));
            assert_eq!(found, config_fingerprint(&other));
        }
        other => panic!("expected ArtifactFingerprint, got {:?}", other.map(|_| ())),
    }

    // Stale: right fingerprint, wrong doc count (only checked when the
    // caller knows the corpus size, as `build_experiment` does).
    planted_segment(&dir, &config);
    let world = ServingWorld::load(&config, &dir).expect("valid store loads");
    let docs = world.engine.num_docs();
    match load(&config, &dir, Some(docs + 1)) {
        Err(ServiceError::ArtifactStale {
            indexed_docs,
            corpus_docs,
            ..
        }) => {
            assert_eq!(indexed_docs, docs);
            assert_eq!(corpus_docs, docs + 1);
        }
        other => panic!("expected ArtifactStale, got {:?}", other.map(|_| ())),
    }
    // Errors render human-readably (the qgx server prints them).
    let err = load(&config, &dir, Some(docs + 1))
        .err()
        .expect("stale store must not load");
    assert!(err.to_string().contains("stale"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A world loaded through the strict facade serves byte-identical
/// expansions to the world that published the store.
#[test]
fn facade_loaded_world_serves_identical_expansions() {
    use querygraph::core::service::ExpansionRequest;
    let dir = temp_cache("facade-serve");
    let config = micro_config(29, 31, 4, 2);
    std::fs::remove_dir_all(store(&dir, &config)).ok();
    let built = ServingWorld::open(&config, Some(&dir));
    let loaded = ServingWorld::load(&config, &dir).expect("store loads");
    assert_eq!(loaded.stats.index_source, IndexSource::Loaded);
    for article in built.wiki.kb.main_articles().take(5) {
        let request = ExpansionRequest::new(built.wiki.kb.title(article)).with_retrieval(10);
        let a = built.expander().expand(&request);
        let b = loaded.expander().expand(&request);
        assert_eq!(a, b, "expansion diverged for {:?}", request.text);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One cache directory serves many configurations side by side without
/// cross-talk: stores are fingerprint-keyed directories.
#[test]
fn cache_dir_holds_multiple_worlds() {
    let dir = temp_cache("multi");
    let a = micro_config(1, 2, 4, 2);
    let b = micro_config(3, 4, 4, 2);
    let fa = built_and_loaded_fingerprints(&a, &dir);
    let fb = built_and_loaded_fingerprints(&b, &dir);
    assert_ne!(fa[0], fb[0], "different worlds must differ");
    assert!(segstore::manifest_path(&store(&dir, &a)).exists());
    assert!(segstore::manifest_path(&store(&dir, &b)).exists());
    assert_ne!(store(&dir, &a), store(&dir, &b));
    // Both stores still load correctly after interleaving.
    let (_, sa) = Experiment::build_with_cache(&a, Some(&dir));
    let (_, sb) = Experiment::build_with_cache(&b, Some(&dir));
    assert_eq!(sa.index_source, IndexSource::Loaded);
    assert_eq!(sb.index_source, IndexSource::Loaded);
    std::fs::remove_dir_all(&dir).ok();
}
