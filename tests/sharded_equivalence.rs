//! Sharding must be invisible in the science: the `ShardedEngine`'s
//! scatter-gather, the segmented artifact layout, and mmap-backed
//! loading may change *where bytes live*, never *what is computed*.
//!
//! Three layers of protection:
//!
//! * **Golden pins** — the serialized `Report` at `--shards 4` must
//!   reproduce the exact pre-fast-path fingerprints pinned in
//!   `tests/ground_truth_fastpath.rs` for the tiny and seed (paper)
//!   configurations. CI's `shard-smoke` job runs these.
//! * **Property tests** — randomized micro worlds run through the full
//!   pipeline at N ∈ {1, 2, 3, 7} shards and must serialize
//!   byte-identical `Report`s; mmap-loaded worlds must answer
//!   byte-identically to read-loaded ones.
//! * **Corruption fuzz** — flipping bytes in one shard segment must
//!   surface as a typed `ServiceError::ArtifactShard` *naming that
//!   shard*, never a panic, through the strict serving facade.

use querygraph::core::cache::{store_dir, WorldOptions};
use querygraph::core::experiment::{Experiment, ExperimentConfig};
use querygraph::core::service::{ExpansionRequest, ServiceError, ServingWorld};
use querygraph::retrieval::lm::LmParams;
use querygraph::retrieval::ondisk::fnv1a;
use querygraph::retrieval::segstore::{manifest_path, segment_file};
use std::path::PathBuf;

/// The pinned pre-fast-path fingerprints (captured at PR 1's HEAD) —
/// the same constants `tests/ground_truth_fastpath.rs` pins for the
/// monolithic engine. Sharding must land on them exactly.
const TINY_LEN: usize = 62268;
const TINY_FNV: u64 = 0xef86_f006_77e1_7e07;
const PAPER_LEN: usize = 593_029;
const PAPER_FNV: u64 = 0xc91c_7675_c461_6d91;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "querygraph-sharded-eq-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn report_json(experiment: &Experiment) -> String {
    serde_json::to_string(&experiment.run_parallel(4)).expect("report serializes")
}

#[test]
fn golden_report_tiny_config_at_four_shards() {
    let json = report_json(&Experiment::build_sharded(&ExperimentConfig::tiny(), 4));
    assert_eq!(json.len(), TINY_LEN, "sharded tiny Report length moved");
    assert_eq!(
        fnv1a(json.as_bytes()),
        TINY_FNV,
        "sharded tiny Report bytes diverged from the unsharded golden pin"
    );
}

#[test]
fn golden_report_seed_config_at_four_shards() {
    let json = report_json(&Experiment::build_sharded(
        &ExperimentConfig::default_paper(),
        4,
    ));
    assert_eq!(json.len(), PAPER_LEN, "sharded seed Report length moved");
    assert_eq!(
        fnv1a(json.as_bytes()),
        PAPER_FNV,
        "sharded seed Report bytes diverged from the unsharded golden pin"
    );
}

/// A micro world cheap enough that the property test can afford
/// building the monolithic + four sharded variants per case.
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

proptest::proptest! {
    /// For arbitrary micro worlds, the full-pipeline `Report` bytes at
    /// N ∈ {1, 2, 3, 7} shards are identical to the monolithic run's.
    #[test]
    fn report_bytes_identical_across_shard_counts(
        wiki_seed in 0u64..1_000_000,
        corpus_seed in 0u64..1_000_000,
        topics in 3usize..6,
        queries in 1usize..3,
    ) {
        let config = micro_config(wiki_seed, corpus_seed, topics, queries);
        let mono = report_json(&Experiment::build(&config));
        for n in [1usize, 2, 3, 7] {
            let sharded = report_json(&Experiment::build_sharded(&config, n));
            proptest::prop_assert_eq!(
                &mono, &sharded,
                "Report diverged at {} shards for {:?}", n, config
            );
        }
    }
}

/// Serving byte-identity end to end: a sharded world — built cold,
/// then loaded warm from its segmented artifact — answers expansion +
/// retrieval requests byte-identically to the monolithic world.
#[test]
fn sharded_serving_identical_to_monolithic_cold_and_warm() {
    let dir = temp_dir("serving");
    let config = micro_config(41, 43, 4, 2);
    let options = WorldOptions::sharded(3);
    std::fs::remove_file(manifest_path(&store_dir(&dir, &config, 3))).ok();

    let mono = ServingWorld::open(&config, None);
    let (cold, _) =
        ServingWorld::open_with_options(&config, Some(&dir), LmParams::default(), &options);
    assert_eq!(cold.stats.shard_count, 3);
    let warm = ServingWorld::load_with_options(&config, &dir, LmParams::default(), &options)
        .expect("sharded artifact loads");
    assert_eq!(warm.engine.shard_count(), 3);
    assert_eq!(warm.stats.shard_load_seconds.len(), 3);

    for article in mono.wiki.kb.main_articles().take(5) {
        let request = ExpansionRequest::new(mono.wiki.kb.title(article)).with_retrieval(10);
        let reference = mono.expander().expand(&request).expect("mono expands");
        let reference = serde_json::to_string(&reference).expect("serializes");
        for (label, world) in [("cold", &cold), ("warm", &warm)] {
            let response = world.expander().expand(&request).expect("sharded expands");
            let sharded = serde_json::to_string(&response).expect("serializes");
            assert_eq!(
                reference, sharded,
                "{label} sharded expansion diverged for {:?}",
                request.text
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupting one shard segment must yield a typed error naming that
/// shard — never a panic, never a silently wrong engine — through the
/// strict facade load.
#[test]
fn corrupt_segment_surfaces_typed_per_shard_error() {
    let dir = temp_dir("fuzz");
    let config = micro_config(47, 53, 3, 1);
    let options = WorldOptions::sharded(3);
    let store = store_dir(&dir, &config, 3);
    std::fs::remove_file(manifest_path(&store)).ok();
    ServingWorld::open_with_options(&config, Some(&dir), LmParams::default(), &options);

    let victim = store.join(segment_file(2));
    let bytes = std::fs::read(&victim).expect("segment persisted");
    let step = (bytes.len() / 256).max(1);
    for i in (0..bytes.len()).step_by(step) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xFF;
        std::fs::write(&victim, &corrupt).expect("write corrupt segment");
        match ServingWorld::load_with_options(&config, &dir, LmParams::default(), &options) {
            Err(ServiceError::ArtifactShard { shard, path, .. }) => {
                assert_eq!(shard, 2, "flip at byte {i} must blame shard 2");
                assert_eq!(path, victim);
            }
            Err(other) => panic!("flip at byte {i}: unexpected error class {other:?}"),
            Ok(_) => panic!("flip at byte {i}: corrupted segment loaded successfully"),
        }
    }
    // Truncations of the segment fail the same way; the error renders
    // with the shard index (qgx prints these).
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");
    let err = ServingWorld::load_with_options(&config, &dir, LmParams::default(), &options)
        .err()
        .expect("truncated segment must not load");
    assert!(err.to_string().contains("shard 2"), "{err}");

    // A missing manifest is the cold-cache class, not a shard error.
    std::fs::remove_file(manifest_path(&store)).ok();
    assert!(matches!(
        ServingWorld::load_with_options(&config, &dir, LmParams::default(), &options),
        Err(ServiceError::ArtifactMissing { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Mmap-backed loading is invisible: a world loaded with `--mmap`
/// serves byte-identical responses to one loaded by reading, for both
/// layouts; on any mapping problem the loader falls back to reading.
#[test]
fn mmap_loaded_worlds_serve_identically() {
    let dir = temp_dir("mmap");
    let config = micro_config(59, 61, 4, 2);
    for (label, options) in [
        ("mono", WorldOptions::default()),
        ("sharded", WorldOptions::sharded(2)),
    ] {
        let mut mmap_options = options;
        mmap_options.mmap = true;
        // Cold build + persist with the plain options.
        ServingWorld::open_with_options(&config, Some(&dir), LmParams::default(), &options);
        let read = ServingWorld::load_with_options(&config, &dir, LmParams::default(), &options)
            .expect("read load");
        let mapped =
            ServingWorld::load_with_options(&config, &dir, LmParams::default(), &mmap_options)
                .expect("mmap load");
        for article in read.wiki.kb.main_articles().take(4) {
            let request = ExpansionRequest::new(read.wiki.kb.title(article)).with_retrieval(10);
            assert_eq!(
                read.expander().expand(&request),
                mapped.expander().expand(&request),
                "{label}: mmap-loaded expansion diverged for {:?}",
                request.text
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
