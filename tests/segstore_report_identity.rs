//! The segment store must be invisible in the science: a corpus
//! ingested incrementally (uneven batches, multiple publishes) and
//! then compacted must drive the full §2–§3 pipeline to a `Report`
//! that is **byte-identical** to a one-shot in-memory build — at any
//! shard count. This is the library-level half of the ISSUE 9
//! acceptance bar; `crates/bench/tests/segstore_ingest.rs` and CI's
//! `ingest-smoke` job `cmp` the same contract at the process level.

use querygraph::core::experiment::{Experiment, ExperimentConfig};
use querygraph::corpus::imageclef::linking_text;
use querygraph::retrieval::index::IndexBuilder;
use querygraph::retrieval::lm::LmParams;
use querygraph::retrieval::ondisk::ArtifactSource;
use querygraph::retrieval::segstore::{self, SegStore};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "querygraph-segstore-report-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn incremental_ingest_then_compaction_reproduces_the_one_shot_report() {
    let config = ExperimentConfig::tiny();
    let one_shot = Experiment::build(&config);
    let baseline = serde_json::to_string(&one_shot.run_parallel(4)).expect("report serializes");
    let fingerprint = querygraph::core::cache::config_fingerprint(&config);

    for &shards in &[1usize, 4] {
        let dir = temp_dir(&format!("shards{shards}"));
        let mut store = SegStore::open(&dir, fingerprint).expect("open store");

        // Ingest the same documents in deliberately uneven batches —
        // every commit publishes a new generation, exactly like
        // repeated `qgx ingest` runs against a growing dump.
        let mut builder = IndexBuilder::new();
        let mut in_batch = 0usize;
        for (i, (_, doc)) in one_shot.corpus.corpus.iter().enumerate() {
            builder.add_document(&linking_text(doc));
            in_batch += 1;
            if in_batch >= 7 + (i % 11) {
                let full = std::mem::replace(&mut builder, IndexBuilder::new());
                store.commit_segment(&full.build()).expect("commit segment");
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            store.commit_segment(&builder.build()).expect("commit tail");
        }
        assert!(
            store.manifest().segments.len() > shards,
            "the fixture must actually exercise a merge"
        );

        segstore::compact(&mut store, shards, ArtifactSource::Read)
            .expect("compact")
            .expect("store has published");
        let generation = segstore::load_generation(&dir, fingerprint, ArtifactSource::Read)
            .expect("load generation")
            .expect("store has published");
        assert_eq!(generation.manifest.segments.len(), shards);
        assert_eq!(
            generation.manifest.total_docs() as usize,
            one_shot.corpus.corpus.len()
        );

        let incremental = Experiment {
            wiki: one_shot.wiki.clone(),
            corpus: one_shot.corpus.clone(),
            engine: generation.into_engine(LmParams::default()),
            config: config.clone(),
        };
        let report =
            serde_json::to_string(&incremental.run_parallel(4)).expect("report serializes");
        assert_eq!(
            report, baseline,
            "segstore-backed report must be byte-identical at {shards} shard(s)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
