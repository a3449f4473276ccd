//! Process-level pin of the one `repro_all` record contract that has a
//! reader: the repo benchmark's `repro_batch` trace
//! (`benchmark/src/trace.rs::repro`) parses `repro_all --bench-out`
//! records by field path, and nothing else writes a record unasked.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const REPRO_ALL: &str = env!("CARGO_BIN_EXE_repro_all");

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-record-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro_all(cwd: &Path, args: &[&str]) -> Output {
    Command::new(REPRO_ALL)
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("repro_all runs")
}

fn child<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("record lacks {key:?}"))
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("expected a number, found {}", other.kind()),
    }
}

/// The pipeline stages `BENCHMARK.json` names as `core.pipeline.<stage>_s`.
fn benchmark_pipeline_stages() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let declared: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    child(&declared, "per_layer")
        .as_array()
        .expect("per_layer is an array")
        .iter()
        .filter_map(|metric| child(metric, "name").as_str())
        .filter_map(|name| name.strip_prefix("core.pipeline.")?.strip_suffix("_s"))
        .map(str::to_string)
        .collect()
}

#[test]
fn no_record_unless_asked_and_the_record_carries_what_the_benchmark_reads() {
    let dir = scratch("contract");

    let plain = repro_all(&dir, &["--tiny"]);
    assert!(plain.status.success(), "repro_all --tiny failed");
    let left_behind: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir lists")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(
        left_behind.is_empty(),
        "repro_all without --bench-out/--json wrote {left_behind:?}"
    );

    let asked = repro_all(&dir, &["--tiny", "--bench-out", "record.json"]);
    assert!(asked.status.success(), "repro_all --bench-out failed");
    assert_eq!(
        asked.stdout, plain.stdout,
        "the record flag must not move the report"
    );
    let text = std::fs::read_to_string(dir.join("record.json")).expect("record written");
    let record: Value = serde_json::from_str(&text).expect("record parses");

    for field in ["build_seconds", "world_seconds", "index_build_seconds"] {
        assert!(number(child(&record, field)) >= 0.0, "{field}");
    }
    let run = child(&record, "run");
    assert!(number(child(run, "ground_truth_evaluations")) > 0.0);
    let hit_rate = number(child(run, "ground_truth_cache_hit_rate"));
    assert!((0.0..=1.0).contains(&hit_rate), "hit rate {hit_rate}");

    // `[name, seconds]` pairs, one per stage the benchmark reports.
    let pairs: Vec<(&str, f64)> = child(run, "stage_seconds")
        .as_array()
        .expect("stage_seconds is an array")
        .iter()
        .map(|pair| match pair.as_array() {
            Some([name, seconds]) => (name.as_str().expect("stage name"), number(seconds)),
            _ => panic!("stage_seconds entry is not a [name, seconds] pair"),
        })
        .collect();
    let stages = benchmark_pipeline_stages();
    assert!(!stages.is_empty(), "BENCHMARK.json names pipeline stages");
    for stage in &stages {
        let seconds = pairs
            .iter()
            .find(|(name, _)| name == stage)
            .unwrap_or_else(|| panic!("stage_seconds lacks {stage:?}: {pairs:?}"))
            .1;
        assert!(seconds >= 0.0, "{stage}: {seconds}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trailing_json_flag_is_refused_not_ignored() {
    // Refused while parsing flags, before anything could be written.
    let output = repro_all(&std::env::temp_dir(), &["--tiny", "--json"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--json requires an operand"),
        "stderr: {stderr}"
    );
}
