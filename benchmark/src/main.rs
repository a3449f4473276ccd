//! The repo benchmark.
//!
//! ```text
//! qgx-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out runs.json]
//! qgx-benchmark compare A.json B.json
//! ```
//!
//! Run from the repository root through `benchmark/run.sh`, which
//! builds `qgx`, `repro_all` and this binary into one target directory
//! first. One run measures one workload; its last stdout line is the
//! result object `BENCHMARK.json`'s contract describes, everything else
//! goes to stderr. `--workload all` runs the five workloads in turn,
//! each untraced and then traced. See `benchmark/README.md`.

mod client;
mod compare;
mod json;
mod load;
mod metrics;
mod oracle;
mod plan;
mod proc;
mod stats;
mod trace;
mod workloads;

use metrics::Report;
use serde::Value;
use std::path::{Path, PathBuf};

/// Default `--seed` (any value works; this one names the defining run).
const DEFAULT_SEED: u64 = 20_150_505;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// Append `report` to the JSON array in `path` (created when absent).
fn archive(path: &Path, report: &Report) -> Result<(), String> {
    let mut runs = if path.exists() {
        match json::read(path)? {
            Value::Array(runs) => runs,
            _ => return Err(format!("{} is not an array of run records", path.display())),
        }
    } else {
        Vec::new()
    };
    runs.push(report.archive());
    let text = serde_json::to_string_pretty(&Value::Array(runs)).expect("a value tree serializes");
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Run the workloads asked for; returns whether every run was correct
/// and failure-free.
fn run(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload")?.ok_or("--workload <name|all> is required")?;
    let parse = |name: &str, text: Option<String>, default: f64| -> Result<f64, String> {
        text.map_or(Ok(default), |t| {
            t.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{name} takes a non-negative number, got {t:?}"))
        })
    };
    let seed = flag(args, "--seed")?.map_or(Ok(DEFAULT_SEED), |t| {
        t.parse::<u64>()
            .map_err(|_| format!("--seed takes a whole number, got {t:?}"))
    })?;
    let seconds = parse("--seconds", flag(args, "--seconds")?, DEFAULT_SECONDS)?.max(1.0);
    let trace = parse("--trace", flag(args, "--trace")?, 0.0)? != 0.0;
    let out = flag(args, "--out")?.map(PathBuf::from);

    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("this binary has no directory")?
        .to_path_buf();
    for binary in ["qgx", "repro_all"] {
        if !bin_dir.join(binary).is_file() {
            return Err(format!(
                "{} is missing — run through benchmark/run.sh, which builds it",
                bin_dir.join(binary).display()
            ));
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !root.join("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root (benchmark/run.sh does)".to_string());
    }
    proc::install_signal_flag();

    let plan: Vec<(&str, bool)> = if workload == "all" {
        metrics::WORKLOADS
            .iter()
            .flat_map(|w| [(*w, false), (*w, true)])
            .collect()
    } else {
        vec![(workload.as_str(), trace)]
    };
    let mut all_good = true;
    for (name, trace) in plan {
        let env = workloads::Env {
            bin_dir: bin_dir.clone(),
            work: proc::WorkDir::create(&root.join("benchmark/.work"))?,
            seed,
            seconds,
            trace,
            out_dir: root.join("benchmark/out"),
        };
        let report = workloads::run(&env, name)?;
        eprint!("{}", report.render());
        if let Some(path) = out.as_ref().filter(|_| !trace) {
            archive(path, &report)?;
        }
        println!("{}", report.result_line(trace));
        all_good &= report.correct && report.failed() == 0;
    }
    Ok(all_good)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => {
                compare::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))
                    .map(|regressed| !regressed)
            }
            _ => Err("usage: compare A.json B.json".to_string()),
        }
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}
