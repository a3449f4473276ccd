//! Regenerate every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p querygraph-bench --bin repro_all -- \
//!     [--tiny | --quick | --stress [--quick] | --track [--quick]] \
//!     [--index-cache <dir>] [--shards <n>] [--bench-out <path>] \
//!     [--json out.json]
//! ```
//!
//! Prints paper-vs-measured for Tables 2–4, Figs. 5, 6, 7a, 7b, 9 and
//! the §3 scalar statistics. With `--bench-out <path>` the run's
//! machine-readable timing record ([`BenchRecord`]) is written there —
//! the repo benchmark's `repro_batch` workload reads it. With
//! `--index-cache <dir>` the inverted index is persisted there on the
//! first run and loaded (instead of rebuilt) on subsequent runs; the
//! record's `index_build_seconds` / `index_load_seconds` track the
//! speedup. With `--json <path>` the full machine-readable
//! [`querygraph_core::experiment::Report`] is written too.
//! With `--shards <n>` the world runs on the doc-partitioned sharded
//! backend (and segmented artifact layout) — the `Report` is
//! byte-identical to the monolithic run at any shard count. Any other
//! argument, a repeated flag, a missing operand, conflicting tier
//! flags or `--shards 0` exits 2 before anything runs.

use querygraph_bench::{Args, BenchRecord, CliOptions, Flag};

/// The flags `repro_all` takes beside the tier flags.
const FLAGS: [Flag; 4] = [
    ("--index-cache", true),
    ("--shards", true),
    ("--bench-out", true),
    ("--json", true),
];

fn main() {
    let parsed = Args::from_env(&FLAGS).and_then(|args| {
        let report_out = args.operand("--json").map(str::to_string);
        Ok((CliOptions::from_args(&args)?, report_out))
    });
    let (options, report_out) = parsed.unwrap_or_else(|e| e.exit());
    let config = options.config();
    let (report, summary, build) = querygraph_bench::report_and_summary_with(
        &config,
        options.index_cache.as_deref(),
        &options.world_options(),
    );
    print!("{}", report.render_all());

    if let Some(path) = &options.bench_out {
        let record = BenchRecord::new(&config, &build, summary);
        write(
            path,
            serde_json::to_string_pretty(&record).expect("bench record serializes"),
        );
    }
    if let Some(path) = &report_out {
        write(
            path,
            serde_json::to_string_pretty(&report).expect("report serializes"),
        );
    }
}

/// Write an output file, or exit 1 with the reason: an unwritable path
/// is the caller's mistake, not a crash.
fn write(path: &str, json: String) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("# wrote {path}");
}
