//! Regenerate every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p querygraph-bench --bin repro_all -- \
//!     [--tiny | --quick | --stress [--quick]] [--index-cache <dir>] \
//!     [--shards <n>] [--mmap] [--bench-out <path>] [--json out.json]
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
//! [`querygraph_core::Report`] is written too.
//! With `--shards <n>` the world runs on the doc-partitioned sharded
//! backend (and segmented artifact layout) — the `Report` is
//! byte-identical to the monolithic run at any shard count; `--mmap`
//! maps artifacts instead of reading them.

use querygraph_bench::{flag_operand, BenchRecord, CliOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let options = CliOptions::from_vec(&args);
    let report_out = flag_operand(&args, "--json");
    let config = options.config();
    let (report, summary, build) = querygraph_bench::report_and_summary_with(
        &config,
        options.index_cache.as_deref(),
        &options.world_options(),
    );
    print!("{}", report.render_all());

    if let Some(path) = &options.bench_out {
        let record = BenchRecord::new(&config, &build, summary);
        let json = serde_json::to_string_pretty(&record).expect("bench record serializes");
        std::fs::write(path, json).expect("write bench record");
        eprintln!("# wrote {path}");
    }

    if let Some(path) = &report_out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(path, json).expect("write report JSON");
        eprintln!("# wrote {path}");
    }
}
