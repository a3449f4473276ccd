//! Index-cache smoke check: build → persist → reload → compare.
//!
//! ```text
//! cargo run --release -p querygraph-bench --bin repro_index_cache -- \
//!     [--tiny | --quick | --stress [--quick] | --track [--quick]] \
//!     [--index-cache <dir>]
//! ```
//!
//! Runs the selected configuration **twice** against one cache
//! directory: the first (cold) run builds the inverted index and
//! publishes it as a one-segment store, the second (warm) run loads
//! it. The two serialized
//! `Report`s must be byte-identical — the cache may only buy time,
//! never change a result — and the load must beat the build by the
//! factor the ROADMAP promises (≥ 5×). Exits non-zero when either
//! fails; CI's `index-cache` job runs this on every PR.

use querygraph_bench::{Args, CliOptions};
use querygraph_core::cache::IndexSource;
use querygraph_core::experiment::Experiment;
use querygraph_retrieval::ondisk::fnv1a;

fn main() {
    let options = Args::from_env(&[("--index-cache", true)])
        .and_then(|args| CliOptions::from_args(&args))
        .unwrap_or_else(|e| e.exit());
    let config = options.config();
    let cache_dir = options.index_cache.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("querygraph-index-cache-{}", std::process::id()))
    });
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    // Start cold even if the directory already holds this world's store.
    std::fs::remove_dir_all(querygraph_core::cache::store_dir(&cache_dir, &config, 1)).ok();

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut fingerprints = Vec::new();
    let mut stats = Vec::new();
    for pass in ["cold", "warm"] {
        let (experiment, build) = Experiment::build_with_cache(&config, Some(&cache_dir));
        eprintln!(
            "# {pass}: world {:.3}s, index {} (build {:.3}s, write {:.3}s, load {:.3}s)",
            build.world_seconds,
            build.index_source.name(),
            build.index_build_seconds,
            build.index_write_seconds,
            build.index_load_seconds,
        );
        let json =
            serde_json::to_string(&experiment.run_parallel(threads)).expect("report serializes");
        fingerprints.push((json.len(), fnv1a(json.as_bytes())));
        stats.push(build);
    }

    let (cold, warm) = (&stats[0], &stats[1]);
    let mut failed = false;
    if cold.index_source != IndexSource::Built || warm.index_source != IndexSource::Loaded {
        eprintln!(
            "FAIL: expected cold=built/warm=loaded, got cold={}/warm={}",
            cold.index_source.name(),
            warm.index_source.name()
        );
        failed = true;
    }
    if fingerprints[0] != fingerprints[1] {
        eprintln!(
            "FAIL: loaded-index report diverged: cold len={} fnv={:#018x}, warm len={} fnv={:#018x}",
            fingerprints[0].0, fingerprints[0].1, fingerprints[1].0, fingerprints[1].1
        );
        failed = true;
    }
    let speedup = cold.index_build_seconds / warm.index_load_seconds.max(1e-9);
    println!(
        "index-cache smoke: report len={} fnv={:#018x}; \
         build {:.3}s vs load {:.3}s ({speedup:.1}x)",
        fingerprints[0].0, fingerprints[0].1, cold.index_build_seconds, warm.index_load_seconds,
    );
    if speedup < 5.0 {
        eprintln!(
            "FAIL: index load must be ≥ 5x faster than build, got {speedup:.1}x \
             (build {:.4}s, load {:.4}s)",
            cold.index_build_seconds, warm.index_load_seconds
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
