//! Process-level tests for `qgx shard` and the `--shard-procs N`
//! supervisor.
//!
//! The headline contract (ISSUE 8 / DESIGN.md §13): a fleet of shard
//! *processes* answers byte-identically to the in-process sharded
//! engine over the same segment store, and a shard that dies
//! mid-serving surfaces as a typed `artifact_shard` error naming its
//! endpoint — never a hang, never a panic.

#[cfg(unix)]
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const QGX: &str = env!("CARGO_BIN_EXE_qgx");

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qgx-shard-procs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run qgx to completion with `args`, returning (status, stdout, stderr).
fn run(args: &[&str]) -> (std::process::ExitStatus, String, String) {
    let output = Command::new(QGX)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("qgx runs");
    (
        output.status,
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Build the tiny tier's `shards`-segment store into `cache` (one
/// in-process replay run; the cache module stages the segments and
/// publishes the manifest).
fn build_sharded_cache(cache: &str, shards: &str) -> (String, String) {
    let (status, stdout, stderr) = run(&[
        "replay",
        "--tiny",
        "--shards",
        shards,
        "--index-cache",
        cache,
        "--seed-queries",
        "--json",
        "--top-k",
        "5",
    ]);
    assert!(status.success(), "cache-building replay failed: {stderr}");
    (stdout, stderr)
}

#[test]
fn shard_procs_replay_is_byte_identical_to_in_process() {
    let dir = scratch("identity");
    let cache = dir.to_str().expect("utf-8 temp path");
    // Run 1 builds the cache's segment store and serves in process.
    let (in_process, _) = build_sharded_cache(cache, "3");
    // Run 2 serves the same workload across 3 supervised shard
    // processes loading those segments.
    let (status, remote, stderr) = run(&[
        "replay",
        "--tiny",
        "--shards",
        "3",
        "--index-cache",
        cache,
        "--shard-procs",
        "3",
        "--seed-queries",
        "--json",
        "--top-k",
        "5",
    ]);
    assert!(status.success(), "shard-procs replay failed: {stderr}");
    assert_eq!(
        in_process, remote,
        "shard processes must answer byte-identically to in-process sharding"
    );
    // The supervisor reported every child's boot and drain.
    for shard in 0..3 {
        assert!(
            stderr.contains(&format!("shard {shard} pid")),
            "missing boot line for shard {shard}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("shard {shard} exited")),
            "missing drain line for shard {shard}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segment store a `--shards <shards>` tiny-tier cache build keeps
/// under `cache`.
fn cache_store(cache: &std::path::Path, shards: usize) -> String {
    let config = querygraph_core::experiment::ExperimentConfig::tiny();
    let store = querygraph_core::cache::store_dir(cache, &config, shards);
    assert!(store.join("segstore.qgss").exists(), "no published store");
    store.to_str().expect("utf-8 path").to_string()
}

#[test]
fn sharded_cache_directory_replays_as_a_segment_store() {
    let dir = scratch("cache-is-store");
    let cache = dir.to_str().expect("utf-8 temp path");
    let (via_cache, _) = build_sharded_cache(cache, "4");
    let store = cache_store(&dir, 4);
    let (status, via_store, stderr) = run(&[
        "replay",
        "--tiny",
        "--segstore",
        &store,
        "--seed-queries",
        "--json",
        "--top-k",
        "5",
    ]);
    assert!(
        status.success(),
        "segstore replay of the cache failed: {stderr}"
    );
    assert_eq!(
        via_cache, via_store,
        "a --shards N index cache must serve byte-identically through --segstore"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_child_refuses_a_wrong_fingerprint() {
    let dir = scratch("fingerprint");
    let cache = dir.to_str().expect("utf-8 temp path");
    build_sharded_cache(cache, "2");
    // The child must die on a fingerprint mismatch before it can
    // answer for a segment it does not own.
    let (status, _, stderr) = run(&[
        "shard",
        "--segstore",
        &cache_store(&dir, 2),
        "--seq",
        "0",
        "--shard",
        "0",
        "--fingerprint",
        "deadbeefdeadbeef",
    ]);
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("fingerprint mismatch"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_subcommand_requires_its_identity_flags() {
    // The slot-keyed `--dir/--stem` layout is gone, not deprecated.
    let (status, _, stderr) = run(&["shard", "--dir", "/nonexistent"]);
    assert_eq!(status.code(), Some(2));
    assert!(stderr.contains("unknown flag --dir"), "stderr: {stderr}");
    let (status, _, stderr) = run(&["shard", "--shard", "0"]);
    assert_eq!(status.code(), Some(2));
    assert!(stderr.contains("requires --segstore"), "stderr: {stderr}");
    // And --shard-procs without the segmented layout is refused, not
    // silently served in process.
    let (status, _, stderr) = run(&["replay", "--tiny", "--shard-procs", "2", "--seed-queries"]);
    assert_eq!(status.code(), Some(2));
    assert!(
        stderr.contains("--shard-procs requires --index-cache"),
        "stderr: {stderr}"
    );
}

#[cfg(unix)]
#[test]
fn killing_one_shard_yields_typed_artifact_shard_errors() {
    let dir = scratch("kill");
    let cache = dir.to_str().expect("utf-8 temp path");
    build_sharded_cache(cache, "2");

    let mut serve = Command::new(QGX)
        .args([
            "serve",
            "--tiny",
            "--shards",
            "2",
            "--index-cache",
            cache,
            "--shard-procs",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--top-k",
            "5",
            "--deadline-ms",
            "10000",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qgx serve");

    // Boot order on stderr: world line, one "shard {i} pid {p}
    // listening on {addr}" per child, then the HTTP listen line.
    let mut reader = BufReader::new(serve.stderr.take().expect("piped stderr"));
    let mut shard_pids: Vec<u32> = Vec::new();
    let mut http_addr = None;
    for _ in 0..64 {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read serve stderr") == 0 {
            break;
        }
        if line.contains(" pid ") {
            let pid = line
                .split(" pid ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|t| t.parse().ok())
                .expect("pid parses");
            shard_pids.push(pid);
        }
        if let Some(rest) = line.strip_prefix("# qgx: listening on ") {
            http_addr = rest.split_whitespace().next().map(str::to_string);
            break;
        }
    }
    let http_addr = http_addr.expect("serve announced its HTTP address");
    assert_eq!(shard_pids.len(), 2, "two supervised children");

    // Baseline: the fleet answers (at least one seed query links and
    // retrieves through both shard processes).
    let (status, stdout, stderr) = run(&[
        "client",
        "--connect",
        &http_addr,
        "--seed-queries",
        "--tiny",
        "--top-k",
        "5",
        "--timeout-ms",
        "15000",
    ]);
    assert!(status.success(), "client failed: {stderr}");
    assert!(stdout.contains("\"hits\""), "no retrieval served: {stdout}");
    assert!(!stdout.contains("artifact_shard"), "healthy fleet errored");

    // Kill shard 1 outright, then replay the same workload: every
    // query that reaches retrieval must come back as a typed
    // `artifact_shard` error naming the dead endpoint — a clean HTTP
    // answer, not a hang or a worker panic.
    let killed = shard_pids[1];
    let kill = Command::new("kill")
        .args(["-9", &killed.to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "kill -9 {killed} failed");
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (status, stdout, stderr) = run(&[
        "client",
        "--connect",
        &http_addr,
        "--seed-queries",
        "--tiny",
        "--top-k",
        "5",
        "--timeout-ms",
        "15000",
    ]);
    assert!(status.success(), "client failed after kill: {stderr}");
    assert!(
        stdout.contains("\"code\":\"artifact_shard\""),
        "dead shard must surface as a typed artifact_shard error: {stdout}"
    );
    assert!(
        stdout.contains("index artifact shard 1"),
        "the error must name the dead shard: {stdout}"
    );

    // SIGTERM drains the supervisor: the surviving child exits, the
    // dead one is reaped, and serve itself exits 0.
    let term = Command::new("kill")
        .args(["-TERM", &serve.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let status = serve.wait().expect("serve exits");
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("drain serve stderr");
    assert!(status.success(), "serve must exit 0 after SIGTERM: {rest}");
    assert!(
        rest.contains("shard 0 exited") && rest.contains("shard 1 exited"),
        "supervisor must reap both children: {rest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
