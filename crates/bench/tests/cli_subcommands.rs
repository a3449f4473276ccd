//! Regression tests for the `qgx` subcommand CLI surface.
//!
//! Every invocation names a subcommand: bare flags and retired
//! subcommands are refused with the list of live ones, and typo'd
//! flags are rejected per subcommand.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const QGX: &str = env!("CARGO_BIN_EXE_qgx");

/// Run qgx with `args`, feeding `stdin`, returning (status, stdout,
/// stderr).
fn run(args: &[&str], stdin: &str) -> (std::process::ExitStatus, String, String) {
    run_in(Path::new("."), args, stdin)
}

/// [`run`] with `cwd` as the working directory.
fn run_in(cwd: &Path, args: &[&str], stdin: &str) -> (std::process::ExitStatus, String, String) {
    let mut child = Command::new(QGX)
        .current_dir(cwd)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qgx");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let output = child.wait_with_output().expect("qgx runs");
    (
        output.status,
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn bare_flags_and_retired_bench_are_rejected_with_the_subcommand_list() {
    for args in [
        &["--tiny", "--json"][..],
        &[][..],
        &["bench", "--tiny", "--rps", "50"][..],
    ] {
        let (status, stdout, stderr) = run(args, "");
        assert_eq!(status.code(), Some(2), "qgx {args:?} must be refused");
        assert!(stdout.is_empty(), "nothing is served: {stdout}");
        assert!(
            stderr.contains("(serve | replay | client | shard | dump | ingest | compact)"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn unknown_subcommand_is_rejected() {
    let (status, _, stderr) = run(&["frobnicate"], "");
    assert_eq!(status.code(), Some(2));
    assert!(stderr.contains("unknown subcommand"), "stderr: {stderr}");
}

#[test]
fn flags_are_rejected_per_subcommand() {
    for (args, refusal) in [
        // `--json` belongs to replay; serve must refuse it instead of
        // silently ignoring it.
        (&["serve", "--json"][..], "unknown flag --json"),
        // The inert redirect strategy is gone; the refusal lists the
        // live ones before any world is built.
        (
            &["replay", "--stress", "--strategy", "redirects"][..],
            "unknown --strategy \"redirects\" (cycles|links|none)",
        ),
        // qgx writes no records, replay times nothing, and the fleet
        // scatters shard by shard: the flags that steered those are
        // refused before any boot.
        (
            &["replay", "--bench-out", "r.json"][..],
            "unknown flag --bench-out",
        ),
        (
            &["serve", "--bench-out", "r.json"][..],
            "unknown flag --bench-out",
        ),
        (
            &["ingest", "--bench-out", "r.json"][..],
            "unknown flag --bench-out",
        ),
        (
            &["compact", "--bench-out", "r.json"][..],
            "unknown flag --bench-out",
        ),
        (&["replay", "--zipf", "1.2"][..], "unknown flag --zipf"),
        (&["replay", "--threads", "2"][..], "unknown flag --threads"),
        (
            &["serve", "--shard-threads", "2"][..],
            "unknown flag --shard-threads",
        ),
        // Retrieval always prunes: there is no mode to pick.
        (&["replay", "--prune"][..], "unknown flag --prune"),
        (&["serve", "--prune"][..], "unknown flag --prune"),
        // Artifacts are always read into memory: there is no byte
        // source to pick.
        (&["serve", "--mmap"][..], "unknown flag --mmap"),
        (&["replay", "--mmap"][..], "unknown flag --mmap"),
        (&["shard", "--mmap"][..], "unknown flag --mmap"),
        (&["compact", "--mmap"][..], "unknown flag --mmap"),
    ] {
        let (status, stdout, stderr) = run(args, "");
        assert_eq!(status.code(), Some(2), "qgx {args:?} must be refused");
        assert!(stdout.is_empty(), "nothing is served: {stdout}");
        assert!(stderr.contains(refusal), "stderr: {stderr}");
    }
}

/// A fresh, empty working directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qgx-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn one_flag_one_value_and_one_client_mode() {
    // Each row once ran: the first `--top-k` served, `--tiny` was read
    // as the query file (after booting the world), or the client served
    // one of two modes. Every row is refused before any world is built,
    // and the client rows before connecting to the port, where nothing
    // listens.
    let dir = scratch("one-value");
    std::fs::write(dir.join("q.txt"), "glacier\n").expect("write query file");
    let client = |mode: &[&'static str]| -> Vec<&'static str> {
        ["client", "--connect", "127.0.0.1:9"]
            .into_iter()
            .chain(mode.iter().copied())
            .collect()
    };
    for (args, refusal) in [
        (
            vec!["replay", "--tiny", "--top-k", "5", "--top-k", "7"],
            "--top-k given twice",
        ),
        (
            vec!["replay", "--queries", "--tiny"],
            "--queries requires an operand",
        ),
        (
            vec!["replay", "--tiny", "--queries", "missing.txt"],
            "cannot read missing.txt",
        ),
        (
            client(&["--healthz", "--statz"]),
            "--healthz and --statz are mutually exclusive",
        ),
        (
            client(&["--query", "glacier", "--queries", "q.txt"]),
            "--query cannot be combined with --queries",
        ),
    ] {
        let (status, stdout, stderr) = run_in(&dir, &args, "");
        assert_eq!(status.code(), Some(2), "qgx {args:?}: {stderr}");
        assert!(
            stdout.is_empty(),
            "qgx {args:?}: nothing is served: {stdout}"
        );
        assert!(stderr.contains(refusal), "qgx {args:?}: {stderr}");
        assert!(
            !stderr.contains(" articles"),
            "qgx {args:?}: booted first: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flag_the_mode_does_not_read_is_refused() {
    // Each row once ran and dropped the flag: the probe ignored the
    // tier or the request knobs, a file workload ignored the tier, a
    // flood ignored `--repeat`, and replay served stdin once. The client
    // rows are refused before connecting to the port, where nothing
    // listens; the replay row before booting.
    let client = |mode: &[&'static str]| -> Vec<&'static str> {
        ["client", "--connect", "127.0.0.1:9"]
            .into_iter()
            .chain(mode.iter().copied())
            .collect()
    };
    for (args, refusal) in [
        (
            client(&["--healthz", "--stress"]),
            "--stress applies only with --seed-queries",
        ),
        (
            client(&["--statz", "--timeout-ms", "50", "--top-k", "5"]),
            "--top-k applies only with a workload or --flood",
        ),
        (
            client(&["--healthz", "--max-features", "3"]),
            "--max-features applies only with a workload or --flood",
        ),
        (
            client(&["--statz", "--repeat", "2"]),
            "--repeat applies only with a workload",
        ),
        (
            client(&["--queries", "q.txt", "--tiny"]),
            "--tiny applies only with --seed-queries",
        ),
        (
            client(&["--query", "glacier", "--quick"]),
            "--quick applies only with --seed-queries",
        ),
        (
            client(&["--flood", "4", "--repeat", "3"]),
            "--repeat applies only with a workload",
        ),
        (
            vec!["replay", "--tiny", "--repeat", "3"],
            "--repeat applies only with --queries or --seed-queries",
        ),
    ] {
        let (status, stdout, stderr) = run(&args, "");
        assert_eq!(status.code(), Some(2), "qgx {args:?}: {stderr}");
        assert!(
            stdout.is_empty(),
            "qgx {args:?}: nothing is served: {stdout}"
        );
        assert!(stderr.contains(refusal), "qgx {args:?}: {stderr}");
        assert!(
            !stderr.contains(" articles"),
            "qgx {args:?}: booted first: {stderr}"
        );
    }
    // What each mode does read still parses: these reach the port and
    // fail there (exit 1), not at the flags.
    for mode in [
        &["--healthz", "--timeout-ms", "50"][..],
        &["--flood", "1", "--query", "glacier", "--top-k", "5"][..],
        &["--query", "glacier", "--repeat", "2", "--max-features", "3"][..],
    ] {
        let args = client(mode);
        let (status, _, stderr) = run(&args, "");
        assert_eq!(status.code(), Some(1), "qgx {args:?}: {stderr}");
    }
}

#[test]
fn a_zero_entry_expansion_cache_boots_with_the_cache_off() {
    let (status, _, stderr) = run(&["replay", "--tiny", "--expansion-cache", "0"], "");
    assert!(status.success(), "stderr: {stderr}");
    assert!(stderr.contains("cache off"), "stderr: {stderr}");
    assert!(!stderr.contains("# expansion cache:"), "stderr: {stderr}");
}

#[test]
fn replay_deadline_flag_reports_typed_timeouts() {
    // `--deadline-ms 0` expires immediately: every query is refused
    // as a typed timeout without killing the loop.
    let (status, stdout, _) = run(
        &["replay", "--tiny", "--json", "--deadline-ms", "0"],
        "anything\n",
    );
    assert!(status.success());
    assert!(stdout.contains("\"code\":\"timeout\""), "stdout: {stdout}");
}
