//! Regression tests for the `qgx` subcommand CLI surface.
//!
//! Every invocation names a subcommand: bare flags and retired
//! subcommands are refused with the list of live ones, and typo'd
//! flags are rejected per subcommand.

use std::io::Write;
use std::process::{Command, Stdio};

const QGX: &str = env!("CARGO_BIN_EXE_qgx");

/// Run qgx with `args`, feeding `stdin`, returning (status, stdout,
/// stderr).
fn run(args: &[&str], stdin: &str) -> (std::process::ExitStatus, String, String) {
    let mut child = Command::new(QGX)
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
    // `--json` belongs to replay; serve must refuse it instead of
    // silently ignoring it.
    let (status, _, stderr) = run(&["serve", "--json"], "");
    assert_eq!(status.code(), Some(2));
    assert!(stderr.contains("unknown flag --json"), "stderr: {stderr}");
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
