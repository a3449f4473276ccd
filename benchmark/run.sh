#!/usr/bin/env bash
# The repo benchmark's one command. Builds the served binaries (root
# `cargo build --release` does not build qgx/repro_all) and the harness
# into one target directory, then hands over to the harness:
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out runs.json]
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "error: $PWD is not a checkout of the repository (no Cargo.toml / crates/): nothing to build or measure" >&2
  exit 3
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# Build output goes to stderr: stdout carries only result lines.
cargo build --release --offline --quiet -p querygraph-bench --bin qgx --bin repro_all 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/qgx-benchmark" "$@"
