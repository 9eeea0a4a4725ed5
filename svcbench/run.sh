#!/usr/bin/env bash
# Builds the benchmark (and, through it, the service crates) from source,
# then runs it. Run from the repository root:
#   bash svcbench/run.sh --workload certify --seed 1 --seconds 20 --trace 0
# Build output goes to standard error; the benchmark's report and its final
# JSON line go to standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/svcbench" "$@"
