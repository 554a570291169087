#!/usr/bin/env bash
# Builds the `fascia` CLI and the benchmark from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload portland-u12 --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fascia-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --fascia "$CARGO_TARGET_DIR/release/fascia" \
    --work "$CARGO_TARGET_DIR/perfbench" "$@"
