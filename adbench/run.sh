#!/usr/bin/env bash
# Builds the shipped ad-serve daemon and the benchmark binary from this
# checkout, then runs one workload.
#
#   bash adbench/run.sh --workload <plan-paper|serve-hot|serve-churn> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of stdout is the result JSON.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p ad-serve --bin ad-serve >&2
cargo build --release --quiet --manifest-path adbench/Cargo.toml >&2

ADBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
ADBENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export ADBENCH_RUSTC ADBENCH_COMMIT

exec "$CARGO_TARGET_DIR/release/adbench" \
    --ad-serve "$CARGO_TARGET_DIR/release/ad-serve" \
    --scratch "$CARGO_TARGET_DIR/adbench-scratch" \
    "$@"
