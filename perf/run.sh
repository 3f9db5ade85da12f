#!/usr/bin/env bash
# Builds the benchmark runner and the zbp-serve daemon from this
# checkout, then runs the runner with the given arguments.
#
#   bash perf/run.sh --workload fig5_warm --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Builds go to $CARGO_TARGET_DIR,
# `.bench_build` when it is unset.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --offline --release --manifest-path perf/Cargo.toml
cargo build --quiet --offline --release --bin zbp-serve
exec "$CARGO_TARGET_DIR/release/zbp-perf" --serve-bin "$CARGO_TARGET_DIR/release/zbp-serve" "$@"
