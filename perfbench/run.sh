#!/usr/bin/env bash
# Builds the release `dae-serve` binary and the benchmark from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); span logs of traced runs go to .bench_out/.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p dae-serve --bin dae-serve
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/dae-serve" "$@"
