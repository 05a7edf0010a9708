#!/usr/bin/env bash
# Records the simulator-throughput baseline.
#
# Runs the event-vs-reference comparison binary, which writes
# BENCH_simulator_throughput.json at the repository root (stamped with the
# commit hash it was measured at) and fails if any enforced speedup floor
# is broken: DM 3.4x pipeline / 2.4x scheduler-only, SWSM 3.0x / 2.5x,
# scalar 3.5x / 2.8x, 0.98x for both the pooled-sweep and the
# session-vs-per-call benchmarks, 1.0x for the cache-warm-vs-cold
# benchmark, 1.0x for the contention benchmark (an interactive-tagged
# probe's p99 latency under a refilled bulk backlog must never exceed the
# FIFO-shaped probe's p99), and 0.95x for the skewed-cost grid (work
# stealing vs the old fixed-chunk FIFO shape — a loss guard on one
# hardware thread, a real win on multi-core boxes where the expensive
# tail chunk serializes under FIFO).  See the floor constants in
# crates/bench/src/bin/bench_throughput.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p dae-bench --bin bench_throughput
