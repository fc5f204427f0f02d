#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output is
#       the JSON result BENCHMARK.json describes.
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--quick]
#       the suite: each workload in fresh child processes, three untraced
#       runs then a traced one; writes benchmark/out/result.json (see
#       README.md).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Relative, so it lands inside the checkout wherever that is.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/bench" "$@"
