#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark binary from source
# (offline, release) and runs one workload on the calling thread.
#
#   benchmark/run.sh <workload> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --workload <workload> --seed N --seconds S --trace 0|1
#   benchmark/run.sh <workload> --record-golden
#   benchmark/run.sh <workload> --aa
#
# Workloads: mobile_dsr static_saturated mobile_aodv observed_faulted.
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo's own default would be benchmark/target; the benchmark driver sets
# CARGO_TARGET_DIR itself (relative to where it runs us from, so resolve it
# before changing directory).
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's lines,
# the result object last.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/dsr-benchmark" "$@"
