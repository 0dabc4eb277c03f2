#!/usr/bin/env bash
# Sampled profile of one benchmark workload, no perf(1) needed:
#
#   tools/sample_profile.sh <workload> [benchmark options...]
#
# Builds the benchmark with debug info into target/sigprof (so neither
# benchmark/target nor its timings are disturbed), runs the workload under
# the tools/sigprof LD_PRELOAD shim (a SIGPROF per timer tick of CPU time) and
# prints the top outermost symbols, inlined frames and crates/ source lines.
# Needs gcc, addr2line and python3. A developer tool, not a CI gate.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/target/sigprof"
workload="${1:?usage: tools/sample_profile.sh <workload> [benchmark options...]}"
shift
[[ $# -gt 0 ]] || set -- --seed 1 --seconds 20 --trace 0

mkdir -p "$out"
gcc -O2 -shared -fPIC -o "$out/sigprof.so" "$root/tools/sigprof/sigprof.c"
CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$out" \
  cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

# The shim goes on the benchmark process alone, not on cargo or this shell.
SIGPROF_OUT="$out/$workload.samples" LD_PRELOAD="$out/sigprof.so" \
  "$out/release/dsr-benchmark" "$workload" "$@" >&2
python3 "$root/tools/sigprof/symbolise.py" "$out/$workload.samples"
