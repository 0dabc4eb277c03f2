#!/usr/bin/env bash
# Heap profile of one benchmark workload, counted from outside the program:
#
#   tools/heap_profile.sh <workload> [benchmark options...]
#
# Builds the benchmark with debug info into target/heapprof, runs the
# workload under the tools/heapprof LD_PRELOAD shim (malloc, calloc, realloc,
# posix_memalign and free, each allocation call with its call stack) and
# prints the allocation sites by call count and the bytes each site held
# live at the process's peak. A site is the innermost crates/ source line on
# the stack. The window is the whole process, warm-up, canary and report
# included, so read shares rather than totals against the benchmark's
# allocs_per_sim_s and peak_heap_mib. The build's rewrite of
# benchmark/Cargo.lock is put back, so benchmark/ is left as it was found.
# Needs gcc, addr2line and python3; x86-64 Linux with glibc. A developer
# tool, not a CI gate.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/target/heapprof"
workload="${1:?usage: tools/heap_profile.sh <workload> [benchmark options...]}"
shift
[[ $# -gt 0 ]] || set -- --seed 1 --seconds 20 --trace 0

mkdir -p "$out"
gcc -O2 -shared -fPIC -o "$out/heapprof.so" "$root/tools/heapprof/heapprof.c"
lock="$root/benchmark/Cargo.lock"
cp "$lock" "$out/Cargo.lock.kept"
trap 'cmp -s "$out/Cargo.lock.kept" "$lock" || cp "$out/Cargo.lock.kept" "$lock"' EXIT
CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$out" \
  cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

# The shim goes on the benchmark process alone, not on cargo or this shell.
HEAPPROF_OUT="$out/$workload.heap" LD_PRELOAD="$out/heapprof.so" \
  "$out/release/dsr-benchmark" "$workload" "$@" >&2
python3 "$root/tools/heapprof/symbolise.py" "$out/$workload.heap"
