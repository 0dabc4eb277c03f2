#!/usr/bin/env bash
# Offline verification harness.
#
# The build container cannot reach the cargo registry, so `cargo build`
# fails at dependency resolution before compiling a single line. This
# script reproduces tier-1 verification with bare `rustc`: it compiles a
# stub `rand` (tools/offline/rand_stub.rs), builds every workspace crate
# in dependency order, runs every crate's unit tests, the dsr crate's and
# the runner's integration tests, and the non-proptest root integration
# tests, and builds the experiment binaries.
#
# Usage: tools/offline_check.sh [--quick]
#   --quick  build + unit tests only (skip integration tests and binaries)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/target/offline"
mkdir -p "$out"
edition=2021
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

RUSTC=(rustc --edition "$edition" -O --cap-lints allow -L "$out")

note() { printf '== %s\n' "$*"; }

# rlib name for a crate ("sim-core" -> sim_core)
mangle() { printf '%s' "${1//-/_}"; }

extern_flags() {
  local flags=()
  for d in "$@"; do
    flags+=(--extern "$(mangle "$d")=$out/lib$(mangle "$d").rlib")
  done
  printf '%s\n' "${flags[@]+"${flags[@]}"}"
}

build_lib() { # build_lib <name> <src> [deps...]
  local name=$1 src=$2
  shift 2
  local externs
  mapfile -t externs < <(extern_flags "$@")
  note "lib $name"
  "${RUSTC[@]}" --crate-type rlib --crate-name "$(mangle "$name")" \
    -o "$out/lib$(mangle "$name").rlib" "${externs[@]+"${externs[@]}"}" "$src"
}

unit_test() { # unit_test <name> <src> [deps...]
  local name=$1 src=$2
  shift 2
  local externs
  mapfile -t externs < <(extern_flags "$@")
  note "unit tests: $name"
  "${RUSTC[@]}" --test --crate-name "$(mangle "$name")_unit" \
    -o "$out/${name}_unit" "${externs[@]+"${externs[@]}"}" "$src"
  "$out/${name}_unit" --test-threads=4 -q
}

integration_test() { # integration_test <name> <src> [deps...]
  local name=$1 src=$2
  shift 2
  local externs
  mapfile -t externs < <(extern_flags "$@")
  note "integration test: $name"
  "${RUSTC[@]}" --test --crate-name "$(mangle "$name")" \
    -o "$out/it_$name" "${externs[@]+"${externs[@]}"}" "$src"
  "$out/it_$name" --test-threads=4 -q
}

build_bin() { # build_bin <name> <src> [deps...]
  local name=$1 src=$2
  shift 2
  local externs
  mapfile -t externs < <(extern_flags "$@")
  note "bin $name"
  "${RUSTC[@]}" --crate-type bin --crate-name "$(mangle "$name")" \
    -o "$out/bin_$name" "${externs[@]+"${externs[@]}"}" "$src"
}

cd "$root"

note "stub rand"
"${RUSTC[@]}" --crate-type rlib --crate-name rand \
  -o "$out/librand.rlib" tools/offline/rand_stub.rs

# --- workspace crates, dependency order ------------------------------------
build_lib sim-core crates/sim-core/src/lib.rs rand
build_lib mobility crates/mobility/src/lib.rs sim-core rand
build_lib packet crates/packet/src/lib.rs sim-core
build_lib phy crates/phy/src/lib.rs sim-core mobility
build_lib mac crates/mac/src/lib.rs sim-core rand
build_lib traffic crates/traffic/src/lib.rs sim-core rand
build_lib dsr crates/dsr/src/lib.rs sim-core packet rand
build_lib metrics crates/metrics/src/lib.rs sim-core packet mac
build_lib obs crates/obs/src/lib.rs sim-core packet
build_lib runner crates/runner/src/lib.rs \
  sim-core mobility phy packet mac dsr traffic metrics obs
build_lib aodv crates/aodv/src/lib.rs sim-core packet dsr runner rand
build_lib tcp crates/tcp/src/lib.rs sim-core packet dsr runner
build_lib experiments crates/experiments/src/lib.rs \
  sim-core mobility dsr runner aodv tcp metrics traffic obs
build_lib dsr-caching src/lib.rs \
  sim-core mobility phy packet mac dsr traffic metrics obs runner aodv tcp

# --- unit tests ------------------------------------------------------------
unit_test sim-core crates/sim-core/src/lib.rs rand
unit_test mobility crates/mobility/src/lib.rs sim-core rand
unit_test packet crates/packet/src/lib.rs sim-core
unit_test phy crates/phy/src/lib.rs sim-core mobility
unit_test mac crates/mac/src/lib.rs sim-core rand
unit_test traffic crates/traffic/src/lib.rs sim-core rand
unit_test dsr crates/dsr/src/lib.rs sim-core packet rand
unit_test metrics crates/metrics/src/lib.rs sim-core packet mac
unit_test obs crates/obs/src/lib.rs sim-core packet
unit_test runner crates/runner/src/lib.rs \
  sim-core mobility phy packet mac dsr traffic metrics obs
unit_test aodv crates/aodv/src/lib.rs sim-core packet dsr runner rand
unit_test tcp crates/tcp/src/lib.rs sim-core packet dsr runner
unit_test experiments crates/experiments/src/lib.rs \
  sim-core mobility dsr runner aodv tcp metrics traffic obs

if [[ $quick -eq 1 ]]; then
  note "quick mode: skipping integration tests and binaries"
  note "OK"
  exit 0
fi

# --- integration tests -----------------------------------------------------
# The dsr crate's own: the hand-driven agent flows and the allocation pin
# (its counting global allocator needs a test binary of its own).
for t in crates/dsr/tests/*.rs; do
  integration_test "dsr_$(basename "$t" .rs)" "$t" sim-core packet rand dsr
done

runner_deps=(sim-core mobility phy packet mac dsr traffic metrics obs runner)
for t in crates/runner/tests/*.rs; do
  integration_test "runner_$(basename "$t" .rs)" "$t" "${runner_deps[@]}"
done

root_deps=(sim-core mobility phy packet mac dsr traffic metrics obs runner
  aodv tcp dsr-caching)
for t in tests/aodv_stack.rs tests/full_stack.rs tests/tcp_stack.rs \
  tests/trace_and_series.rs; do
  integration_test "root_$(basename "$t" .rs)" "$t" "${root_deps[@]}"
done
note "skipped (need proptest): tests/properties.rs tests/fuzz_robustness.rs tests/dsr_fuzz.rs"

# --- experiment binaries ---------------------------------------------------
exp_deps=(sim-core mobility dsr runner aodv tcp metrics traffic obs experiments)
for b in crates/experiments/src/bin/*.rs; do
  build_bin "$(basename "$b" .rs)" "$b" "${exp_deps[@]}"
done

# bench_gate carries its own arg-parsing unit tests; bins are otherwise
# only compiled, so run this one's tests explicitly.
unit_test bench_gate crates/experiments/src/bin/bench_gate.rs "${exp_deps[@]}"

# --- criterion benches (compile check against a criterion stub) -------------
# CI's clippy runs --all-targets, so bench targets must keep compiling even
# though the real criterion crate is unreachable here. The stub also
# smoke-runs each benchmark body a few times when the binary is executed.
note "stub criterion"
"${RUSTC[@]}" --crate-type rlib --crate-name criterion \
  -o "$out/libcriterion.rlib" tools/offline/criterion_stub.rs
bench_deps=(sim-core mobility phy packet mac dsr runner rand criterion)
for b in crates/bench/benches/*.rs; do
  build_bin "bench_$(basename "$b" .rs)" "$b" "${bench_deps[@]}"
done

note "OK"
