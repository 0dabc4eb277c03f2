#!/usr/bin/env bash
# Cross-process determinism gate on every committed results/*_quick.csv:
#
#   cargo build --release && tools/csv_gate.sh
#
# Each CSV's experiment (`dsr-exp <name>`, or the `chaos_soak` binary)
# runs twice, each time in a fresh process, at `--quick --jobs 1` and at
# `--quick --jobs 2`, and both outputs must be `cmp`-equal to the committed
# file. The committed file is restored after every run. A mismatch keeps
# the fresh output as `$CSV_GATE_OUT/<name>.jobs<n>.csv` (default
# /tmp/csv-gate) and fails the gate once every experiment has run.
# `BIN_DIR` (default target/release) points at the binaries; run from the
# root of the checkout they were built from.
set -uo pipefail

bin_dir="${BIN_DIR:-target/release}"
out="${CSV_GATE_OUT:-/tmp/csv-gate}"
mkdir -p "$out"
status=0
for csv in results/*_quick.csv; do
  name="$(basename "$csv" _quick.csv)"
  if [[ "$name" == chaos_soak ]]; then
    run=("$bin_dir/chaos_soak")
  else
    run=("$bin_dir/dsr-exp" "$name")
  fi
  cp "$csv" "$out/$name.committed.csv"
  for jobs in 1 2; do
    if ! "${run[@]}" --quick --jobs "$jobs" >/dev/null 2>"$out/$name.jobs$jobs.err"; then
      echo "FAIL  $name --jobs $jobs: exited nonzero (stderr in $out/$name.jobs$jobs.err)"
      status=1
    elif cmp -s "$out/$name.committed.csv" "$csv"; then
      echo "ok    $name --jobs $jobs"
    else
      echo "FAIL  $name --jobs $jobs: differs from the committed CSV"
      status=1
    fi
    if ! cmp -s "$out/$name.committed.csv" "$csv"; then
      cp "$csv" "$out/$name.jobs$jobs.csv"
      cp "$out/$name.committed.csv" "$csv"
    fi
  done
done
exit "$status"
