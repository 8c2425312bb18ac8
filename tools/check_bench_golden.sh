#!/bin/sh
# Runs paper-figure benches with `--quick --json` and diffs their stdout
# against the committed copies in bench/golden/. The outputs are modeled
# (simulated disk, fixed seeds), so any difference is a change to the
# reproduction contract: a PR that means it regenerates the files with
# --update and says why in CHANGES.md. All eight benches take about three
# minutes; name some to check only those.
#
# Usage: tools/check_bench_golden.sh [--update] [BUILD_DIR [BENCH...]]
#        (default: build, every bench)
set -eu
update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
build="${1:-build}"
[ $# -gt 0 ] && shift
if [ $# -eq 0 ]; then
  set -- bench_fig10_components bench_fig11_seq_components \
         bench_fig12_buffer_sweep bench_table2_sc_vs_cc \
         bench_fig13_competitors bench_fig14_scalability \
         bench_microcost bench_ablation
fi
golden="$(dirname "$0")/../bench/golden"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
status=0
for b in "$@"; do
  "$build/bench/$b" --quick --json > "$out/$b.txt"
  if [ "$update" = 1 ]; then
    cp "$out/$b.txt" "$golden/$b.txt"
    echo "updated bench/golden/$b.txt"
  elif diff -u "$golden/$b.txt" "$out/$b.txt"; then
    echo "ok       $b"
  else
    echo "CHANGED  $b (diff above)"
    status=1
  fi
done
exit $status
