#!/usr/bin/env bash
# CI gate on the one performance instrument (benchmark/README.md): every
# workload, three seeds, against the committed BENCH_baseline.jsonl. A run
# that fails its correctness gate or any operation fails the script; so does
# a "worse" verdict on the two metrics a shared runner can resolve, bytes
# allocated and bytes on the wire per round. Time metrics are printed (and
# bench.ci.jsonl uploaded), not gated. To re-measure the baseline after a
# change that is meant to move them: run this, then
# `mv bench.ci.jsonl BENCH_baseline.jsonl`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The round ingest has one stripe per processor, so allocation per round
# depends on GOMAXPROCS: pin it to what the baseline's stamp says.
export GOMAXPROCS=2
seconds=3
out=bench.ci.jsonl
rm -f "$out"
for w in $(bash benchmark/run.sh -list | cut -d' ' -f1); do
  for seed in 1 2 3; do
    bash benchmark/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 -out "$out" | tail -n 1
  done
done
# -compare exits 1 on any "worse", time metrics included: read its table.
status=0
report=$(bash benchmark/run.sh -compare BENCH_baseline.jsonl "$out") || status=$?
echo "$report"
[ "$status" -le 1 ] || exit "$status"
if echo "$report" | grep -E 'failed its correctness gate|(alloc_mb_per_round|payload_bytes_per_round) .* worse$'; then
  echo "bench gate: FAILED on the lines above"
  exit 1
fi
echo "bench gate: ok"
