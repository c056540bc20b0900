#!/usr/bin/env bash
# A/A check: two interleaved sets (A B B A A B ...) of the same build,
# N invocations per workload per set, then `--compare` applies
# BENCHMARK.json's bounds. Any `worse`, or any simulated difference, is a
# defect of the benchmark (or of the box): the code under test is the same.
#
#   bash benchmark/aa.sh [N=5] [SEED=1]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
n=${1:-5}
seed=${2:-1}
out=benchmark/out/aa
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$n"); do
    if ((i % 2)); then order="A B"; else order="B A"; fi
    for label in $order; do
        for workload in paper_macro mega_tail cache_pressure pipeline_etl; do
            echo "set $label, round $i: $workload" >&2
            bash benchmark/run.sh --workload "$workload" --seed "$seed" \
                --trace 0 --set "$out/$label.json" >/dev/null
        done
    done
done
bash benchmark/run.sh --compare "$out/A.json" "$out/B.json"
