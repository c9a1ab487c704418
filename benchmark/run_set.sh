#!/usr/bin/env bash
# One set of runs: every workload once per seed, untraced, each in a fresh
# process; one stamped JSON document per run is appended to
# OUT_DIR/<workload>.jsonl. A pass (one seed over the six workloads) takes
# about two minutes.
#
#   benchmark/run_set.sh benchmark/results/set1 1 2 3 4 5 6 7 8 9 10
#   TRACE=1 benchmark/run_set.sh benchmark/results/traced 1 2
set -euo pipefail
out=$(realpath -m "$1"); shift
cd "$(dirname "$0")/.."
mkdir -p "$out" .bench_work
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for seed in "$@"; do
    for w in $workloads; do
        tmp=.bench_work/run_set.$$.json
        "${run[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "${TRACE:-0}" --out "$tmp" | tail -n 1 > /dev/null
        cat "$tmp" >> "$out/$w.jsonl"; echo >> "$out/$w.jsonl"; rm -f "$tmp"
        echo "seed $seed  $w"
    done
done
