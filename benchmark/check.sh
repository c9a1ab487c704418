#!/usr/bin/env bash
# Smoke-runs every workload, untraced and traced, and fails unless each
# run is correct and prints every metric BENCHMARK.json declares for that
# mode exactly once, with the declared unit, and nothing else.
#
#   benchmark/check.sh          (from anywhere; about a minute after the build)
set -euo pipefail
cd "$(dirname "$0")/.."

run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# Build before the clock starts.
"${run[@]}" --workload knn_resident --smoke > /dev/null

check() { # workload trace
    "${run[@]}" --workload "$1" --seed 1 --trace "$2" --smoke | python3 -c '
import json, sys
workload, trace = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, lines[-1]
printed = [l.split()[1:4] for l in lines if l.startswith("metric ")]
for name, unit in declared.items():
    hits = [p for p in printed if p[0] == name]
    assert len(hits) == 1, f"{workload}: {name} printed {len(hits)} times"
    assert hits[0][2] == unit, f"{workload}: {name} printed in {hits[0][2]}, declared in {unit}"
    assert result["metrics"][name]["unit"] == unit, f"{workload}: {name} unit in the result line"
    float(result["metrics"][name]["value"])
extra = set(result["metrics"]) - set(declared) | {p[0] for p in printed} - set(declared)
assert not extra, f"{workload}: undeclared metrics {sorted(extra)}"
assert any(l.startswith("host ") for l in lines), f"{workload}: no host stamp"
print(f"ok  {workload:14} trace {trace}  {len(declared)} metrics")
' "$1" "$2"
}

start=$SECONDS
for w in $workloads; do check "$w" 0; done
plain=$((SECONDS - start))
for w in $workloads; do check "$w" 1; done
echo "all six, untraced: ${plain} s (limit 30 s); with the traced runs: $((SECONDS - start)) s"
[ "$plain" -le 30 ]
