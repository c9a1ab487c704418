#!/usr/bin/env bash
# Paired parent/change runs of one benchmark workload (choosing-metrics §8):
# timing on this host does not hold a bound, so a speed-up is shown by
# alternating runs of the two sides, never by one run of each.
#
#   tools/paired_runs.sh <parent-rev> <workload>|all [pairs=10]
#
# The parent side is the committed files of <parent-rev>, exported under
# .bench_work/paired/<sha>/ (git-ignored; kept, so a second workload reuses
# the build); the change side is this checkout as it stands. Both are built
# and run with the benchmark's own command from their own root, untraced,
# for BENCHMARK.json's run_seconds. Pair i runs both sides on seed i, the
# parent first when i is odd and the change first when it is even. Per side
# it prints the median and quartiles of qps, lat_p50_ms, cpu_ms_per_op and
# the six end-to-end metrics, the change's wins / ties / losses over the
# pairs, and whether §8's rule for a gain holds (>= 9/10 of the pairs won,
# medians further apart than the parent's own quartiles). With `all` it runs
# BENCHMARK.json's workloads in turn and ends with one more table: per
# workload and end-to-end metric the two medians, change/parent, and `ok` or
# `REGRESSED` by that metric's bound and direction — what the pipeline will
# decide, seen before it does. It reads benchmark/ and BENCHMARK.json and
# changes nothing in them.
set -euo pipefail
if [[ $# -lt 2 || $# -gt 3 ]]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
change=$PWD
sha=$(git rev-parse --verify "$1^{commit}")
if [[ $2 == all ]]; then
    mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
else
    workloads=("$2")
fi
pairs=${3:-10}
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

# `git archive`, not `git worktree`: the committed files and nothing else,
# and no entry left behind in .git/worktrees.
parent=$change/.bench_work/paired/$sha
if [[ ! -d $parent ]]; then
    mkdir -p "$parent.tmp"
    git archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
stamp=$(date +%Y%m%dT%H%M%S)

side() { # name -> its root
    if [[ $1 == parent ]]; then echo "$parent"; else echo "$change"; fi
}
outs=()
for workload in "${workloads[@]}"; do
    out=$change/.bench_work/paired/$workload-$stamp
    mkdir -p "$out"
    outs+=("$out")
    echo "building parent ${sha:0:7} and change, smoke-running $workload on each"
    for s in parent change; do
        (cd "$(side "$s")" && "${run[@]}" --workload "$workload" --seed 1 --smoke > /dev/null)
    done

    for i in $(seq 1 "$pairs"); do
        order=(parent change)
        if (( i % 2 == 0 )); then order=(change parent); fi
        for s in "${order[@]}"; do
            (cd "$(side "$s")" && "${run[@]}" --workload "$workload" --seed "$i" \
                --seconds "$seconds" --trace 0 --out "$out/$s-$i.json" | tail -n 1 > /dev/null)
        done
        echo "pair $i/$pairs  (${order[0]} first)"
    done
done

python3 - "$pairs" "${sha:0:7}" "${outs[@]}" <<'EOF'
import json, statistics, sys
from pathlib import Path

pairs, sha, outs = int(sys.argv[1]), sys.argv[2], [Path(o) for o in sys.argv[3:]]
spec = json.load(open("BENCHMARK.json"))
metrics = [("qps", "higher"), ("lat_p50_ms", "lower"), ("cpu_ms_per_op", "lower")]
metrics += [(m["name"], m["better"]) for m in spec["end_to_end"]]


def load(out, side, i):
    doc = json.loads((out / f"{side}-{i}.json").read_text())
    assert doc["result"]["correct"] and doc["result"]["failed"] == 0, f"{out.name}: {side} run {i} was not correct"
    return {name: m["value"] for name, m in doc["result"]["metrics"].items()} | doc["extras"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


medians = {}
for out in outs:
    workload = out.name.rsplit("-", 1)[0]
    runs = {side: [load(out, side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    print(f"\n{workload}: {pairs} alternating pairs, parent {sha} against the change; median [q1 .. q3]")
    print(f"{'metric':20} {'parent':>36} {'change':>36} {'change/parent':>13} {'W/T/L':>8}  gain by §8")
    for name, better in metrics:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        ties = sum(x == y for x, y in zip(p, c))
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        medians[workload, name] = (pm, cm)
        # A count that repeats exactly is shown exactly, once per side.
        shown = [
            repr(v[0]) if min(v) == max(v) else f"{m:.6g} [{a:.6g} .. {b:.6g}]"
            for v, (a, m, b) in ((p, (pq1, pm, pq3)), (c, (cq1, cm, cq3)))
        ]
        ratio = f"{cm / pm:.3f}" if pm else "-"
        gain = wins * 10 >= pairs * 9 and sign * (cm - pm) > pq3 - pq1
        # The rule is over at least ten pairs: fewer give no verdict.
        verdict = "same" if ties == pairs else "-" if pairs < 10 else "yes" if gain else "no"
        print(f"{name:20} {shown[0]:>36} {shown[1]:>36} {ratio:>13} {wins:>3}/{ties}/{pairs - wins - ties}  {verdict}")
    print(f"runs kept in {out}")

if len(outs) > 1:
    # The pipeline's own question, per workload and end-to-end metric: is the
    # change's median worse than the parent's by more than the metric's bound?
    print(f"\nall workloads, medians of {pairs} pairs against each end-to-end metric's bound")
    print(f"{'workload':14} {'metric':20} {'parent':>14} {'change':>14} {'change/parent':>13} {'bound':>7}")
    regressed = 0
    for out in outs:
        workload = out.name.rsplit("-", 1)[0]
        for m in spec["end_to_end"]:
            pm, cm = medians[workload, m["name"]]
            worse = (pm - cm if m["better"] == "higher" else cm - pm) / abs(pm) if pm else 0.0
            bad = worse > m["bound"]
            regressed += bad
            ratio = f"{cm / pm:.4f}" if pm else "-"
            print(f"{workload:14} {m['name']:20} {pm:>14.8g} {cm:>14.8g} {ratio:>13} {m['bound']:>7}  {'REGRESSED' if bad else 'ok'}")
    print(f"\n{regressed} of {len(outs) * len(spec['end_to_end'])} regressed")
EOF
