#!/usr/bin/env python3
"""Spread of each end-to-end metric within a set of runs, and how far the
medians of two sets are apart, against the bounds in BENCHMARK.json; then
the same for the demoted timing readings, which have no bound.

    benchmark/spread.py benchmark/results/set1 [benchmark/results/set2]

Spread is the distance between the first and third quartile of a
metric's values over the runs of one workload, as a share of their median
(`statistics.quantiles(values, n=4)`), which is what the acceptance rule
of the benchmark is written in.
"""
import json
import statistics
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())
DEMOTED = [("qps", "higher"), ("lat_p50_ms", "lower"), ("lat_p90_ms", "lower"), ("cpu_ms_per_op", "lower")]


def load(directory):
    runs = {}
    for w in spec["workloads"]:
        path = Path(directory) / f"{w['name']}.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        runs[w["name"]] = [
            {name: m["value"] for name, m in d["result"]["metrics"].items()} | d["extras"] for d in docs
        ]
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def table(sets, metrics, worst):
    two = len(sets) == 2
    print(f"{'workload':14} {'metric':20} {'median':>12} {'spread':>8}" + (f" {'median 2':>12} {'spread 2':>8} {'worse by':>9}" if two else "") + f" {'bound':>7}")
    for w in spec["workloads"]:
        for name, better, bound in metrics:
            cols, medians = [], []
            for s in sets:
                values = [run[name] for run in s[w["name"]]]
                medians.append(statistics.median(values))
                cols.append(f"{medians[-1]:12.5g} {spread(values):8.2%}")
                worst[name] = max(worst.get(name, 0.0), spread(values))
            flag = ""
            if two:
                sign = 1 if better == "lower" else -1
                worse = sign * (medians[1] - medians[0]) / medians[0]
                cols.append(f"{worse:9.2%}")
                flag = "  <-- over the bound" if bound is not None and worse > bound else ""
            shown = f"{bound:7.2%}" if bound is not None else f"{'none':>7}"
            print(f"{w['name']:14} {name:20} " + " ".join(cols) + f" {shown}{flag}")
    print()


sets = [load(d) for d in sys.argv[1:3]]
worst = {}
table(sets, [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]], worst)
for m in spec["end_to_end"]:
    third = "within a third of the bound" if worst[m["name"]] <= m["bound"] / 3 else "OVER a third of the bound"
    print(f"widest spread of {m['name']:20} {worst[m['name']]:8.2%}   bound {m['bound']:6.2%}   {third}")
print("\nDemoted timing readings of the same runs (per-layer metrics `demoted.*`, no bound):\n")
worst = {}
table(sets, [(name, better, None) for name, better in DEMOTED], worst)
for name, _ in DEMOTED:
    print(f"widest spread of {name:20} {worst[name]:8.2%}")
