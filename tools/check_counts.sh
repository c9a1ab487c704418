#!/usr/bin/env bash
# Baseline gate for the benchmark's four bit-stable counts: one smoke run
# per workload must print page_fetches_per_op, dists_per_op, precision_at_k
# and bytes_per_row exactly as tools/expected_counts.txt records them.
#
#   tools/check_counts.sh       (from anywhere; ~15 s after the build)
set -euo pipefail
cd "$(dirname "$0")/.."

run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
names=(page_fetches_per_op dists_per_op precision_at_k bytes_per_row)
status=0
while read -r workload want; do
    out="$("${run[@]}" --workload "$workload" --seed 1 --trace 0 --smoke)"
    got="$(for name in "${names[@]}"; do
        awk -v name="$name" '$1 == "metric" && $2 == name { print $3 }' <<< "$out"
    done | xargs)"
    want="$(xargs <<< "$want")"
    if [[ "$got" == "$want" ]]; then
        echo "ok  $workload"
    else
        echo "check_counts: FAIL — $workload printed [$got], expected [$want] (${names[*]})" >&2
        status=1
    fi
done < <(grep -v '^#' tools/expected_counts.txt | grep -v '^[[:space:]]*$')
exit $status
