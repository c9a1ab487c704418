#!/usr/bin/env bash
# Tier-1 verification gate: check formatting, build everything warning-free,
# run the full workspace test suite, then re-run the parallel-determinism,
# golden-recall, persistence and serve-parity suites explicitly (they are
# the acceptance gates for the parallel layer, the snapshot store and the
# query server), run a live server smoke test over a socket, and finish by
# building and smoking the benchmark package against the current crates and
# comparing its four bit-stable counts with the committed values, then hold
# the product code under crates/ to the ceiling in tools/expected_loc.txt.
# The last line printed is the size of crates/ (tools/loc.sh).
#
# Usage: tools/verify.sh [--release]
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE=()
if [[ "${1:-}" == "--release" ]]; then
    PROFILE=(--release)
fi

echo "== fmt =="
cargo fmt --all -- --check

echo "== build (all targets) =="
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --workspace --all-targets "${PROFILE[@]}"

echo "== quickstart gate =="
# The public-API path end to end: fit, build an index from a model and a
# page budget, answer 10-NN queries. --all-targets only compiles the
# examples; this one runs in about a second, so it runs here.
QUICKSTART="$(cargo run --quiet "${PROFILE[@]}" --example quickstart)"
echo "$QUICKSTART"
precision="$(sed -n 's/^mean 10-NN precision over [0-9]* queries: \([0-9.]*\)$/\1/p' <<< "$QUICKSTART")"
if [[ -z "$precision" ]] || ! awk -v p="$precision" 'BEGIN { exit !(p >= 0.95) }'; then
    echo "verify: FAIL — quickstart's mean 10-NN precision is '${precision}', not >= 0.95" >&2
    exit 1
fi

echo "== clippy (all targets) =="
cargo clippy --workspace --all-targets "${PROFILE[@]}" -- -D warnings

echo "== test (workspace) =="
cargo test --workspace "${PROFILE[@]}"

echo "== determinism + recall + conformance + persistence gates =="
# fit_bits pins the fitted model to recorded fingerprints: every f64 of
# every cluster by its bits, the members, the outliers and the counters.
cargo test "${PROFILE[@]}" --test par_determinism --test fit_bits --test golden_recall \
    --test backend_conformance
cargo test "${PROFILE[@]}" --test persist_roundtrip
cargo test "${PROFILE[@]}" --test serve_parity --test scalable_pipeline
# The wire protocol's fragmentation property: valid frames split at
# arbitrary byte boundaries, as any TCP peer receives them, decode exactly
# like one contiguous read.
cargo test "${PROFILE[@]}" -p mmdr-serve --test frame_fragmentation
cargo test "${PROFILE[@]}" -p mmdr-cli --test cli_validation
cargo test "${PROFILE[@]}" -p mmdr-linalg --test proptest_par
cargo test "${PROFILE[@]}" -p mmdr-index --test proptest_heap
# Refinement in bound order: answers bit-identical to SeqScan, each heap
# page fetched once a query, and a query evaluating exactly the rows whose
# two bounds lie within its radius or its final k-th distance — delta rows
# too, queued at their cell codes' bounds beside the tree's entries, with
# inserts never raising a query's page fetches. Beside them, degenerate k
# and ties: k inside a run of tied distances, at and past the live or
# passing rows, after deletes — every answer SeqScan's to the bit.
cargo test "${PROFILE[@]}" -p mmdr-idistance --lib \
    knn::tests::bound_order_answers_as_the_scan_and_fetches_each_heap_page_once -- --exact
cargo test "${PROFILE[@]}" -p mmdr-idistance --lib \
    knn::tests::delta_rows_in_bound_order_answer_as_the_scan_and_fetch_no_more_pages -- --exact
cargo test "${PROFILE[@]}" -p mmdr-idistance --lib \
    knn::tests::degenerate_k_and_ties_answer_as_the_scan -- --exact

echo "== buffer-pool concurrency gate =="
cargo test "${PROFILE[@]}" --test pool_stress

echo "== out-of-core gate =="
# Demand-paged reopen: every backend, tiny pools, bit-identical answers,
# live eviction, typed errors on damaged pages — plus the storage-layer
# proptest/fault harness behind the pool.
cargo test "${PROFILE[@]}" --test out_of_core
cargo test "${PROFILE[@]}" -p mmdr-storage --test out_of_core_pool
# (That a default open stays ~O(superblock) — never reading the PAGES
# section — is enforced by out_of_core's
# damaged_page_is_a_typed_error_and_pool_recovers: its open of a file with
# a flipped PAGES byte must succeed, which an open that read the section
# could not do.)

echo "== ingest gate =="
# Live mutation parity: WAL-logged inserts/deletes with background merges
# and epoch swaps must answer bit-identically to a fresh build over the
# surviving rows — every backend, serial and threaded, plus the
# crash-image replay and the server-level insert-then-query path. The WAL
# framing itself is property-tested (torn tails, mid-record damage).
cargo test "${PROFILE[@]}" --test ingest_parity --test layout_doors
cargo test "${PROFILE[@]}" -p mmdr-persist --test wal_proptest
# (Mutability cannot leak into the query hot path: `PinnedEpoch.index` is
# an `Arc<dyn VectorIndex>` and the scoped-thread executor calls `search`
# on one shared `&dyn VectorIndex`, and `search` calls `answer` — the one
# query method a backend implements — so an `answer(&mut self, ..)` would
# not compile.)

echo "== adapt gate =="
# Re-fit on request: a drifted stream followed by an explicit re-fit must
# answer bit-identically to the same fit/load stages composed by hand,
# id-exactly with SeqScan, across 1/2/4/8 threads; the mid-re-fit crash
# image must reopen identically; and a re-fit run on a second thread while
# writes land and background merges fold must stay exact.
cargo test "${PROFILE[@]}" --test adapt_parity
# (The read hot path cannot touch the re-fit machinery by construction:
# `Epoch { number, built }` holds no handle to the engine, so its
# VectorIndex impl has no engine lock to name.)

echo "== filtered-search gate =="
# Attribute-filtered search: filtered KNN/range answers — whichever
# strategy the cost-based planner picks — must be bit-identical to
# post-filtering the unfiltered ranking, for every backend, serial and
# under concurrent query threads, pre- and post-merge; a snapshot without
# attributes must fail filters with a typed error (property-tested
# alongside the fixed cases).
cargo test "${PROFILE[@]}" --test filtered_parity
# (That attribute-less snapshots keep their bytes is asserted by
# persist_roundtrip's attribute_less_snapshots_stay_byte_identical and by
# the `cmp` of two builds in the smoke gate below.)

echo "== serve smoke gate =="
# End-to-end over a real socket: start `mmdr serve` on an ephemeral port,
# check remote answers are byte-identical (ids and f64 bit patterns) to
# querying the snapshot directly, then shut down gracefully over the wire.
BINDIR=debug
if [[ ${#PROFILE[@]} -gt 0 ]]; then BINDIR=release; fi
MMDR="target/$BINDIR/mmdr"
SMOKE="$(mktemp -d)"
SERVE_PID=""
cleanup_smoke() {
    if [[ -n "$SERVE_PID" ]]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    rm -rf "$SMOKE"
}
trap cleanup_smoke EXIT

"$MMDR" generate --out "$SMOKE/data.json" --n 600 --dim 12 --clusters 3 --seed 11 \
    --attrs-out "$SMOKE/attrs.csv"
"$MMDR" reduce --data "$SMOKE/data.json" --out "$SMOKE/model.json" --clusters 3
"$MMDR" build-index --data "$SMOKE/data.json" --model "$SMOKE/model.json" \
    --out "$SMOKE/index.mmdr" --buffer-pages 64
# No-ATTRS byte identity: building the same attribute-less snapshot twice
# must produce the same bytes — the attrs machinery must leave the
# attribute-less image completely alone.
"$MMDR" build-index --data "$SMOKE/data.json" --model "$SMOKE/model.json" \
    --out "$SMOKE/index_again.mmdr" --buffer-pages 64
if ! cmp -s "$SMOKE/index.mmdr" "$SMOKE/index_again.mmdr"; then
    echo "verify: FAIL — attribute-less snapshot is not byte-deterministic" >&2
    exit 1
fi
# Filtering an attribute-less snapshot must be a typed error, not a crash
# or a silently unfiltered answer.
if "$MMDR" query --index-file "$SMOKE/index.mmdr" --data "$SMOKE/data.json" \
        --row 0 --k 5 --filter "views < 10" > /dev/null 2> "$SMOKE/nofilter.err"; then
    echo "verify: FAIL — filtering an attribute-less snapshot did not error" >&2
    exit 1
fi
grep -q "no attribute store" "$SMOKE/nofilter.err"
"$MMDR" build-index --data "$SMOKE/data.json" --model "$SMOKE/model.json" \
    --attrs "$SMOKE/attrs.csv" --out "$SMOKE/index_attrs.mmdr" --buffer-pages 64

"$MMDR" serve --index-file "$SMOKE/index.mmdr" --port 0 --workers 2 \
    > "$SMOKE/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$SMOKE/serve.log")"
    if [[ -n "$ADDR" ]]; then break; fi
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "verify: FAIL — server did not announce a listening port" >&2
    exit 1
fi

"$MMDR" query --index-file "$SMOKE/index.mmdr" --data "$SMOKE/data.json" \
    --row 0,7,42 --k 5 --hex true | grep -v '^\[' > "$SMOKE/direct.txt"
"$MMDR" remote-query --addr "$ADDR" --data "$SMOKE/data.json" \
    --row 0,7,42 --k 5 --hex true > "$SMOKE/remote.txt"
diff -u "$SMOKE/direct.txt" "$SMOKE/remote.txt"
# The other target through the same door: an unfiltered range query, at a
# radius that cuts (18 of the 600 rows), not one that keeps everything.
"$MMDR" query --index-file "$SMOKE/index.mmdr" --data "$SMOKE/data.json" \
    --row 7 --radius 0.3 --hex true | grep -v '^\[' > "$SMOKE/direct_range.txt"
if ! grep -q '^[1-9][0-9]* points within radius' "$SMOKE/direct_range.txt"; then
    echo "verify: FAIL — the smoke range query found nothing to compare" >&2
    exit 1
fi
"$MMDR" remote-query --addr "$ADDR" --data "$SMOKE/data.json" \
    --row 7 --radius 0.3 --hex true > "$SMOKE/remote_range.txt"
diff -u "$SMOKE/direct_range.txt" "$SMOKE/remote_range.txt"

"$MMDR" remote-query --addr "$ADDR" --op ping > /dev/null
"$MMDR" remote-query --addr "$ADDR" --op shutdown > /dev/null
# Until reaped the exited server is a zombie and kill -0 still succeeds, so
# poll the process *state* instead (empty or Z = gone).
server_state() { ps -o stat= -p "$SERVE_PID" 2>/dev/null | tr -d ' ' || true; }
for _ in $(seq 1 100); do
    STATE="$(server_state)"
    if [[ -z "$STATE" || "$STATE" == Z* ]]; then break; fi
    sleep 0.1
done
STATE="$(server_state)"
if [[ -n "$STATE" && "$STATE" != Z* ]]; then
    echo "verify: FAIL — server did not drain and exit after shutdown" >&2
    exit 1
fi
wait "$SERVE_PID"
SERVE_PID=""
if ! grep -q '^shutdown:' "$SMOKE/serve.log"; then
    echo "verify: FAIL — server exited without its shutdown summary" >&2
    exit 1
fi

echo "== filtered smoke gate =="
# Filtered search end to end over a real socket: serve the
# attribute-carrying snapshot, check filtered remote answers (KNN and
# range) are byte-identical to filtering the snapshot directly, and check
# the stats op reports the planner's per-strategy counters.
"$MMDR" serve --index-file "$SMOKE/index_attrs.mmdr" --port 0 --workers 2 \
    > "$SMOKE/serve_attrs.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$SMOKE/serve_attrs.log")"
    if [[ -n "$ADDR" ]]; then break; fi
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "verify: FAIL — attrs server did not announce a listening port" >&2
    exit 1
fi
grep -q 'attribute filters on' "$SMOKE/serve_attrs.log"

FILTER='label != delta AND views < 600'
"$MMDR" query --index-file "$SMOKE/index_attrs.mmdr" --data "$SMOKE/data.json" \
    --row 0 --k 5 --filter "$FILTER" --hex true | grep -v '^\[' \
    > "$SMOKE/fdirect.txt"
"$MMDR" remote-query --addr "$ADDR" --data "$SMOKE/data.json" \
    --row 0 --k 5 --filter "$FILTER" --hex true > "$SMOKE/fremote.txt"
diff -u "$SMOKE/fdirect.txt" "$SMOKE/fremote.txt"
"$MMDR" query --index-file "$SMOKE/index_attrs.mmdr" --data "$SMOKE/data.json" \
    --row 7 --radius 3.0 --filter "$FILTER" --hex true | grep -v '^\[' \
    > "$SMOKE/fdirect_range.txt"
"$MMDR" remote-query --addr "$ADDR" --data "$SMOKE/data.json" \
    --row 7 --radius 3.0 --filter "$FILTER" --hex true > "$SMOKE/fremote_range.txt"
diff -u "$SMOKE/fdirect_range.txt" "$SMOKE/fremote_range.txt"

"$MMDR" remote-query --addr "$ADDR" --op stats > "$SMOKE/fstats.txt"
if ! grep -q '^planner: ' "$SMOKE/fstats.txt"; then
    echo "verify: FAIL — stats lack the planner strategy counters:" >&2
    cat "$SMOKE/fstats.txt" >&2
    exit 1
fi
if grep -q '^planner: 0 post-filter, 0 pushdown, 0 prefilter-rank' "$SMOKE/fstats.txt"; then
    echo "verify: FAIL — planner counters stayed zero across filtered queries:" >&2
    cat "$SMOKE/fstats.txt" >&2
    exit 1
fi
"$MMDR" remote-query --addr "$ADDR" --op shutdown > /dev/null
for _ in $(seq 1 100); do
    STATE="$(server_state)"
    if [[ -z "$STATE" || "$STATE" == Z* ]]; then break; fi
    sleep 0.1
done
wait "$SERVE_PID"
SERVE_PID=""

echo "== ingest smoke gate =="
# The same snapshot served writable: insert a point over the wire, force a
# merge, and check the stats line reports the swapped epoch with the WAL
# truncated — the operator-visible face of the WAL → delta → merge → swap
# path.
"$MMDR" serve --index-file "$SMOKE/index.mmdr" --wal true --port 0 --workers 2 \
    > "$SMOKE/serve_wal.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$SMOKE/serve_wal.log")"
    if [[ -n "$ADDR" ]]; then break; fi
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "verify: FAIL — writable server did not announce a listening port" >&2
    exit 1
fi
"$MMDR" remote-insert --addr "$ADDR" \
    --point "9,9,9,9,9,9,9,9,9,9,9,9" --flush true > "$SMOKE/insert.txt"
grep -q '^inserted 1 rows (ids 600..600)' "$SMOKE/insert.txt"
grep -q '^flushed: serving epoch is now 1' "$SMOKE/insert.txt"
"$MMDR" remote-query --addr "$ADDR" --op stats > "$SMOKE/stats.txt"
if ! grep -q '^ingest: epoch 1, 0 delta rows, 0 tombstones, 0 WAL bytes, 1 merges' \
        "$SMOKE/stats.txt"; then
    echo "verify: FAIL — stats do not show the post-flush epoch swap:" >&2
    cat "$SMOKE/stats.txt" >&2
    exit 1
fi
"$MMDR" remote-query --addr "$ADDR" --op shutdown > /dev/null
for _ in $(seq 1 100); do
    STATE="$(server_state)"
    if [[ -z "$STATE" || "$STATE" == Z* ]]; then break; fi
    sleep 0.1
done
wait "$SERVE_PID"
SERVE_PID=""

echo "== adapt smoke gate =="
# The operator-facing face of re-fit on request: a local ingest with
# --refit forces one synchronous re-fit, bumps the model epoch, and the
# stats line reports it; a reopen still sees the re-fit model.
"$MMDR" ingest --index-file "$SMOKE/index.mmdr" \
    --point "8,8,8,8,8,8,8,8,8,8,8,8" --refit true > "$SMOKE/refit.txt"
grep -q '^re-fit: model epoch is now 1' "$SMOKE/refit.txt"
if ! grep -q 'model epoch 1, 1 re-fits' "$SMOKE/refit.txt"; then
    echo "verify: FAIL — ingest stats do not report the re-fit:" >&2
    cat "$SMOKE/refit.txt" >&2
    exit 1
fi
"$MMDR" ingest --index-file "$SMOKE/index.mmdr" --flush true > "$SMOKE/refit2.txt"
if ! grep -q 'model epoch 1, 0 re-fits' "$SMOKE/refit2.txt"; then
    echo "verify: FAIL — reopened snapshot lost the re-fit model epoch:" >&2
    cat "$SMOKE/refit2.txt" >&2
    exit 1
fi

echo "== benchmark smoke gate =="
# benchmark/ is a package of its own (own [workspace], path dependencies on
# crates/*), so nothing above compiles it. Build it against the crates as
# they are now and smoke all six workloads, untraced and traced: a crate
# API change that breaks the benchmark, or a run that is no longer
# `correct`, fails here and not in the driver. Always a release build (the
# benchmark's own command line), whatever profile the gates above used.
# The smoke must leave benchmark/ and BENCHMARK.json as it found them: a
# crate-graph change that makes cargo rewrite benchmark/Cargo.lock fails
# here, not on the first run that builds the benchmark from a clean checkout.
bench_tree() { git status --porcelain -- benchmark BENCHMARK.json; git diff -- benchmark BENCHMARK.json; }
BENCH_BEFORE="$(bench_tree)"
benchmark/check.sh
if [[ "$(bench_tree)" != "$BENCH_BEFORE" ]]; then
    echo "verify: FAIL — the benchmark smoke changed benchmark/ or BENCHMARK.json:" >&2
    git status --porcelain -- benchmark BENCHMARK.json >&2
    exit 1
fi

echo "== benchmark count gate =="
# The four counts every workload prints are exact and repeat on every run
# and seed: a change that moves one without saying so fails here.
tools/check_counts.sh

echo "== size gate =="
# ROADMAP's size bar, held: the product lines under crates/ (tools/loc.sh,
# last row, second number) may not exceed tools/expected_loc.txt. A change
# that needs more raises the number there and says why above it.
loc="$(tools/loc.sh | tail -n 1)"
product="$(awk '{ print $3 }' <<< "$loc")"
ceiling="$(grep -v '^#' tools/expected_loc.txt | xargs)"
if (( product > ceiling )); then
    echo "verify: FAIL — crates/ holds $product product lines, tools/expected_loc.txt allows $ceiling" >&2
    exit 1
fi

echo "verify: OK"
echo "$loc"
