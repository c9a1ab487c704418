#!/usr/bin/env bash
# The sizes ROADMAP's bar is stated in: lines of Rust (blank and comment
# lines included, as `wc -l` counts them) per crate, in benchmark/src, in
# the root integration tests, and — the last line — under crates/ in total.
# The second number of a row is its product code: of each file under a
# `src/` directory, the lines before its first `#[cfg(test)]` (benches,
# examples and `tests/` directories count for nothing there) — so a test-only
# item belongs under a file's product code, or it hides what follows it.
# tools/verify.sh holds the last row's product number to
# tools/expected_loc.txt.
# ROADMAP.md and CHANGES.md quote this script, not a hand count.
#
#   tools/loc.sh        (from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

rust_lines() { find "$1" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

# /dev/null keeps awk from reading stdin when a row has no file under src/.
product_lines() {
    find "$1" -path '*/src/*' -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { product = 1 }
        /#\[cfg\(test\)\]/ { product = 0 }
        product { n++ }
        END { print n + 0 }' /dev/null
}

for dir in crates/*/ benchmark/src tests crates; do
    printf '%-20s %6d %6d\n' "${dir%/}" "$(rust_lines "$dir")" "$(product_lines "$dir")"
done
