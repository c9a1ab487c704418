#!/usr/bin/env bash
# The sizes ROADMAP's bar is stated in: lines of Rust (blank and comment
# lines included, as `wc -l` counts them) per crate, in benchmark/src, in
# the root integration tests, and — the last line — under crates/ in total.
# ROADMAP.md and CHANGES.md quote this script, not a hand count.
#
#   tools/loc.sh        (from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

rust_lines() { find "$1" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

for dir in crates/*/ benchmark/src tests crates; do
    printf '%-20s %6d\n' "${dir%/}" "$(rust_lines "$dir")"
done
