#!/usr/bin/env bash
# Vectorization gate for the marked hot loops: compile each listed
# source file standalone with GCC's vectorization report and fail if
# the loop under its marker comment did not vectorize.
#
#  - GPUSCALE_STAGE3_LOOP (src/gpu/analytic_batch.cc): the batched
#    census kernel's stage-3 clock-pair loop.  The >=8x single-core
#    speedup in BENCH_census.json rests on it.
#  - GPUSCALE_SPARSE_LANE_LOOP (src/scaling/sparse_predictor.cc): the
#    sparse fit's lane loop, which runs the point estimate and every
#    bootstrap member of the backfit side by side.
#
# A change that quietly devectorizes one of them (a function call, a
# non-affine access, an early exit in the loop) must fail CI, not
# surface as an unexplained perf regression later.
#
# usage: ci/check_vectorization.sh [compiler]
#        (defaults to $CXX, then g++)
#
# Exit codes: 0 all vectorized, 1 one devectorized or a marker
#             missing, 77 no GCC available (-fopt-info is a GCC flag;
#             skip).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cxx=${1:-${CXX:-g++}}

# One "file marker" pair per line.
checks=(
    "src/gpu/analytic_batch.cc GPUSCALE_STAGE3_LOOP"
    "src/scaling/sparse_predictor.cc GPUSCALE_SPARSE_LANE_LOOP"
)

if ! command -v "$cxx" > /dev/null; then
    echo "check_vectorization: no compiler '$cxx'; skipping" >&2
    exit 77
fi
if ! "$cxx" --version 2> /dev/null | head -n1 | grep -qE 'g\+\+|GCC'; then
    echo "check_vectorization: $cxx is not GCC; skipping" >&2
    exit 77
fi

report=$(mktemp)
trap 'rm -f "$report"' EXIT

status=0
for check in "${checks[@]}"; do
    read -r rel marker <<< "$check"
    src="$root/$rel"
    file=$(basename "$src")

    marker_line=$(grep -n "$marker" "$src" | head -n1 | cut -d: -f1)
    if [ -z "$marker_line" ]; then
        echo "error: $marker marker missing from $rel;" \
             "restore it above the loop it marks" >&2
        status=1
        continue
    fi
    # The marker is a comment block; the loop it marks is the first
    # `for (` after it.
    loop_line=$(awk -v start="$marker_line" \
        'NR > start && /for \(/ { print NR; exit }' "$src")
    if [ -z "$loop_line" ]; then
        echo "error: no loop found after the $marker marker" \
             "(line $marker_line) in $rel" >&2
        status=1
        continue
    fi

    # Same standard and optimization level as the Release build; the
    # report flags are the only addition.
    "$cxx" -std=c++20 -O3 -Wall -Wextra -I "$root/src" \
        -fopt-info-vec-optimized -fopt-info-vec-missed \
        -c "$src" -o /dev/null 2> "$report"

    if grep -qE "$file:$loop_line:[0-9]+: optimized: loop vectorized" \
        "$report"
    then
        echo "$marker loop ($file:$loop_line) vectorized:"
        grep -E "$file:$loop_line:.*optimized:" "$report"
    else
        echo "error: the $marker loop ($file:$loop_line) no longer" \
             "vectorizes; compiler report for that line:" >&2
        grep -E "$file:$loop_line:" "$report" >&2 || true
        echo "(see docs/performance.md for how to read the report)" >&2
        status=1
    fi
done
exit "$status"
