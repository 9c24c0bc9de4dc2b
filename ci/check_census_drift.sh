#!/usr/bin/env bash
# Drift guard for the tracked census artifacts: regenerate the census
# with the freshly built binary and fail if the committed
# classifications.csv / classifications.manifest.json no longer match
# what the code actually produces.
#
# usage: ci/check_census_drift.sh [path-to-gpuscale-binary]
#
# The CSV must match byte for byte.  The manifest is compared on its
# reproducibility-relevant fields only — timestamps, durations, argv,
# thread counts, and the embedded metrics snapshot legitimately vary
# per run and per machine.
#
# Exit codes: 0 in sync, 1 drift, 77 jq unavailable (skip).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
gpuscale=${1:-"$root/build/src/tools/gpuscale"}

if ! command -v jq > /dev/null; then
    echo "check_census_drift: jq not found; skipping" >&2
    exit 77
fi
if [ ! -x "$gpuscale" ]; then
    echo "check_census_drift: no gpuscale binary at $gpuscale" >&2
    exit 1
fi
# The census runs in a temporary directory, so a relative path (as CI
# passes it) is made absolute first.
gpuscale=$(cd "$(dirname "$gpuscale")" && pwd)/$(basename "$gpuscale")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

(cd "$tmp" && "$gpuscale" census > /dev/null)

if ! diff -u "$root/classifications.csv" "$tmp/classifications.csv"
then
    echo "error: classifications.csv drifted from the code;" \
         "regenerate with './build/src/tools/gpuscale census' from" \
         "the repo root and commit the result" >&2
    exit 1
fi

stable='{schema_version, tool, command, model, seed, config_space,
         workload, extra}'
if ! diff -u \
    <(jq -S "$stable" "$root/classifications.manifest.json") \
    <(jq -S "$stable" "$tmp/classifications.manifest.json")
then
    echo "error: classifications.manifest.json drifted from the" \
         "code (stable fields above); regenerate and commit" >&2
    exit 1
fi

echo "census artifacts in sync with the code"
