#!/usr/bin/env bash
# Code size per crate: non-test Rust lines under each crate's `src/` and
# `benches/`, printed as flat JSON (one `"crate": lines` pair per line).
# A file's count stops at its first `#[cfg(test)]`, so inline unit-test
# modules are left out; integration tests, examples and splashbench are
# not counted.
#
#   ./ci/loc.sh                         # print the report
#   ./ci/loc.sh > ci/loc_baseline.json  # refresh the committed baseline
#
# ci/check.sh prints the per-crate delta against ci/loc_baseline.json; the
# delta is a report, never a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

sep=""
printf '{\n'
for manifest in Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    lines=0
    for sub in src benches; do
        [[ -d "$dir/$sub" ]] || continue
        while IFS= read -r file; do
            n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
            lines=$((lines + n))
        done < <(find "$dir/$sub" -name '*.rs' | sort)
    done
    printf '%s  "%s": %d' "$sep" "$name" "$lines"
    sep=$',\n'
done
printf '\n}\n'
