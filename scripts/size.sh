#!/usr/bin/env sh
# Counts the workspace's Rust lines one way, so "smaller" is measured the
# same way every time. Run from anywhere; it cds to the repo root.
#
#   scripts/size.sh              write results/SIZE.json
#   scripts/size.sh PATH...      print "product test doc" for the .rs
#                                files at PATH (files or directories)
#
# Definitions, per line of a .rs file:
#   - blank lines and comment lines (`//` after indentation) are not code;
#   - doc lines are `///` and `//!` comment lines, counted on their own;
#   - test lines are the code lines of every `#[cfg(test)]` module,
#     wherever it sits in the file, and every code line under a crate's
#     `tests/` directory;
#   - product lines are every other code line under a crate's `src/`.
#
# The crates are the root package and every crates/* member; benchmark/
# is its own workspace and is not counted. Nothing is gated on the
# numbers: a change that claims to be smaller cites them.

set -eu

cd "$(dirname "$0")/.."

# count PATH... — prints "product test doc" summed over the .rs files at
# the PATHs. Files under a tests/ directory count as test throughout.
count() {
    files=$(find "$@" -name '*.rs' -type f 2>/dev/null | sort)
    if [ -z "$files" ]; then
        echo "0 0 0"
        return
    fi
    # shellcheck disable=SC2086
    awk '
        FNR == 1 { in_test = 0; all_test = (FILENAME ~ /(^|\/)tests\//) }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (in_test && $0 == end_line) { in_test = 0; test++; next }
            if (line == "") next
            if (line ~ /^\/\/[\/!]/) { doc++; next }
            if (line ~ /^\/\//) next
            if (!in_test && line == "#[cfg(test)]") {
                in_test = 1
                indent = $0
                sub(/[^ \t].*/, "", indent)
                end_line = indent "}"
            }
            if (in_test || all_test) test++; else product++
        }
        END { printf "%d %d %d\n", product, test, doc }
    ' $files
}

if [ $# -gt 0 ]; then
    count "$@"
    exit 0
fi

OUT=results/SIZE.json
mkdir -p results
{
    printf '{\n  "format": "vbadet-size",\n  "schema_version": 1,\n  "crates": {\n'
    total_product=0
    total_test=0
    total_doc=0
    first=1
    for dir in . crates/*; do
        [ -f "$dir/Cargo.toml" ] || continue
        name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$dir/Cargo.toml")
        set -- $(count "$dir/src")
        src_product=$1 src_test=$2 src_doc=$3
        set -- $(count "$dir/tests")
        tests_test=$2 tests_doc=$3
        [ "$first" = 1 ] || printf ',\n'
        first=0
        printf '    "%s": {"src": {"product": %d, "test": %d, "doc": %d}, "tests": {"test": %d, "doc": %d}}' \
            "$name" "$src_product" "$src_test" "$src_doc" "$tests_test" "$tests_doc"
        total_product=$((total_product + src_product))
        total_test=$((total_test + src_test + tests_test))
        total_doc=$((total_doc + src_doc + tests_doc))
    done
    printf '\n  },\n  "workspace": {"product": %d, "test": %d, "doc": %d}\n}\n' \
        "$total_product" "$total_test" "$total_doc"
} >"$OUT"
echo "size: wrote $OUT (workspace product lines: $total_product)"
