#!/bin/sh
# Prints the non-test line count of every crate and their total: the lines
# of each crates/*/src file before its first `#[cfg(test)]` (the whole file
# when it has none), with the in-tree dependency shims under crates/shims
# left out. Informational only; it never fails on a count. Run from the
# repository root.
set -eu
for crate in crates/*/; do
    name=$(basename "$crate")
    test "$name" = shims && continue
    find "$crate/src" -name '*.rs' | sort | while read -r file; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk -v name="$name" '{ n += $1 } END { printf "%-10s %6d\n", name, n }'
done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
