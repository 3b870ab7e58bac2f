#!/bin/sh
# Prints the non-test line count of every crate and their total: the lines
# of each crates/*/src file before its first `#[cfg(test)]` (the whole file
# when it has none), with the in-tree dependency shims under crates/shims
# left out. Informational only; it never fails on a count. Run from the
# repository root.
#
#   ci/non_test_lines.sh          counts the working tree
#   ci/non_test_lines.sh <rev>    also counts <rev> (its crates/*/src files,
#                                 written out with `git show` into a
#                                 temporary directory) and prints each
#                                 crate's count there, here, and the delta
set -eu

# Prints `crate lines` for every crate under $1/crates, sorted by name.
count() {
    for crate in "$1"/crates/*/; do
        name=$(basename "$crate")
        test "$name" = shims && continue
        find "$crate/src" -name '*.rs' | sort | while read -r file; do
            awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
        done | awk -v name="$name" '{ n += $1 } END { print name, n + 0 }'
    done | sort
}

if [ $# -eq 0 ]; then
    count . | awk '{ printf "%-10s %6d\n", $1, $2; total += $2 } END { printf "%-10s %6d\n", "total", total }'
    exit 0
fi

rev=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git ls-tree -r --name-only "$rev" -- crates | grep '^crates/[^/]*/src/.*\.rs$' | while read -r path; do
    mkdir -p "$tmp/tree/$(dirname "$path")"
    git show "$rev:$path" >"$tmp/tree/$path"
done
count "$tmp/tree" >"$tmp/old"
count . >"$tmp/new"
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 "$tmp/old" "$tmp/new" | awk -v rev="$rev" '
    BEGIN { printf "%-10s %8s %8s %8s\n", "crate", substr(rev, 1, 8), "now", "delta" }
    { printf "%-10s %8d %8d %+8d\n", $1, $2, $3, $3 - $2; old += $2; new += $3 }
    END { printf "%-10s %8d %8d %+8d\n", "total", old, new, new - old }'
