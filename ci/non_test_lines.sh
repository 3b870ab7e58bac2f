#!/bin/sh
# Prints the non-test and test line counts of every crate and their totals.
# A crate's non-test lines are the lines of each crates/*/src file before
# its first `#[cfg(test)]` (the whole file when it has none); its test lines
# are the rest of those files plus every file under crates/*/tests. The
# repository's root tests/ get a row of their own (`tests/`, test lines
# only). The in-tree dependency shims under crates/shims are left out of
# the crate rows and the totals; a last `shims` row prints all their lines
# under crates/shims/*/src. Informational only; it never fails on a count.
# Run from the repository root.
#
#   ci/non_test_lines.sh          counts the working tree
#   ci/non_test_lines.sh <rev>    also counts <rev> (its crates/*/src,
#                                 crates/*/tests, crates/shims/*/src and
#                                 tests files, written out with `git show`
#                                 into a temporary directory) and prints
#                                 each row's counts there, here, and the
#                                 deltas
set -eu

# Prints the number of lines of every shim source file under $1.
shim_lines() {
    find "$1"/crates/shims/*/src -name '*.rs' -exec cat {} + 2>/dev/null | wc -l
}

# Prints `name non-test test` for every crate under $1/crates and for $1/tests.
count() {
    for crate in "$1"/crates/*/; do
        name=$(basename "$crate")
        test "$name" = shims && continue
        {
            find "$crate/src" -name '*.rs' | sort | while read -r file; do
                awk '/^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } { if (t) tl++; else n++ } END { print n + 0, tl + 0 }' "$file"
            done
            test -d "$crate/tests" && find "$crate/tests" -name '*.rs' | sort | while read -r file; do
                awk 'END { print 0, NR }' "$file"
            done
        } | awk -v name="$name" '{ n += $1; t += $2 } END { print name, n + 0, t + 0 }'
    done
    test -d "$1/tests" && find "$1/tests" -name '*.rs' | sort | while read -r file; do
        awk 'END { print 0, NR }' "$file"
    done | awk '{ t += $2 } END { print "tests/", 0, t + 0 }'
}

if [ $# -eq 0 ]; then
    count . | sort | awk '
        BEGIN { printf "%-10s %8s %8s\n", "crate", "non-test", "test" }
        { printf "%-10s %8d %8d\n", $1, $2, $3; n += $2; t += $3 }
        END { printf "%-10s %8d %8d\n", "total", n, t }'
    printf "%-10s %8d\n" shims "$(shim_lines .)"
    exit 0
fi

rev=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git ls-tree -r --name-only "$rev" -- crates tests | grep -E '^(crates/[^/]*/(src|tests)/|crates/shims/[^/]*/src/|tests/).*\.rs$' | while read -r path; do
    mkdir -p "$tmp/tree/$(dirname "$path")"
    git show "$rev:$path" >"$tmp/tree/$path"
done
count "$tmp/tree" | sort >"$tmp/old"
count . | sort >"$tmp/new"
join -a 1 -a 2 -e 0 -o 0,1.2,2.2,1.3,2.3 "$tmp/old" "$tmp/new" | awk -v rev="$rev" '
    BEGIN {
        r = substr(rev, 1, 8)
        printf "%-10s %26s   %26s\n", "", "non-test lines", "test lines"
        printf "%-10s %8s %8s %8s   %8s %8s %8s\n", "crate", r, "now", "delta", r, "now", "delta"
    }
    {
        printf "%-10s %8d %8d %+8d   %8d %8d %+8d\n", $1, $2, $3, $3 - $2, $4, $5, $5 - $4
        on += $2; nn += $3; ot += $4; nt += $5
    }
    END { printf "%-10s %8d %8d %+8d   %8d %8d %+8d\n", "total", on, nn, nn - on, ot, nt, nt - ot }'
old=$(shim_lines "$tmp/tree")
new=$(shim_lines .)
printf "%-10s %8d %8d %+8d\n" shims "$old" "$new" $((new - old))
