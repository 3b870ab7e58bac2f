#!/bin/sh
# Drives ci/drive.cods through both shells. Each shell exits with the
# number of lines that failed, so `set -e` turns any `error:` line into a
# failed step; and the two must print the same rows in the same batches —
# the local shell reads them out of the kernels' dictionary-id batches, the
# connect REPL out of what the wire decoder built. Run from the repository
# root after `cargo build --release --workspace`.
set -eu
cods=target/release/cods
addr=127.0.0.1:4071
tmp=$(mktemp -d)
server=
trap 'test -z "$server" || kill "$server"; rm -rf "$tmp"' EXIT

# Local shell: the shared lines, then what only it has.
{
    echo demo
    cat ci/drive.cods
    echo "explain join S T on employee=employee"
    echo "explain agg R by employee count:skill where employee != Jones"
    echo "save $tmp/cat.cods"
    echo "open $tmp/cat.cods"
    echo "count R"
} > "$tmp/local.cods"
"$cods" "$tmp/local.cods" > "$tmp/local.out" || failed=$?
cat "$tmp/local.out"
test -z "${failed:-}"

# Connect REPL: the same lines over the wire.
"$cods" serve "$addr" --demo &
server=$!
tries=0
until echo ping | "$cods" connect "$addr" > /dev/null 2>&1; do
    tries=$((tries + 1))
    test "$tries" -lt 20
    sleep 0.5
done
"$cods" connect "$addr" < ci/drive.cods > "$tmp/remote.out" || failed=$?
cat "$tmp/remote.out"
test -z "${failed:-}"

# The shared lines' reads: row lines (`  column=value, …`) and the
# `N row(s) in M batch(es)` line closing each. The local shell's extra
# lines (explain, save, open, count) print neither.
reads() {
    grep -E '^  [^ :]+=|^[0-9]+ row\(s\) in [0-9]+ batch\(es\)$' "$1"
}
reads "$tmp/local.out" > "$tmp/local.rows"
reads "$tmp/remote.out" > "$tmp/remote.rows"
test -s "$tmp/local.rows"
diff "$tmp/local.rows" "$tmp/remote.rows"
