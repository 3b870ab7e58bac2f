#!/bin/sh
# Drives ci/drive.cods through both shells. Each shell exits with the
# number of lines that failed, so `set -e` turns any `error:` line into a
# failed step; and the two must print the same rows in the same batches —
# the local shell reads them out of the kernels' dictionary-id batches, the
# connect REPL out of what the wire decoder built. A third leg runs the
# script against `serve --durable`, kills the server with SIGKILL and
# requires a restarted one to answer from the commit log alone. Run from
# the repository root after `cargo build --release --workspace`.
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
await() {
    tries=0
    until echo ping | "$cods" connect "$addr" > /dev/null 2>&1; do
        tries=$((tries + 1))
        test "$tries" -lt 20
        sleep 0.5
    done
}
await
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

# kill -9 with two files: the acknowledged scripts are in `d.cods.clog`
# (and in `d.cods` once the 30 s checkpointer has run) and nowhere else.
kill "$server"
wait "$server" 2> /dev/null || true
mkdir "$tmp/d"
counts() {
    printf 'count R\ncount S\ncount T\n' | "$cods" connect "$addr" | grep -E '^[0-9]+ of [0-9]+ rows'
}
"$cods" serve "$addr" --demo --durable "$tmp/d/d.cods" &
server=$!
await
"$cods" connect "$addr" < ci/drive.cods > /dev/null
counts > "$tmp/before.counts"
test "$(wc -l < "$tmp/before.counts")" -eq 3
kill -9 "$server"
wait "$server" 2> /dev/null || true
ls "$tmp/d"
test -z "$(ls "$tmp/d" | grep -v -x -e d.cods.clog -e d.cods)"
test -f "$tmp/d/d.cods.clog"
echo "wal $tmp/d/d.cods" > "$tmp/wal.cods"
"$cods" "$tmp/wal.cods" > "$tmp/wal.out"
cat "$tmp/wal.out"
grep -q -E '^  v[0-9]+: ' "$tmp/wal.out"
# The journal, the log and its records: there is no other file kind to list.
test -z "$(grep -v -E '^(CODS |journal: |commit log: |  v[0-9]+: |$)' "$tmp/wal.out")"
"$cods" serve "$addr" --durable "$tmp/d/d.cods" &
server=$!
await
counts > "$tmp/after.counts"
diff "$tmp/before.counts" "$tmp/after.counts"
