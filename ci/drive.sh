#!/bin/sh
# Drives ci/drive.cods through both shells. Each shell exits with the
# number of lines that failed, so `set -e` turns any `error:` line into a
# failed step; and the two must print the same rows in the same batches —
# the local shell reads them out of the kernels' dictionary-id batches, the
# connect REPL out of what the wire decoder built — and the same `stats R`.
# A third leg runs the script against `serve --durable`, kills the server
# with SIGKILL and requires a restarted one to answer from the commit log
# alone. Run from the repository root after `cargo build --release
# --workspace`.
set -eu
cods=target/release/cods
addr=127.0.0.1:4071
tmp=$(mktemp -d)
server=
trap 'test -z "$server" || kill "$server"; rm -rf "$tmp"' EXIT

# Local shell: the shared lines, then what only it has.
seq 0 199999 | awk '{ print $1 "," $1 % 7 }' > "$tmp/keys.csv"
printf '%s\n' "ADD COLUMN lang str DEFAULT C# TO R" \
    "RENAME COLUMN lang TO tongue IN R" "DROP COLUMN tongue FROM R" > "$tmp/chain.smo"
{
    echo demo
    cat ci/drive.cods
    # A column chain plans to one node per operator.
    echo "plan $tmp/chain.smo"
    echo "explain join S T on employee=employee"
    echo "explain agg R by employee count:skill where employee != Jones"
    # Every form of `recode` through its one path: whole column and segment
    # range, explicit and chooser, one column and all.
    echo "recode R skill rle"
    echo "recode R skill auto"
    echo "recode R skill rle 0..1"
    echo "recode R skill auto 0..1"
    echo "recode R * bitmap"
    echo "recode R skill rle 0..1"
    echo "stats R"
    # A unique key: 200,000 rows in four 64 Ki segments, each a range.
    echo "load K $tmp/keys.csv k:int,g:int"
    echo "save $tmp/cat.cods"
    echo "open $tmp/cat.cods"
    echo "count R"
    # A pin pins an encoding, not a payload: after a read faults the
    # pinned segment in, an empty cache budget pages every segment out,
    # and the reopened skill column keeps both its pins: the whole-column
    # one `recode R *` set and the range pin on segment 0.
    echo "count R where skill = 'Light Cleaning'"
    echo "cache 0"
    echo "stats R"
    # The reopened key is still four ranges: no payload, no id list.
    echo "stats K"
} > "$tmp/local.cods"
"$cods" "$tmp/local.cods" > "$tmp/local.out" || failed=$?
cat "$tmp/local.out"
test -z "${failed:-}"
grep -E '^R: ' "$tmp/local.out" | tail -n 1 | grep -q ' 0 resident / '
grep -E '^  skill ' "$tmp/local.out" | tail -n 1 | grep -q 'enc=rle *(pinned, 1×pinned)'
grep -E '^  k ' "$tmp/local.out" | tail -n 1 | grep -q 'enc=packed *\[4×range\].* payload=0B ratio=inf'

# A refused chain: the third statement names a column the first renamed
# away. A plan checks a script by running each operator on empty copies
# of its tables, so it follows the schema along the chain: the one failed
# line is the plan's `unknown column`, and R is as it was.
printf '%s\n' "RENAME COLUMN skill TO ability IN R" \
    "ADD COLUMN lvl int DEFAULT 1 TO R" "DROP COLUMN skill FROM R" > "$tmp/refused.smo"
printf '%s\n' demo "stats R" "plan $tmp/refused.smo" "stats R" > "$tmp/refused.cods"
refused=0
"$cods" "$tmp/refused.cods" > "$tmp/refused.out" || refused=$?
cat "$tmp/refused.out"
test "$refused" -eq 1
grep -q '^error: .*unknown column: skill$' "$tmp/refused.out"
awk '/^R: [0-9]+ rows, / { n++ } n && (/^R: / || /^  /) { print > (FILENAME "." n) }' "$tmp/refused.out"
test -s "$tmp/refused.out.1"
diff "$tmp/refused.out.1" "$tmp/refused.out.2"

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

# The first `stats R` block (drive.cods's, after the MERGE): one renderer
# over the same state, so both shells print the same bytes.
stats() {
    awk '/^R: [0-9]+ rows, / { on = 1; print; next } on && /^  / { print; next } on { exit }' "$1"
}
stats "$tmp/local.out" > "$tmp/local.stats"
stats "$tmp/remote.out" > "$tmp/remote.stats"
test -s "$tmp/local.stats"
diff "$tmp/local.stats" "$tmp/remote.stats"

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
# The committed slot, the log and its records: there is no other file kind
# to list.
test -z "$(grep -v -E '^(CODS |committed: |commit log: |  v[0-9]+: |$)' "$tmp/wal.out")"
"$cods" serve "$addr" --durable "$tmp/d/d.cods" &
server=$!
await
counts > "$tmp/after.counts"
diff "$tmp/before.counts" "$tmp/after.counts"
