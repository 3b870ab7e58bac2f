#!/bin/sh
# Drives ci/drive.cods through both shells. Each shell exits with the
# number of lines that failed, so `set -e` turns any `error:` line into a
# failed step. Run from the repository root after
# `cargo build --release --workspace`.
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
"$cods" "$tmp/local.cods"

# Connect REPL: the same lines over the wire.
"$cods" serve "$addr" --demo &
server=$!
tries=0
until echo ping | "$cods" connect "$addr" > /dev/null 2>&1; do
    tries=$((tries + 1))
    test "$tries" -lt 20
    sleep 0.5
done
"$cods" connect "$addr" < ci/drive.cods
