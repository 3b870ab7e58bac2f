#!/bin/sh
# Fails when a crate root of the product lacks `#![forbid(unsafe_code)]`:
# src/lib.rs and every crates/*/src/lib.rs, crates/*/src/main.rs and
# crates/*/src/bin/*.rs, the dependency shims under crates/shims included.
# With the attribute in every root, an `unsafe` anywhere in the product is a
# compile error. Run from the repository root.
set -eu

checked=0
missing=0
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs crates/*/src/bin/*.rs \
    crates/shims/*/src/lib.rs crates/shims/*/src/main.rs crates/shims/*/src/bin/*.rs; do
    test -f "$root" || continue
    checked=$((checked + 1))
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
        echo "missing #![forbid(unsafe_code)]: $root"
        missing=$((missing + 1))
    fi
done
echo "$checked crate roots checked, $missing without #![forbid(unsafe_code)]"
test "$missing" -eq 0
