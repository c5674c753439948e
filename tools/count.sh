#!/bin/sh
# The size of the tree by the rule CHANGES.md has used since PR 15, so a
# PR's line budget is one command and not a hand count:
#   non-test lines   every line of crates/*/src/**/*.rs above the file's
#                    first `#[cfg(test)]`; `tests.rs` and `test_util.rs`
#                    are test code and left out
#   ttg-core reaches the same, over the crates under crates/ that
#                    `cargo tree -p ttg-core -e normal` lists (itself
#                    included): what a program built on ttg-core links
#   unsafe lines     lines under crates/ and tests/ that say `unsafe`,
#                    tests included (tests/ since the 64 KiB gate, whose
#                    allocator and CPU pinning are `unsafe`)
#   thread::sleep    call sites under crates/, examples/, tests/
#   TTG_* names      distinct environment variables named in the same
# Run from anywhere; `tools/count.sh <dir>` counts another checkout.
set -eu
cd "${1:-$(dirname "$0")/..}"

# Counts the non-test lines of the source directories given.
non_test() {
    find "$@" -name '*.rs' ! -name tests.rs ! -name test_util.rs |
        while read -r f; do
            awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f"
        done | wc -l
}

printf 'non-test lines of crates/*/src  %s\n' "$(non_test crates/*/src)"
core_srcs=$(cargo tree -p ttg-core -e normal --offline --prefix none --format '{p}' |
    sed -n 's|.*(\(.*/crates/[^)]*\)).*|\1/src|p' | sort -u)
# shellcheck disable=SC2086 # one directory per word
printf '  of them, what ttg-core reaches %s\n' "$(non_test $core_srcs)"
printf 'unsafe lines                    %s\n' \
    "$(grep -rn 'unsafe' crates tests --include='*.rs' | wc -l)"
printf 'thread::sleep sites             %s\n' \
    "$(grep -rn 'thread::sleep' crates examples tests --include='*.rs' | wc -l)"
printf 'distinct TTG_* names            %s\n' \
    "$(grep -rhoE 'TTG_[A-Z0-9_]+' crates examples tests --include='*.rs' | sort -u | wc -l)"
for c in crates/*/; do
    printf '  %-12s %s\n' "$(basename "$c")" "$(non_test "${c}src")"
done
