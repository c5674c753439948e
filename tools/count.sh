#!/bin/sh
# The size of the tree by the rule CHANGES.md has used since PR 15, so a
# PR's line budget is one command and not a hand count:
#   non-test lines   every line of crates/*/src/**/*.rs above the file's
#                    first `#[cfg(test)]`; `tests.rs` and `test_util.rs`
#                    are test code and left out
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
printf 'unsafe lines                    %s\n' \
    "$(grep -rn 'unsafe' crates tests --include='*.rs' | wc -l)"
printf 'thread::sleep sites             %s\n' \
    "$(grep -rn 'thread::sleep' crates examples tests --include='*.rs' | wc -l)"
printf 'distinct TTG_* names            %s\n' \
    "$(grep -rhoE 'TTG_[A-Z0-9_]+' crates examples tests --include='*.rs' | sort -u | wc -l)"
for c in crates/*/; do
    printf '  %-12s %s\n' "$(basename "$c")" "$(non_test "${c}src")"
done
