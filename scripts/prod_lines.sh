#!/usr/bin/env bash
# Production lines of Rust per crate, and their total.
#
# Usage: scripts/prod_lines.sh [REPO_ROOT]   (default: the current directory)
#
# Counts every `.rs` file under `crates/*/src` and the root `src`: the lines
# before the file's first `#[cfg(test)]`, minus blank lines and lines that
# are only a comment (`//`, `///`, `//!`). `crates/sim/src/config/tests.rs`
# is a test module kept in its own file and is left out.
set -euo pipefail

root=${1:-.}
cd "$root"

count() {
    find "$@" -name '*.rs' ! -path 'crates/sim/src/config/tests.rs' -print0 |
        sort -z |
        xargs -0 awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            in_test { next }
            /^[[:space:]]*$/ { next }
            /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    total=$((total + n))
    name=${dir%/src}
    printf '%-16s %6d\n' "${name#crates/}" "$n"
done
printf '%-16s %6d\n' total "$total"
