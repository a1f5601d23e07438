#!/usr/bin/env bash
# Prints, per crate, the lines of `crates/<crate>/src` that lie above each
# file's first `#[cfg(test)]` (a file without one counts whole), then
# their total: the non-test size a `[simplicity]` change is measured by.
# A file that a `#[cfg(test)] mod name;` declares is test code all through
# and counts nothing; the declaration itself does not end its own file's
# non-test part. It is a measure, not a gate.
#
#   scripts/nontest_lines.sh                  # every crate
#   scripts/nontest_lines.sh herder overlay   # the named crates
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    set -- $(ls crates)
fi
# `#[cfg(test)]` followed by an out-of-line `mod name;` declaration.
test_mod='^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;'
total=0
for crate in "$@"; do
    files=$(find "crates/$crate/src" -name '*.rs' | sort)
    # The files of modules declared under `#[cfg(test)]`: `name.rs` or
    # `name/mod.rs` beside `lib.rs`/`main.rs`/`mod.rs`, else in the
    # declaring file's own directory.
    test_only=""
    for file in $files; do
        dir=$(dirname "$file")
        stem=$(basename "$file" .rs)
        case $stem in lib | main | mod) ;; *) dir="$dir/$stem" ;; esac
        for name in $(awk -v decl="$test_mod" '
                cfg && $0 ~ decl { sub(/.*mod /, ""); sub(/;.*/, ""); print }
                { cfg = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) }' "$file"); do
            test_only="$test_only $dir/$name.rs $dir/$name/mod.rs"
        done
    done
    lines=0
    for file in $files; do
        case " $test_only " in *" $file "*) continue ;; esac
        above=$(awk -v decl="$test_mod" '
                cfg && $0 !~ decl { print cfg - 1; found = 1; exit }
                { cfg = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) ? NR : 0 }
                END { if (!found) print (cfg ? cfg - 1 : NR) }' "$file")
        lines=$((lines + above))
    done
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
