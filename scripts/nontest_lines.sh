#!/usr/bin/env bash
# Prints, per crate, the lines of `crates/<crate>/src` that are not test
# code, then their total: the non-test size a `[simplicity]` change is
# measured by. Every item gated by `#[cfg(test)]` is left out, with the
# attributes and doc comments between the gate and the item: a
# brace-balanced block (a `mod tests`, an `impl`, a function), or else
# one line up to its `;` or `,` (a field, a `use`, a declaration). A
# file that a `#[cfg(test)] mod name;` declares is test code all through
# and counts nothing. It is a measure, not a gate.
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
        kept=$(awk '
            # The code of a line: string and char literals and a trailing
            # comment removed, so only the braces of the code are counted.
            function code(line) {
                gsub(/"([^"\\]|\\.)*"/, "", line)
                gsub(/'"'"'([^'"'"'\\]|\\.)'"'"'/, "", line)
                sub(/\/\/.*/, "", line)
                return line
            }
            function item(line,   c, opens, closes) {
                c = code(line)
                opens = gsub(/\{/, "{", c)
                closes = gsub(/\}/, "}", c)
                depth += opens - closes
                if (opens > 0) opened = 1
                sub(/[[:space:]]+$/, "", c)
                if ((opened && depth <= 0) || (!opened && c ~ /[;,]$/)) state = 0
            }
            state == 2 { skipped++; item($0); next }
            state == 1 {
                skipped++
                if ($0 !~ /^[[:space:]]*(#\[|\/\/|$)/) { state = 2; item($0) }
                next
            }
            /^[[:space:]]*#\[cfg\(test\)\]/ {
                skipped++
                rest = $0
                sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "", rest)
                depth = 0; opened = 0
                if (rest == "") state = 1; else { state = 2; item(rest) }
                next
            }
            END { print NR - skipped }' "$file")
        lines=$((lines + kept))
    done
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
