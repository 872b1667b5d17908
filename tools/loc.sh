#!/bin/sh
# Non-test Rust line counts, per file and per crate.
#
#   tools/loc.sh            every crate, the total over crates/*/src, the
#                           libraries' total (the same without crates/bench,
#                           the experiment harness), then tests/ benches/
#                           benchmark/, then one whole-file total
#   tools/loc.sh FILE...    just those files
#
# For each source file two numbers, both taken over the lines before the
# first `#[cfg(test)]` (the unit-test module always comes last in this
# repository): `lines` is every such line, `code` leaves out blank lines and
# lines that hold only a `//` comment. tests/, benches/, examples/ and
# benchmark/ are test and measurement code throughout; they are listed
# separately and counted whole. The last line counts the libraries, tests/,
# crates/*/tests/ and vendor/ whole, unit-test modules included, so code
# moved between a library's test module and a test file leaves it alone:
# the number a "the total must fall" claim is checked against.
set -eu
cd "$(dirname "$0")/.."

count() { # whole(0|1) label file...
    whole=$1
    label=$2
    shift 2
    awk -v whole="$whole" -v label="$label" '
        FNR == 1 { intest = 0 }
        !whole && /^[[:space:]]*#\[cfg\(test\)\]/ { intest = 1 }
        intest { next }
        { lines[FILENAME]++; tl++ }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code[FILENAME]++; tc++ }
        END {
            for (f in lines) printf "  %7d %7d  %s\n", lines[f], code[f], f | "sort -k3"
            close("sort -k3")
            printf "%9d %7d  %s\n", tl, tc, label
        }' "$@"
}

rust_files() { find "$@" -name '*.rs' -not -path '*/target/*' | sort; }

echo "    lines    code  (to the first #[cfg(test)]; code = not blank, not //)"
if [ $# -gt 0 ]; then
    count 0 "total" "$@"
    exit 0
fi
libs=
for crate in crates/*; do
    # shellcheck disable=SC2046
    count 0 "$crate/src" $(rust_files "$crate/src")
    [ "$crate" = crates/bench ] || libs="$libs $crate/src"
done
# The one number a "net negative" claim is checked against.
# shellcheck disable=SC2046
count 0 "crates/*/src (total)" $(rust_files crates/*/src) | tail -n 1
# What the libraries ship: code moved into the harness leaves this line.
# shellcheck disable=SC2046,SC2086
count 0 "libraries (crates/*/src without crates/bench)" $(rust_files $libs) | tail -n 1
# shellcheck disable=SC2046
count 0 "src" $(rust_files src)
echo "-- test and measurement code, whole files --"
# shellcheck disable=SC2046
count 1 "tests/ crates/*/tests/" $(rust_files tests crates/*/tests)
# shellcheck disable=SC2046
count 1 "crates/*/benches/ examples/" $(rust_files crates/*/benches examples)
# shellcheck disable=SC2046
count 1 "benchmark/" $(rust_files benchmark)
echo "-- whole files --"
# shellcheck disable=SC2046,SC2086
count 1 "whole-file total (libraries + tests/ + crates/*/tests/ + vendor/)" \
    $(rust_files $libs tests crates/*/tests vendor) | tail -n 1
