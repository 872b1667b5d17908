#!/bin/sh
# Non-test Rust line counts, per file and per crate.
#
#   tools/loc.sh            every crate, then tests/ benches/ benchmark/
#   tools/loc.sh FILE...    just those files
#
# For each source file two numbers, both taken over the lines before the
# first `#[cfg(test)]` (the unit-test module always comes last in this
# repository): `lines` is every such line, `code` leaves out blank lines and
# lines that hold only a `//` comment. tests/, benches/, examples/ and
# benchmark/ are test and measurement code throughout; they are listed
# separately and counted whole.
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
for crate in crates/*; do
    # shellcheck disable=SC2046
    count 0 "$crate/src" $(rust_files "$crate/src")
done
# shellcheck disable=SC2046
count 0 "src" $(rust_files src)
echo "-- test and measurement code, whole files --"
# shellcheck disable=SC2046
count 1 "tests/ crates/*/tests/" $(rust_files tests crates/*/tests)
# shellcheck disable=SC2046
count 1 "crates/*/benches/ examples/" $(rust_files crates/*/benches examples)
# shellcheck disable=SC2046
count 1 "benchmark/" $(rust_files benchmark)
