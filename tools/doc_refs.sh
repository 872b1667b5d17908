#!/bin/sh
# Code references in the prose that no longer resolve: a gate.
#
#   tools/doc_refs.sh
#
# Reads README.md and DESIGN.md and fails when
#
# - a `file.rs:line` names a file that no path in the tree ends with, or a
#   line past the end of every file it could mean;
# - a backticked `a::b`, `a::b::c`, `a::{b, c}` (a trailing `(..)` or
#   `{ .. }` is ignored) has an adjacent pair `x::y` that resolves nowhere:
#   no Rust file declares `y` (fn, struct, enum, trait, const, static, type,
#   mod, macro, enum variant or field) while also being `x` — its path has
#   `x` as a component, `flexnet_` stripped — or mentioning `x` as a word.
#
# Paths that start in the standard library are not checked. Like
# `dead_pub.sh` this matches words, not Rust paths: it misses a reference
# to a name that moved, and what it prints is real.
set -eu
cd "$(dirname "$0")/.."

docs="README.md DESIGN.md"
srcs=$(find crates src tests examples benchmark/src -name '*.rs' -not -path '*/target/*')
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# file.rs:line
# shellcheck disable=SC2086
grep -on '[A-Za-z_0-9/.-]*[A-Za-z_0-9]\.rs:[0-9][0-9]*' $docs |
    while IFS=: read -r doc at file line; do
        longest=0
        for f in $srcs; do
            case "/$f" in
            */"$file")
                n=$(wc -l <"$f")
                [ "$n" -gt "$longest" ] && longest=$n
                ;;
            esac
        done
        [ "$longest" -ge "$line" ] || echo "$doc:$at: $file:$line (no such line)"
    done >"$tmp/stale"

# `x::y`
# shellcheck disable=SC2086
grep -on '`[A-Za-z_][A-Za-z_0-9]*\(::[A-Za-z_][A-Za-z_0-9]*\)*::\({[^}`]*}\|[A-Za-z_][A-Za-z_0-9]*\)\( {[^`]*}\|([^`]*)\)\?`' $docs |
    sed 's/`//g; s/ {.*//; s/(.*//' |
    awk -F: '{
        where = $1 ":" $2
        path = $0
        sub(/^[^:]*:[^:]*:/, "", path)
        n = split(path, seg, "::")
        if (seg[1] ~ /^(std|fmt|mem|iter|cmp|prop)$/) next
        m = 1
        last[1] = seg[n]
        if (seg[n] ~ /^{/) {
            gsub(/[{} ]/, "", seg[n])
            m = split(seg[n], last, ",")
        }
        for (i = 1; i < n - 1; i++) print where, seg[i], seg[i + 1], path
        for (j = 1; j <= m; j++) if (last[j] != "") print where, seg[n - 1], last[j], path
    }' | sort -u -k2,3 >"$tmp/pairs"

while read -r where x y path; do
    x=${x#flexnet_}
    decl="(fn|struct|enum|trait|const|static|type|mod|macro_rules!) +$y\\b|^ *$y *(\\(|\\{|,|=|\$)|^ *(pub(\\([a-z]+\\))? +)?$y *:"
    found=0
    # shellcheck disable=SC2086
    for f in $(grep -lE "$decl" $srcs || true); do
        case "/$f" in
        */"$x"/* | */"$x".rs) found=1 ;;
        *) grep -qw "$x" "$f" && found=1 ;;
        esac
        [ "$found" -eq 1 ] && break
    done
    [ "$found" -eq 1 ] || echo "$where: \`$path\` ($x::$y resolves nowhere)"
done <"$tmp/pairs" >>"$tmp/stale"

if [ -s "$tmp/stale" ]; then
    sort -t: -k1,1 -k2,2n "$tmp/stale"
    exit 1
fi
