#!/bin/sh
# Public items nobody uses, and public items only tests use: a gate, not a
# report.
#
#   tools/dead_pub.sh
#
# For every `pub fn|struct|enum|trait|const|type` declared before the first
# `#[cfg(test)]` of a file under crates/*/src (binaries excluded), prints
# `file:line name` when the name occurs in no other file of crates/ tests/
# examples/ benchmark/src and nowhere else in its own file's non-test part.
# Comment lines and `use` statements do not count as occurrences, so an item
# kept alive only by its own unit tests, its docs and a re-export is listed.
# For a `pub struct|enum|trait`, occurrences inside a top-level `impl` block
# whose header names the type do not count either: a type that only its own
# definition and its own `impl` blocks mention is listed.
# Names are matched as words, not paths: a name shared with any other item
# (`new`, `len`) is never listed, so the list under-reports and what it
# prints is real.
#
# A second list, printed after a `-- reached only by tests --` line, holds
# the items that pass the own-file test above but that other files do
# name — and only in test code: files under a `tests/` directory and the
# `#[cfg(test)]` part of any file. Such an item is library surface kept
# for tests alone (a from-scratch reference, an introspection read).
#
# Exits non-zero unless the first list's names are exactly the names in
# tools/dead_pub.allow and the second list's exactly those in
# tools/tests_only_pub.allow (one `name — reason` per line, `#` comments):
# an unlisted entry fails, and so does a listed entry the tool no longer
# prints — each allowlist can only shrink.
set -eu
cd "$(dirname "$0")/.."

found=$(find crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort |
    xargs awk '
    FNR == 1 {
        intest = 0; inuse = 0; inhdr = 0; inimpl = 0
        lib = FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /\/bin\//
        testfile = FILENAME ~ /(^|\/)tests\//
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { intest = 1 }
    /^[[:space:]]*\/\// { next }
    inuse { if ($0 ~ /;/) inuse = 0; next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?use / { if ($0 !~ /;/) inuse = 1; next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (lib && !intest &&
            match(line, /^[[:space:]]*pub (const fn|fn|struct|enum|trait|const|type) [A-Za-z_0-9]+/)) {
            name = substr(line, RSTART, RLENGTH)
            istype = name ~ /pub (struct|enum|trait) /
            sub(/.* /, "", name)
            decl[FILENAME SUBSEP name] = FNR
            if (istype) type[FILENAME SUBSEP name] = 1
        }
        # A top-level `impl` block: its header runs to the first `{`, its
        # body to the next `}` in column one.
        if (line ~ /^impl[ <]/) { inimpl = 1; inhdr = 1; split("", subject) }
        if (line ~ /^}/) inimpl = 0
        n = split(line, word, /[^A-Za-z_0-9]+/)
        if (inhdr) for (i = 1; i <= n; i++) subject[word[i]] = 1
        if (inhdr && line ~ /\{/) inhdr = 0
        for (i = 1; i <= n; i++) {
            if (word[i] == "") continue
            everywhere[word[i]]++
            here[FILENAME SUBSEP word[i]]++
            if (!intest) live[FILENAME SUBSEP word[i]]++
            if (!intest && !testfile) user[word[i]]++
            if (!intest && !(inimpl && word[i] in subject)) apart[FILENAME SUBSEP word[i]]++
        }
    }
    END {
        for (k in decl) {
            split(k, part, SUBSEP)
            if (!(live[k] == 1 || (k in type && apart[k] == 1)))
                continue
            # `user` counts non-test code everywhere; `live` its own-file share.
            if (everywhere[part[2]] == here[k])
                printf "dead %s:%d %s\n", part[1], decl[k], part[2]
            else if (user[part[2]] == live[k])
                printf "tests %s:%d %s\n", part[1], decl[k], part[2]
        }
    }' | sort -t: -k1,1 -k2,2n)
dead=$(printf '%s\n' "$found" | sed -n 's/^dead //p')
tests=$(printf '%s\n' "$found" | sed -n 's/^tests //p')
[ -z "$dead" ] || printf '%s\n' "$dead"
[ -z "$tests" ] || printf -- '-- reached only by tests --\n%s\n' "$tests"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=
check() { # printed-list allowlist what-the-entries-lack
    printf '%s\n' "$1" | sed -n 's/.* //p' | sort >"$tmp/printed"
    sed -n 's/^\([A-Za-z_0-9][A-Za-z_0-9]*\) — ..*/\1/p' "$2" | sort >"$tmp/allowed"
    unlisted=$(comm -23 "$tmp/printed" "$tmp/allowed")
    stale=$(comm -13 "$tmp/printed" "$tmp/allowed")
    # shellcheck disable=SC2086
    [ -z "$unlisted" ] || echo "dead_pub: $3 and not in $2 (delete it or give it a caller):" $unlisted >&2
    # shellcheck disable=SC2086
    [ -z "$stale" ] || echo "dead_pub: in $2 but no longer printed (delete the line):" $stale >&2
    [ -z "$unlisted$stale" ] || failed=1
}
check "$dead" tools/dead_pub.allow "no caller"
check "$tests" tools/tests_only_pub.allow "reached only by tests"
[ -z "$failed" ]
