#!/bin/sh
# Public items nobody uses: a gate, not a report.
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
# Exits non-zero unless the printed names are exactly the names in
# tools/dead_pub.allow (one `name — reason` per line, `#` comments): an
# unlisted entry fails, and so does a listed entry the tool no longer
# prints — the allowlist can only shrink.
set -eu
cd "$(dirname "$0")/.."

dead=$(find crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort |
    xargs awk '
    FNR == 1 {
        intest = 0; inuse = 0; inhdr = 0; inimpl = 0
        lib = FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /\/bin\//
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
            if (!intest && !(inimpl && word[i] in subject)) apart[FILENAME SUBSEP word[i]]++
        }
    }
    END {
        for (k in decl) {
            split(k, part, SUBSEP)
            if (everywhere[part[2]] == here[k] && (live[k] == 1 || (k in type && apart[k] == 1)))
                printf "%s:%d %s\n", part[1], decl[k], part[2]
        }
    }' | sort -t: -k1,1 -k2,2n)
[ -z "$dead" ] || printf '%s\n' "$dead"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf '%s\n' "$dead" | sed -n 's/.* //p' | sort >"$tmp/printed"
sed -n 's/^\([A-Za-z_0-9][A-Za-z_0-9]*\) — ..*/\1/p' tools/dead_pub.allow | sort >"$tmp/allowed"
unlisted=$(comm -23 "$tmp/printed" "$tmp/allowed")
stale=$(comm -13 "$tmp/printed" "$tmp/allowed")
# shellcheck disable=SC2086
[ -z "$unlisted" ] || echo "dead_pub: no caller and not in tools/dead_pub.allow (delete it or give it a caller):" $unlisted >&2
# shellcheck disable=SC2086
[ -z "$stale" ] || echo "dead_pub: in tools/dead_pub.allow but no longer printed (delete the line):" $stale >&2
[ -z "$unlisted$stale" ]
