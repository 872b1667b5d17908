#!/bin/sh
# Public functions nobody calls: deletion candidates.
#
#   tools/dead_pub.sh
#
# For every `pub fn` declared before the first `#[cfg(test)]` of a file
# under crates/*/src (binaries excluded), prints `file:line name` when the
# name occurs in no other file of crates/ tests/ examples/ benchmark/src and
# nowhere else in its own file's non-test part. Comment lines and `use`
# statements do not count as occurrences, so a function kept alive only by
# its own unit tests, its docs and a re-export is listed. Names are matched
# as words, not paths: a name shared with any other function (`new`, `len`)
# is never listed, so the list under-reports and what it prints is real.
set -eu
cd "$(dirname "$0")/.."

find crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort |
    xargs awk '
    FNR == 1 {
        intest = 0; inuse = 0
        lib = FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /\/bin\//
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { intest = 1 }
    /^[[:space:]]*\/\// { next }
    inuse { if ($0 ~ /;/) inuse = 0; next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?use / { if ($0 !~ /;/) inuse = 1; next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (lib && !intest && match(line, /^[[:space:]]*pub fn [A-Za-z_0-9]+/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.*pub fn /, "", name)
            decl[FILENAME SUBSEP name] = FNR
        }
        n = split(line, word, /[^A-Za-z_0-9]+/)
        for (i = 1; i <= n; i++) {
            if (word[i] == "") continue
            everywhere[word[i]]++
            here[FILENAME SUBSEP word[i]]++
            if (!intest) live[FILENAME SUBSEP word[i]]++
        }
    }
    END {
        for (k in decl) {
            split(k, part, SUBSEP)
            if (everywhere[part[2]] == here[k] && live[k] == 1)
                printf "%s:%d %s\n", part[1], decl[k], part[2]
        }
    }' | sort -t: -k1,1 -k2,2n
