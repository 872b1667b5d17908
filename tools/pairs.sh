#!/bin/sh
# Alternating pairs: this tree against BASE_REV, workload by workload.
#
#   tools/pairs.sh [--seed S] [--seconds T] [--dir DIR] BASE_REV N WORKLOAD...
#
# Checks BASE_REV out in a temporary `git worktree`, builds a release
# `flexbench` from it and one from this tree, each into its own target
# directory under DIR (default target/pairs; kept, so a rerun only rebuilds
# what changed), and puts `benchmark/Cargo.lock` back in both trees (cargo
# may rewrite it; `benchmark/` is frozen). Then runs N pairs: pair i
# measures every WORKLOAD once per side with seed S+i-1 (S defaults to 1)
# for T seconds (default: `run_seconds` of BENCHMARK.json), this tree
# first on odd pairs and BASE_REV first on even ones, appending every
# result to DIR/base.json and DIR/change.json (both emptied first). Each
# run's output is kept in DIR/log/. Prints one line per pair and workload —
# both throughputs, their ratio, who won and whether the `sim_digest`s agree
# — then per workload the win count, the median change/base throughput
# ratio and the median `peak_rss_mb` of each side, and finally `flexbench
# compare` of the two files, whose exit code it returns.
#
# The two binaries stay at DIR/base/release/flexbench and
# DIR/change/release/flexbench for traced (`--trace 1`) runs by hand.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

seed=1
seconds=
dir=target/pairs
while [ $# -gt 0 ]; do
    case $1 in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --dir) dir=$2; shift 2 ;;
    *) break ;;
    esac
done
if [ $# -lt 3 ]; then
    sed -n 's/^#   //p' "$0" >&2
    exit 2
fi
base_rev=$1
pairs=$2
shift 2

mkdir -p "$dir/log"
dir=$(cd "$dir" && pwd)
tree=$(mktemp -d)
trap 'git worktree remove --force "$tree/base" >/dev/null 2>&1 || true; rm -rf "$tree"' EXIT
git worktree add --quiet --detach "$tree/base" "$base_rev"

build() { # source-tree target-dir
    CARGO_TARGET_DIR=$2 cargo build --release --quiet --manifest-path "$1/benchmark/Cargo.toml"
    git -C "$1" checkout --quiet -- benchmark/Cargo.lock
}
echo "building $base_rev and this tree ..." >&2
build "$tree/base" "$dir/base"
build "$root" "$dir/change"

rm -f "$dir/base.json" "$dir/change.json"

measure() { # side pair workload seed
    log="$dir/log/$1-$2-$3.txt"
    set -- "$dir/$1/release/flexbench" run --seed "$4" --out "$dir/$1.json" "$3"
    if [ -n "$seconds" ]; then
        set -- "$@" --seconds "$seconds"
    fi
    "$@" >"$log" 2>&1 || true
}

# A metric's value in a run's log (from its last result line), and the
# run's `sim_digest`.
metric() { sed -n "s/.*\"$2\": {\"value\": \([0-9.e+-]*\).*/\1/p" "$1" | tail -n 1; }
throughput() { metric "$1" throughput_ops_s; }
digest() { sed -n 's/.*sim_digest \(0x[0-9a-f]*\).*/\1/p' "$1" | head -n 1; }
# The median of the numbers on stdin, one a line ("-" when there are none).
median() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "-"; exit }
        printf "%.3f\n", NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
    }'
}
# The `peak_rss_mb` of every pair's run of workload $2 on side $1.
rss_runs() {
    i=1
    while [ "$i" -le "$pairs" ]; do
        metric "$dir/log/$1-$i-$2.txt" peak_rss_mb
        i=$((i + 1))
    done
}

printf '%-5s %-6s %-16s %12s %12s %7s %-6s %s\n' pair seed workload base change ratio win digests
i=1
while [ "$i" -le "$pairs" ]; do
    s=$((seed + i - 1))
    for w in "$@"; do
        if [ $((i % 2)) -eq 1 ]; then
            measure change "$i" "$w" "$s"
            measure base "$i" "$w" "$s"
        else
            measure base "$i" "$w" "$s"
            measure change "$i" "$w" "$s"
        fi
        b=$(throughput "$dir/log/base-$i-$w.txt")
        c=$(throughput "$dir/log/change-$i-$w.txt")
        same=differ
        [ "$(digest "$dir/log/base-$i-$w.txt")" = "$(digest "$dir/log/change-$i-$w.txt")" ] && same=equal
        awk -v i="$i" -v s="$s" -v w="$w" -v b="${b:-0}" -v c="${c:-0}" -v d="$same" 'BEGIN {
            r = b > 0 ? c / b : 0
            printf "%-5d %-6d %-16s %12.1f %12.1f %7.3f %-6s %s\n", i, s, w, b, c, r, (c > b ? "change" : "base"), d
        }'
    done
    i=$((i + 1))
done | tee "$dir/pairs.txt"

echo
for w in "$@"; do
    awk -v w="$w" '$3 == w { n++; if ($7 == "change") won++ } END {
        printf "%-16s change won %d of %d pairs", w, won, n
    }' "$dir/pairs.txt"
    ratio=$(awk -v w="$w" '$3 == w { print $6 }' "$dir/pairs.txt" | median)
    printf ', median ratio %s, median peak_rss_mb base %s change %s\n' "$ratio" \
        "$(rss_runs base "$w" | median)" "$(rss_runs change "$w" | median)"
done
echo
"$dir/change/release/flexbench" compare "$dir/base.json" "$dir/change.json"
