#!/usr/bin/env bash
# Alternating-pair comparison of two revisions on one package's Go
# benchmarks (the layer rows of BENCH_engine.json):
#
#   scripts/layer_pairs.sh REV_A REV_B -pkg P -bench RE -pairs N [-benchtime T]
#
# Each revision's committed files are exported with `git archive` into a
# temporary directory, as bench_pairs.sh does, and package P's test
# binary is built there with `go test -c`. The two binaries then run the
# benchmarks matching RE with -benchmem (and -benchtime T when given)
# from their package directories, N times each, in alternating pairs: A
# then B, then B then A. For every benchmark row and unit (ns/op, B/op,
# allocs/op and any custom unit the benchmark reports) it prints both
# medians, A's interquartile range, B/A of the medians and the pairs B
# won. A unit ending in /s is better higher, every other unit lower.
# REV may be anything git names, e.g. `git stash create` for the staged
# and unstaged changes of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 REV_A REV_B -pkg P -bench RE -pairs N [-benchtime T]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
rev_a=$1 rev_b=$2
shift 2
pkg="" bench="" pairs="" benchtime=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    -pkg | --pkg) pkg=$2 ;;
    -bench | --bench) bench=$2 ;;
    -pairs | --pairs) pairs=$2 ;;
    -benchtime | --benchtime) benchtime=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -n "$pkg" ] && [ -n "$bench" ] && [[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for side in a b; do
    if [ $side = a ]; then rev=$rev_a; else rev=$rev_b; fi
    commit=$(git rev-parse --verify --quiet "$rev^{commit}") || {
        echo "layer_pairs: $rev names no commit" >&2
        exit 2
    }
    mkdir "$tmp/src_$side"
    git archive "$commit" | tar -x -C "$tmp/src_$side"
    go test -C "$tmp/src_$side" -c -o "$tmp/$side.test" "$pkg"
    echo "$side = $rev ($(git rev-parse --short "$commit"))"
done

flags=(-test.run '^$' -test.bench "$bench" -test.benchmem -test.timeout 30m)
[ -z "$benchtime" ] || flags+=(-test.benchtime "$benchtime")

# run SIDE PAIR: one run of SIDE's binary; every "value unit" of every
# benchmark row goes to $tmp/rows as "SIDE PAIR NAME UNIT VALUE".
run() {
    local out
    out=$(cd "$tmp/src_$1/$pkg" && "$tmp/$1.test" "${flags[@]}") || {
        echo "layer_pairs: $1 run failed:" >&2
        echo "$out" >&2
        exit 1
    }
    echo "$out" | awk -v side="$1" -v pair="$2" '
        /^Benchmark/ { for (i = 3; i + 1 <= NF; i += 2) print side, pair, $1, $(i + 1), $i }' >>"$tmp/rows"
}

for i in $(seq "$pairs"); do
    if [ $((i % 2)) = 1 ]; then run a "$i"; run b "$i"; else run b "$i"; run a "$i"; fi
    echo "pair $i/$pairs done" >&2
done

echo "$pkg -bench '$bench'${benchtime:+ -benchtime $benchtime}, $pairs alternating pairs"
printf '%-44s %-16s %12s %27s %12s %7s %7s\n' benchmark unit "A median" "A IQR" "B median" B/A "B wins"
awk '
    function q(v, n, p,   pos, lo) {
        pos = p * (n - 1) + 1; lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function sort(v, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    function num(x) { return sprintf(x >= 1e5 || x <= -1e5 ? "%.0f" : "%.6g", x) }
    {
        key = $3 SUBSEP $4
        if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key }
        val[$1, key, $2] = $5
    }
    END {
        for (k = 1; k <= nkeys; k++) {
            key = order[k]; split(key, nu, SUBSEP)
            higher = nu[2] ~ /\/s$/
            n = 0; wins = 0
            for (p = 1; p <= '"$pairs"'; p++) {
                if (!(("a", key, p) in val) || !(("b", key, p) in val)) continue
                n++; a[n] = val["a", key, p]; b[n] = val["b", key, p]
                if ((higher && b[n] > a[n]) || (!higher && b[n] < a[n])) wins++
            }
            if (n == 0) continue
            sort(a, n); sort(b, n)
            ma = q(a, n, 0.5); mb = q(b, n, 0.5)
            printf "%-44s %-16s %12s %12s – %-12s %12s %7.3f %4d/%d\n", nu[1], nu[2], num(ma),
                num(q(a, n, 0.25)), num(q(a, n, 0.75)), num(mb), ma == 0 ? (mb == 0) : mb / ma, wins, n
        }
    }' "$tmp/rows"
