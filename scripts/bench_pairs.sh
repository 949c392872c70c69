#!/usr/bin/env bash
# Alternating-pair comparison of two revisions on one benchmark workload:
#
#   scripts/bench_pairs.sh REV_A REV_B -workload W -pairs N [-seed S]
#
# Each revision's committed files are exported with `git archive` into a
# temporary directory (no worktree is registered, so an interrupted run
# leaves nothing behind in the repository) and its bench binary is built
# from there. The two binaries then run the driver's form
# (`--workload W --seed S --seconds 10 --trace 0`) N times each, in
# alternating pairs: A then B, then B then A, so a drift in the box's
# speed lands on both sides. Per end-to-end metric of BENCHMARK.json
# (REV_B's) it prints both medians, A's interquartile range, B/A of the
# medians, the pairs B won, and "clear" when there were at least ten
# pairs, B won nine in ten of them, and its median is better than A's by
# more than A's IQR.
#
# Last, each binary runs the workload once traced, and the script exits 1
# if the deterministic outcomes differ (collection digest, fetches,
# freshness, age; serve workloads have none), or if any run failed its
# checks. REV may be anything git names, e.g. `git stash create` for the
# staged and unstaged changes of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 REV_A REV_B -workload W -pairs N [-seed S]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
rev_a=$1 rev_b=$2
shift 2
workload="" pairs="" seed=1999
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    -workload | --workload) workload=$2 ;;
    -pairs | --pairs) pairs=$2 ;;
    -seed | --seed) seed=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] && [[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for side in a b; do
    if [ $side = a ]; then rev=$rev_a; else rev=$rev_b; fi
    commit=$(git rev-parse --verify --quiet "$rev^{commit}") || {
        echo "bench_pairs: $rev names no commit" >&2
        exit 2
    }
    mkdir "$tmp/src_$side"
    git archive "$commit" | tar -x -C "$tmp/src_$side"
    go build -C "$tmp/src_$side/bench" -o "$tmp/bench_$side" .
    echo "$side = $rev ($(git rev-parse --short "$commit"))"
done
"$tmp/bench_b" spec >"$tmp/spec.json"

# run SIDE TRACE: one driver-form run; its result line goes to
# $tmp/SIDE.lines (untraced) and its record stays in $tmp/out_SIDE.
run() {
    local line
    line=$(cd "$tmp" && "./bench_$1" --workload "$workload" --seed "$seed" \
        --seconds 10 --trace "$2" -out "$tmp/out_$1/results.json" | tail -n 1) || true
    case $line in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        echo "bench_pairs: $1 run failed: $line" >&2
        exit 1
        ;;
    esac
    [ "$2" = 1 ] || echo "$line" >>"$tmp/$1.lines"
}

for i in $(seq "$pairs"); do
    if [ $((i % 2)) = 1 ]; then run a 0; run b 0; else run b 0; run a 0; fi
    echo "pair $i/$pairs done" >&2
done

# metric VALUE per line: one end-to-end metric's values in run order.
metric() {
    sed -n "s/.*\"$1\":{\"value\":\([-0-9.eE+]*\).*/\1/p" "$tmp/$2.lines"
}

echo "$workload, seed $seed, $pairs alternating pairs"
printf '%-14s %12s %25s %12s %7s %7s\n' metric "A median" "A IQR" "B median" B/A "B wins"
awk '/"end_to_end"/ {on = 1} on && /"name"/ {gsub(/[",]/, ""); name = $2}
     on && /"better"/ {gsub(/[",]/, ""); print name, $2} on && /\]/ {exit}' "$tmp/spec.json" |
    while read -r name better; do
        paste <(metric "$name" a) <(metric "$name" b) | awk -v name="$name" -v better="$better" '
            function q(v, n, p,   pos, lo) {
                pos = p * (n - 1) + 1; lo = int(pos)
                return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
            }
            function sort(v, n,   i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            }
            { n++; a[n] = $1; b[n] = $2
              if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++ }
            END {
                if (n == 0) exit
                sort(a, n); sort(b, n)
                ma = q(a, n, 0.5); mb = q(b, n, 0.5); q1 = q(a, n, 0.25); q3 = q(a, n, 0.75)
                gain = better == "lower" ? ma - mb : mb - ma
                printf "%-14s %12.4g %12.4g – %-10.4g %12.4g %7.3f %4d/%d%s\n", name, ma, q1, q3, mb,
                    ma == 0 ? 0 : mb / ma, wins, n, (n >= 10 && wins * 10 >= 9 * n && gain > q3 - q1) ? "  clear" : ""
            }'
    done

# Deterministic outcomes of one traced run per side.
run a 1
run b 1
outcome() {
    tr ',{}' '\n\n\n' <"$tmp/out_$1/$workload.traced.json" |
        sed -n -E 's/^ *"(digest|fetches|freshness_end|age_end_days)": *"?([^"]*)"?$/\1=\2/p' | sort
}
out_a=$(outcome a) out_b=$(outcome b)
if [ "$out_a" != "$out_b" ]; then
    echo "deterministic outcomes differ:"
    paste <(echo "$out_a") <(echo "$out_b")
    exit 1
fi
echo "deterministic outcomes equal (traced):" ${out_a:-none recorded}
