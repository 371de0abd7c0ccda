#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree, judged
# by the rule in the choosing-metrics guide (section 8): the change wins a
# metric only if it is better in at least nine tenths of the pairs (ties
# count for neither side) and the medians differ by more than the distance
# between the quartiles of the parent's own runs.
#
#   scripts/pairs.sh <parent-ref> <workload> [pairs=10]
#
# The parent is checked out into a `git worktree` under a temporary
# directory; both sides' `benchmark/` packages are built as they are into
# target directories of their own there, and nothing under either
# `benchmark/` is edited. Each pair runs
#   bench --workload W --seed S --seconds 12 --trace 0
# once per side, the side that goes first alternating from pair to pair.
# After the pairs on seed 42 one more pair runs on seed 1729 — a seed to
# keep out of development — and is reported on its own. Equal seeds must
# give equal `semantic_digest`s on both sides.
#
# Environment: PAIRS_DIR (work directory; default a fresh temporary one,
# removed on exit — a directory you name is kept, builds included).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
# The benchmark's own seed and run length; the verdict holds for these only.
seed=42
holdout=1729
seconds=12

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ -n "${PAIRS_DIR:-}" ]; then
    work=$PAIRS_DIR
    mkdir -p "$work"
    keep=1
else
    work=$(mktemp -d)
    keep=0
fi
parent_tree=$work/parent
cleanup() {
    git -C "$repo" worktree remove --force "$parent_tree" 2>/dev/null || true
    [ "$keep" = 1 ] || rm -rf "$work"
}
trap cleanup EXIT

echo "==> parent $parent_ref -> $parent_tree"
git -C "$repo" worktree remove --force "$parent_tree" 2>/dev/null || true
git -C "$repo" worktree add --detach --force "$parent_tree" "$parent_ref" >/dev/null

build() { # <checkout> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
echo "==> building parent and change benchmark/ (release)"
build "$parent_tree" "$work/target-parent"
build "$repo" "$work/target-change"

# One run: appends "<side> <seed> <setup_s> <wall_s> <rt_factor>
# <peak_rss_mb> <failed> <digest>" to $work/runs.
: >"$work/runs"
run() { # <side> <seed>
    local side=$1 s=$2 tree bin out line digest
    if [ "$side" = parent ]; then tree=$parent_tree; else tree=$repo; fi
    bin=$work/target-$side/release/horse-benchmark
    out=$(cd "$tree" && "$bin" bench --workload "$workload" --seed "$s" \
        --seconds "$seconds" --trace 0)
    line=$(printf '%s\n' "$out" | tail -n 1)
    digest=$(printf '%s\n' "$out" | sed -n 's/.*semantic_digest \([0-9a-f]*\).*/\1/p' | tail -n 1)
    value() { printf '%s' "$line" | sed -n "s/.*\"$1\": {\"value\": \([0-9.eE+-]*\).*/\1/p"; }
    printf '%s %s %s %s %s %s %s %s\n' "$side" "$s" "$(value setup_s)" "$(value wall_s)" \
        "$(value rt_factor)" "$(value peak_rss_mb)" \
        "$(printf '%s' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')" "$digest" \
        | tee -a "$work/runs"
}

pair() { # <index> <seed>
    if [ $(($1 % 2)) -eq 0 ]; then
        run parent "$2"
        run change "$2"
    else
        run change "$2"
        run parent "$2"
    fi
}

echo "==> $pairs pairs on seed $seed, $seconds s per run (side seed setup_s wall_s rt_factor peak_rss_mb failed digest)"
for i in $(seq 0 $((pairs - 1))); do
    pair "$i" "$seed"
done
echo "==> one pair on the held-out seed $holdout"
pair "$pairs" "$holdout"

echo
echo "==> $workload, parent $parent_ref vs working tree"
awk -v seed="$seed" -v holdout="$holdout" '
function quartiles(v, n, q,    i, j, t, h) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    h = int(n / 2)
    q[2] = mid(v, 1, n); q[1] = mid(v, 1, h); q[3] = mid(v, n - h + 1, n)
}
function mid(v, lo, hi,    m) { m = lo + hi; return (m % 2) ? (v[(m - 1) / 2] + v[(m + 1) / 2]) / 2 : v[m / 2] }
{
    side = $1; s = $2
    if (digest[s] == "") digest[s] = $8; else if (digest[s] != $8) differ[s] = 1
    failed[side] += $7
    if (s != seed) { for (m = 0; m < 4; m++) held[side, m] = $(3 + m); next }
    n[side]++
    for (m = 0; m < 4; m++) val[side, m, n[side]] = $(3 + m)
}
END {
    split("setup_s wall_s rt_factor peak_rss_mb", name, " ")
    pairs = n["parent"]
    for (m = 0; m < 4; m++) {
        wins = 0; losses = 0
        for (i = 1; i <= pairs; i++) {
            p[i] = val["parent", m, i]; c[i] = val["change", m, i]
            if (c[i] < p[i]) wins++; else if (c[i] > p[i]) losses++
        }
        quartiles(p, pairs, pq); quartiles(c, pairs, cq)
        iqr = pq[3] - pq[1]
        delta = (cq[2] - pq[2]) / pq[2] * 100
        if (wins * 10 >= pairs * 9 && pq[2] - cq[2] > iqr) verdict = "GAIN"
        else if (losses * 10 >= pairs * 9 && cq[2] - pq[2] > iqr) verdict = "WORSE"
        else verdict = "no difference shown"
        printf "%-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  change better in %d of %d, worse in %d; parent IQR %.3g: %s\n", \
            name[m + 1], pq[2], pq[1], pq[3], cq[2], cq[1], cq[3], delta, wins, pairs, losses, iqr, verdict
        printf "%-12s held-out seed %s: parent %.4g  change %.4g  %+.1f%%\n", "", holdout, \
            held["parent", m], held["change", m], (held["change", m] - held["parent", m]) / held["parent", m] * 100
    }
    printf "failed runs: parent %d, change %d\n", failed["parent"], failed["change"]
    bad = 0
    for (s in digest) if (differ[s]) { printf "semantic_digest DIFFERS between runs on seed %s\n", s; bad = 1 }
    if (!bad) print "semantic_digest equal on both sides for every seed"
    exit bad
}' "$work/runs"
