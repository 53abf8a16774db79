#!/bin/sh
# make benchcmp — the repo benchmark (bench/run.sh) on a parent commit and
# on the working tree, in alternating pairs, then bench's own --compare
# table: per workload x metric the two medians, the delta, the bound, the
# run-to-run spreads and a verdict.
#
#   BASE=HEAD        commit to compare against (its tree is exported with
#                    git archive into .bench_build/cmp/base and built there)
#   PAIRS=10         pairs per workload; which side runs first alternates
#   SEED=3 RUN_SECONDS=16
#   WORKLOADS="serve-durable serve-predict serve-fleet paper-offline"
#
# Exits non-zero when a run fails its checks or --compare finds a bounded
# metric regressed.
set -eu
cd "$(dirname "$0")/.."
BASE=${BASE:-HEAD}
PAIRS=${PAIRS:-10}
SEED=${SEED:-3}
RUN_SECONDS=${RUN_SECONDS:-16}
WORKLOADS=${WORKLOADS:-"serve-durable serve-predict serve-fleet paper-offline"}

cmp=.bench_build/cmp
rm -rf "$cmp"
mkdir -p "$cmp/base"
git archive "$BASE" | tar -x -C "$cmp/base"
root=$(pwd)
a="$root/$cmp/base.json"
b="$root/$cmp/tree.json"

run() { # run DIR OUT WORKLOAD
    (cd "$1" && bash bench/run.sh --workload "$3" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 --out "$2" >/dev/null) ||
        { echo "benchcmp: $3 failed in $1" >&2; exit 1; }
}

for w in $WORKLOADS; do
    i=0
    while [ "$i" -lt "$PAIRS" ]; do
        if [ $((i % 2)) -eq 0 ]; then
            run "$cmp/base" "$a" "$w"; run . "$b" "$w"
        else
            run . "$b" "$w"; run "$cmp/base" "$a" "$w"
        fi
        i=$((i + 1))
        echo "benchcmp: $w pair $i/$PAIRS" >&2
    done
done
echo "A = $BASE, B = working tree; seed $SEED, $RUN_SECONDS s, $PAIRS pairs"
bash bench/run.sh --compare "$a" "$b"
