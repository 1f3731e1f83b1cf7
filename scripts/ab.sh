#!/usr/bin/env bash
# Alternated A/B runs of the benchmark: two checkouts, one workload.
#
# Builds each checkout's benchmark (the package `benchmark/run.sh` builds)
# into its own CARGO_TARGET_DIR, then runs the two alternately, the side
# that goes first alternating too — A B, B A, A B, … — so slow phases of a
# shared machine and any cost of running second fall on both sides alike.
# For every end-to-end metric BENCHMARK.json declares it prints each side's
# median, min and max over the pairs, the parent's interquartile range, the
# change/parent ratio of the medians, and in how many pairs the change came
# out ahead (by the metric's `better`). `failed` sums each side's failed
# ops. Writes nothing inside either checkout.
#
# Usage: scripts/ab.sh <parent-dir> <change-dir> <workload> [pairs] [seconds]
#   pairs defaults to 5, seconds to 15 (BENCHMARK.json's run_seconds).
#   AB_TARGET_DIR (default: $TMPDIR or /tmp, + /ab-target) holds the builds
#   in a/ and b/.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    echo "usage: scripts/ab.sh <parent-dir> <change-dir> <workload> [pairs] [seconds]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-5}
seconds=${5:-15}
targets=${AB_TARGET_DIR:-${TMPDIR:-/tmp}/ab-target}
results=$(mktemp -d)
trap 'rm -rf "$results"' EXIT

for side in a b; do
    dir=$parent
    [[ $side == b ]] && dir=$change
    echo "building $side: $dir" >&2
    CARGO_TARGET_DIR="$targets/$side" cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmark/Cargo.toml"
done

for ((i = 1; i <= pairs; i++)); do
    order="a b"
    ((i % 2 == 0)) && order="b a"
    for side in $order; do
        dir=$parent
        [[ $side == b ]] && dir=$change
        echo "pair $i/$pairs: $side" >&2
        # run.sh's own build step finds the build above up to date. A run
        # with a failed op exits 1 but still prints its result line; a run
        # that prints none stops the script, so pairs never shift.
        line=$( (cd "$dir" && CARGO_TARGET_DIR="$targets/$side" bash benchmark/run.sh \
            --workload "$workload" --seconds "$seconds" --trace 0) | tail -n 1 || true)
        if [[ $line != "{"* ]]; then
            echo "pair $i/$pairs: side $side ($dir) printed no result" >&2
            exit 1
        fi
        printf '%s\n' "$line" >>"$results/$side.jsonl"
    done
done

python3 - "$change/BENCHMARK.json" "$results/a.jsonl" "$results/b.jsonl" "$workload" <<'EOF'
import json, statistics, sys

spec, a_path, b_path, workload = sys.argv[1:]
metrics = json.load(open(spec))["end_to_end"]
# One line per run, in pair order: the run loop stops at a run without one.
runs = [[json.loads(l) for l in open(p)] for p in (a_path, b_path)]
assert len(runs[0]) == len(runs[1]) > 0

def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"

print(f"workload {workload}: {len(runs[0])} pairs, parent (A) vs change (B)")
print(f"failed ops: A {sum(r['failed'] for r in runs[0])}, B {sum(r['failed'] for r in runs[1])}")
print(f"{'metric':<17} {'A median':>10} {'A min':>10} {'A max':>10} {'A IQR':>10} "
      f"{'B median':>10} {'B min':>10} {'B max':>10} {'B/A':>7} {'B ahead':>8}")
for m in metrics:
    a = [r["metrics"][m["name"]]["value"] for r in runs[0]]
    b = [r["metrics"][m["name"]]["value"] for r in runs[1]]
    higher = m["better"] == "higher"
    ahead = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    q = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
    print(f"{m['name']:<17} {fmt(ma):>10} {fmt(min(a)):>10} {fmt(max(a)):>10} {fmt(q[2] - q[0]):>10} "
          f"{fmt(mb):>10} {fmt(min(b)):>10} {fmt(max(b)):>10} "
          f"{mb / ma if ma else float('nan'):>7.3f} {ahead:>5}/{len(a)}")
EOF
