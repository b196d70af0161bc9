#!/usr/bin/env bash
# Paired benchmark of a parent revision against the working tree, by the
# rule of choosing-metrics §8: N alternating pairs of the unmodified
# BENCHMARK.json command per workload, then, per end-to-end metric, each
# side's median [q1, q3], the change/parent ratio of the medians, the pairs
# the change won (ties count for neither side) and whether the median gap
# exceeds the parent's quartile distance.
#
#   usage: scripts/bench_pairs.sh <parent-rev> [workload...]
#
#   PAIRS=10          pairs per workload
#   BENCH_ARGS=""     appended to the command, e.g. "--seed 11" for a seed
#                     not used during development, or "--seconds 5"
#   BENCH_PAIRS_DIR   where the parent tree, both target dirs and every raw
#                     result go (default: ${TMPDIR:-/tmp}/bench_pairs)
#
# The parent is exported with `git archive` (no worktree is registered in
# .git) and each side builds into its own CARGO_TARGET_DIR. Workloads
# default to every one BENCHMARK.json lists. Raw results stay in
# $BENCH_PAIRS_DIR/results/<workload>/<side>-<pair>.json.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
shift
pairs=${PAIRS:-10}
dir=${BENCH_PAIRS_DIR:-${TMPDIR:-/tmp}/bench_pairs}
parent="$dir/parent-${rev:0:12}"
spec="$root/BENCHMARK.json"

mapfile -t command < <(python3 -c 'import json, sys
for word in json.load(open(sys.argv[1]))["command"]:
    print(word)' "$spec")
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$spec")
fi
read -r -a extra <<<"${BENCH_ARGS:-}"

if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$rev" | tar -x -C "$parent"
fi
declare -A tree=([parent]="$parent" [change]="$root")
declare -A target=([parent]="$dir/target-parent" [change]="$dir/target-change")
for side in parent change; do
    echo "building $side (${tree[$side]})" >&2
    (cd "${tree[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

for w in "${workloads[@]}"; do
    out="$dir/results/$w"
    rm -rf "$out"
    mkdir -p "$out"
    for ((i = 1; i <= pairs; i++)); do
        # Alternate which side runs first.
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            (cd "${tree[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
                "${command[@]}" --workload "$w" "${extra[@]}" 2>/dev/null) |
                tail -n 1 >"$out/$side-$i.json"
            echo "$w pair $i/$pairs: $side done" >&2
        done
    done
done

python3 - "$spec" "$dir/results" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec, results, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(spec))["end_to_end"]

def load(w, side, i):
    with open(f"{results}/{w}/{side}-{i}.json") as f:
        return json.loads(f.read())

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q1, q2, q3

for w in workloads:
    runs = {s: [load(w, s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
    bad = [(s, i + 1) for s in runs for i, r in enumerate(runs[s])
           if not r.get("correct") or r.get("failed")]
    print(f"== {w}: {pairs} pairs" + (f"; NOT CORRECT: {bad}" if bad else "; every run correct"))
    print(f"  {'metric':<24} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'change/parent':>13} {'won':>6}  gap > parent IQR")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        won = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        fmt = lambda lo, med, hi: f"{med:.4g} [{lo:.4g}, {hi:.4g}]"
        print(f"  {name:<24} {fmt(p1, pm, p3):>32} {fmt(c1, cm, c3):>32}"
              f" {cm / pm if pm else float('nan'):>13.4f} {won:>3}/{pairs}"
              f"  {'yes' if abs(cm - pm) > p3 - p1 else 'no'}")
EOF
