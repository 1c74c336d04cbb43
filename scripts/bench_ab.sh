#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark: a base commit
# against a head commit, one perfbench workload, N pairs of runs.
#
# Usage: scripts/bench_ab.sh [options] WORKLOAD
#   --base REF       base commit (default HEAD^)
#   --head REF       head commit (default HEAD)
#   --pairs N        pairs of runs (default 10)
#   --first-seed S   seed of the first pair; pair k uses S+k (default 1)
#   --scratch DIR    where both trees are unpacked and built
#                    (default ${TMPDIR:-/tmp}/lva-bench-ab)
#
# Every run lasts BENCHMARK.json's run_seconds, the length the
# benchmark fixes for both commits.
#
# Both commits are exported with `git archive` into DIR/base and
# DIR/head (re-used while they hold the same commit, so their
# perfbench builds are kept), then built by one short warm-up run
# each. Pair k runs the base first when k is even and the head first
# when k is odd, so drift in the host's speed hits both sides. Every
# run's JSON line is appended to DIR/<workload>.jsonl.
#
# The report is one table per workload in the docs/performance.md
# format: per end-to-end metric of BENCHMARK.json the median of each
# side with the interquartile range in brackets, the pairs the head
# won, the change of the medians and the metric's allowed regression.
# Runs that were not `correct` or had failed operations are counted
# in the header line. The script reads perfbench/ and never writes
# into it.
set -euo pipefail

BASE=HEAD^
HEAD=HEAD
PAIRS=10
FIRST_SEED=1
SCRATCH="${TMPDIR:-/tmp}/lva-bench-ab"
WORKLOAD=

usage() {
    sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

while [[ $# -gt 0 ]]; do
    case "$1" in
        --base) BASE="$2"; shift 2 ;;
        --head) HEAD="$2"; shift 2 ;;
        --pairs) PAIRS="$2"; shift 2 ;;
        --first-seed) FIRST_SEED="$2"; shift 2 ;;
        --scratch) SCRATCH="$2"; shift 2 ;;
        -h|--help) usage ;;
        -*) echo "bench_ab.sh: unknown option $1" >&2; usage ;;
        *) [[ -z "$WORKLOAD" ]] || usage; WORKLOAD="$1"; shift ;;
    esac
done
[[ -n "$WORKLOAD" ]] || usage

REPO="$(cd "$(dirname "$0")/.." && pwd)"
base_sha="$(git -C "$REPO" rev-parse --verify "$BASE^{commit}")"
head_sha="$(git -C "$REPO" rev-parse --verify "$HEAD^{commit}")"
RUN_SECONDS="$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$REPO/BENCHMARK.json")"
mkdir -p "$SCRATCH"

# Unpack commit $2 into $SCRATCH/$1 unless it already holds it.
unpack() {
    local dir="$SCRATCH/$1" sha="$2"
    if [[ "$(cat "$dir/.ab_commit" 2>/dev/null)" != "$sha" ]]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$REPO" archive "$sha" | tar -x -C "$dir"
        echo "$sha" > "$dir/.ab_commit"
    fi
}

# One benchmark run of side $1 with seed $2 and $3 seconds; prints
# the JSON line with the side and seed added.
run_side() {
    local side="$1" seed="$2" secs="$3" line
    line="$(cd "$SCRATCH/$side" && python3 perfbench/run.py \
        --workload "$WORKLOAD" --seed "$seed" --seconds "$secs" \
        --trace 0 2>>"$SCRATCH/$side.log" | tail -n 1)"
    python3 -c 'import json,sys
r = json.loads(sys.argv[1])
r["side"], r["seed"] = sys.argv[2], int(sys.argv[3])
print(json.dumps(r))' "$line" "$side" "$seed"
}

unpack base "$base_sha"
unpack head "$head_sha"
echo "bench_ab: building base ${base_sha:0:12} and head ${head_sha:0:12}" \
     "(build logs: $SCRATCH/{base,head}.log)" >&2
run_side base 0 1 > /dev/null
run_side head 0 1 > /dev/null

OUT="$SCRATCH/$WORKLOAD.jsonl"
: > "$OUT"
for ((k = 0; k < PAIRS; ++k)); do
    seed=$((FIRST_SEED + k))
    if ((k % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do
        echo "bench_ab: pair $((k + 1))/$PAIRS seed $seed: $side" >&2
        run_side "$side" "$seed" "$RUN_SECONDS" >> "$OUT"
    done
done

python3 - "$OUT" "$REPO/BENCHMARK.json" "$WORKLOAD" "$RUN_SECONDS" \
    "${base_sha:0:12}" "${head_sha:0:12}" <<'EOF'
import json
import statistics
import sys

out, spec_path, workload, secs, base, head = sys.argv[1:]
spec = json.load(open(spec_path))
runs = [json.loads(line) for line in open(out)]
side = {s: {r["seed"]: r for r in runs if r["side"] == s}
        for s in ("base", "head")}
seeds = sorted(set(side["base"]) & set(side["head"]))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


bad = sum(1 for r in runs if not r["correct"] or r["failed"])
print(f"`{workload}`, {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
      f"{secs} s per run; base {base}, head {head}; "
      f"runs not correct or with failed ops: {bad}")
print()
print("| metric | parent | this | won | change | bound |")
print("|---|---|---|---|---|---|")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    b = [side["base"][s]["metrics"][name]["value"] for s in seeds]
    h = [side["head"][s]["metrics"][name]["value"] for s in seeds]
    scale, label = 1.0, f"`{name}`"
    if m["unit"] == "s" and statistics.median(b) < 0.01:
        scale, label = 1e6, f"`{name}` (µs)"
    won = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
    bq = [v * scale for v in quartiles(b)]
    hq = [v * scale for v in quartiles(h)]
    change = (hq[1] / bq[1] - 1.0) * 100.0 if bq[1] else float("nan")
    change_s = f"{change:+.1f}%".replace("-", "\u2212")
    cell = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"| {label} | {cell(bq)} | {cell(hq)} | {won}/{len(seeds)} | "
          f"{change_s} | {m['bound'] * 100:.0f}% |")
EOF
