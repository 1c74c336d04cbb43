#!/usr/bin/env bash
# Build, test and regenerate every paper table/figure + ablation.
# Usage: scripts/run_all.sh [quick]
#   quick: 1 seed, 30% working sets (smoke run) + the static-analysis
#          gate (scripts/lint.sh) + the sanitizer matrix: full ctest
#          suite under ASan+UBSan and a ThreadSanitizer build of the
#          concurrency determinism check + the evaluation-daemon smoke
#          (scripts/serve_smoke.sh). The documentation gates run in
#          every ctest (lva_audit_tree, doc_registry_test).
#
# Parallelism: every bench driver fans its sweep grid out over
# LVA_JOBS worker threads (default: hardware concurrency). LVA_JOBS=1
# reproduces the historical serial path; results are byte-identical
# either way. The cmake builds compile with as many jobs.
#
# Per-driver wall-clock times are aggregated into
# results/bench_times.json so successive PRs have a perf trajectory
# to regress against.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [[ "${1:-}" == "quick" ]]; then
    MODE=quick
    export LVA_SEEDS=1
    export LVA_SCALE=0.3
fi

JOBS="${LVA_JOBS:-$(nproc)}"

# No -G: an existing tree keeps its generator, a fresh one gets
# cmake's default (or $CMAKE_GENERATOR).
cmake -B build
cmake --build build --parallel "$JOBS"
ctest --test-dir build --output-on-failure

if [[ "$MODE" == "quick" ]]; then
    # Static-analysis gate: lva_audit (the line-local determinism
    # rules plus the whole-project model: layering, stat/knob/fault
    # registries, lock order) and clang-tidy where installed.
    # Fails the run on any unsuppressed finding.
    scripts/lint.sh

    # Sanitizer matrix (DESIGN.md §12).  ASan and UBSan compose in one
    # tree and the entire ctest suite runs under both, so heap misuse
    # or UB anywhere in the simulator fails the smoke run.
    cmake -B build-asan -DLVA_ASAN=ON -DLVA_UBSAN=ON
    cmake --build build-asan --parallel "$JOBS"
    ctest --test-dir build-asan --output-on-failure

    # ThreadSanitizer configuration: the gtest-free determinism check
    # is fully instrumented, so races in the thread pool or the
    # shared golden-run cache fail the run here.
    cmake -B build-tsan -DLVA_TSAN=ON
    cmake --build build-tsan --target tsan_sweep_check --parallel "$JOBS"
    ./build-tsan/tests/tsan_sweep_check

    # Evaluation daemon: served sweeps must be byte-identical to the
    # direct driver export, with concurrent clients, and SIGTERM must
    # drain to exit 0 (docs/serving.md).
    scripts/serve_smoke.sh build
fi

declare -A BENCH_SECONDS
BENCH_ORDER=()
total_ms=0

# Fault tolerance (DESIGN.md §13): every sweep driver records its
# completed points into results/checkpoints/<driver>.jsonl, so a
# killed run can restart with LVA_RESUME=1 (or --resume) and skip the
# work it already finished. The knob travels via the environment, not
# argv, because not every bench binary takes the sweep flags.
export LVA_CHECKPOINT=1

for b in build/bench/*; do
    [[ -x "$b" && -f "$b" ]] || continue
    name="$(basename "$b")"
    echo "### $name"
    start_ms=$(date +%s%3N)
    "$b"
    end_ms=$(date +%s%3N)
    elapsed_ms=$((end_ms - start_ms))
    total_ms=$((total_ms + elapsed_ms))
    BENCH_SECONDS[$name]=$(awk -v ms="$elapsed_ms" \
        'BEGIN { printf "%.3f", ms / 1000.0 }')
    BENCH_ORDER+=("$name")
done

# Hot-path perf trajectory (docs/performance.md): the hotpath_loads
# driver just ran in the loop above and wrote its loads/sec +
# value-digest report; promote it to the repo root so the trajectory
# is versioned PR over PR.
if [[ -f results/hotpath_loads.json ]]; then
    cp results/hotpath_loads.json BENCH_hotpath.json
    echo "wrote BENCH_hotpath.json"
fi

mkdir -p results
{
    echo "{"
    echo "  \"mode\": \"$MODE\","
    echo "  \"jobs\": $JOBS,"
    echo "  \"seeds\": \"${LVA_SEEDS:-default}\","
    echo "  \"scale\": \"${LVA_SCALE:-default}\","
    echo "  \"total_seconds\": $(awk -v ms="$total_ms" \
        'BEGIN { printf "%.3f", ms / 1000.0 }'),"
    echo "  \"benches\": {"
    n=${#BENCH_ORDER[@]}
    i=0
    for name in "${BENCH_ORDER[@]}"; do
        i=$((i + 1))
        sep=","
        [[ $i -eq $n ]] && sep=""
        echo "    \"$name\": ${BENCH_SECONDS[$name]}$sep"
    done
    echo "  }"
    echo "}"
} > results/bench_times.json

echo "wrote results/bench_times.json (total $(awk -v ms="$total_ms" \
    'BEGIN { printf "%.1f", ms / 1000.0 }')s across ${#BENCH_ORDER[@]} \
drivers, jobs=$JOBS)"
