#!/usr/bin/env bash
# Smoke test for the evaluation daemon and fleet (docs/serving.md):
# prove that a sweep submitted through lva_served/lva_client — or
# through the lva_fleet frontend at any fleet size — returns the exact
# bytes the bench driver writes to results/stats/<driver>.json.
#
# For LVA_JOBS in {1, 4}:
#   1. run build/bench/fig5_ghb_error directly (the reference export),
#   2. start lva_served on an ephemeral port with the same settings,
#   3. submit the same 28-point sweep from TWO concurrent clients,
#   4. cmp(1) both served exports against the driver's file,
#   5. SIGTERM the daemon and require a drained exit 0.
#
# Then the topology legs (docs/topology.md): ONE daemon serves the
# same sweep on both examples/machine-*.json topologies, each
# byte-compared against its direct `driver --machine` run — two
# machines, one binary, no rebuild — and the two exports must differ
# (a silently-ignored config would make them identical).
#
# Then for fleet sizes {1, 3} (the scale-out byte-identity recipe,
# docs/serving.md):
#   6. start lva_fleet with a 2-entry golden cache per worker (the
#      28-point grid spans 7 workloads, so evictions are guaranteed),
#   7. on the 3-worker leg, arm LVA_FLEET_FAULT so the worker that
#      receives the sweep aborts mid-request — the frontend must
#      respawn it and the retried request must still match,
#   8. cmp(1) both served exports against the same reference,
#   9. on the 1-worker leg, require serve.cache.evictions > 0 via the
#      stats op, then SIGTERM and require a drained exit 0.
#
# Then the sharded-sweep leg: `lva_client sweep --shards 3` against a
# 3-worker lva_fleet, with every first-incarnation worker aborting,
# then the frontend killed at coord.scatter.1 and (with --resume) at
# coord.gather.2, then a clean --resume that must match the
# reference and report resumed points.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SERVED="$BUILD/tools/lva_served"
CLIENT="$BUILD/tools/lva_client"
FLEET="$BUILD/tools/lva_fleet"
DRIVER="$BUILD/bench/fig5_ghb_error"

for bin in "$SERVED" "$CLIENT" "$FLEET" "$DRIVER"; do
    if [[ ! -x "$bin" ]]; then
        echo "serve_smoke: $bin not built (cmake --build $BUILD)" >&2
        exit 1
    fi
done

# Seconds-scale evaluation; identical settings for driver and daemon.
export LVA_SEEDS=1
export LVA_SCALE=0.05
unset LVA_CHECKPOINT LVA_RESUME LVA_FAULT LVA_POINT_TIMEOUT_MS \
      LVA_RETRIES LVA_TRACE

work="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

# The exact fig5_ghb_error sweep grid (its spec in src/eval/figure.cc):
# every workload x GHB size, baseline config otherwise.
points="$work/points.json"
{
    echo "["
    sep=""
    for w in blackscholes bodytrack canneal ferret fluidanimate \
             swaptions x264; do
        for g in 0 1 2 4; do
            printf '%s  {"label": "ghb-%s", "workload": "%s", "config": {"ghb": %s}}' \
                   "$sep" "$g" "$w" "$g"
            sep=$',\n'
        done
    done
    echo
    echo "]"
} > "$points"

for jobs in 1 4; do
    echo "serve_smoke: LVA_JOBS=$jobs — direct driver run"
    LVA_JOBS="$jobs" LVA_RESULTS_DIR="$work/direct$jobs" \
        "$DRIVER" > /dev/null
    reference="$work/direct$jobs/stats/fig5_ghb_error.json"

    log="$work/served$jobs.log"
    LVA_JOBS="$jobs" "$SERVED" --port 0 --workers 2 > "$log" 2>&1 &
    daemon_pid=$!

    port=""
    for _ in $(seq 1 100); do
        port="$(grep -oE '127\.0\.0\.1:[0-9]+' "$log" 2>/dev/null \
                | head -1 | cut -d: -f2 || true)"
        [[ -n "$port" ]] && break
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "serve_smoke: daemon died at startup:" >&2
            sed 's/^/  /' "$log" >&2
            exit 1
        fi
        sleep 0.05
    done
    if [[ -z "$port" ]]; then
        echo "serve_smoke: daemon never announced its port" >&2
        exit 1
    fi

    echo "serve_smoke: LVA_JOBS=$jobs — two concurrent served sweeps" \
         "(port $port)"
    "$CLIENT" --port "$port" sweep --driver fig5_ghb_error \
        --points "$points" --out "$work/served$jobs.a.json" \
        2> /dev/null &
    client_a=$!
    "$CLIENT" --port "$port" sweep --driver fig5_ghb_error \
        --points "$points" --out "$work/served$jobs.b.json" \
        2> /dev/null &
    client_b=$!
    wait "$client_a"
    wait "$client_b"

    cmp "$reference" "$work/served$jobs.a.json"
    cmp "$reference" "$work/served$jobs.b.json"
    echo "serve_smoke: LVA_JOBS=$jobs — served exports byte-identical"

    kill -TERM "$daemon_pid"
    rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    if [[ "$rc" -ne 0 ]]; then
        echo "serve_smoke: daemon exited $rc on SIGTERM (want 0):" >&2
        sed 's/^/  /' "$log" >&2
        exit 1
    fi
    echo "serve_smoke: LVA_JOBS=$jobs — SIGTERM drained, exit 0"
done

# ---- topology legs: the same binaries replay two lva-machine-v1
# config files with no rebuild (docs/topology.md); ONE daemon serves
# both machines, each byte-identical to its direct driver run -------
log="$work/machines.log"
LVA_JOBS=2 "$SERVED" --port 0 --workers 2 > "$log" 2>&1 &
daemon_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(grep -oE '127\.0\.0\.1:[0-9]+' "$log" 2>/dev/null \
            | head -1 | cut -d: -f2 || true)"
    [[ -n "$port" ]] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve_smoke: daemon died at startup:" >&2
        sed 's/^/  /' "$log" >&2
        exit 1
    fi
    sleep 0.05
done
if [[ -z "$port" ]]; then
    echo "serve_smoke: daemon never announced its port" >&2
    exit 1
fi

for machine in examples/machine-2core.json examples/machine-hetero.json
do
    tag="$(basename "$machine" .json)"
    echo "serve_smoke: machine=$tag — direct vs served (port $port)"
    LVA_JOBS=2 LVA_RESULTS_DIR="$work/m-$tag" \
        "$DRIVER" --machine "$machine" > /dev/null
    "$CLIENT" --port "$port" sweep --driver fig5_ghb_error \
        --points "$points" --machine "$machine" \
        --out "$work/m-$tag.served.json" 2> /dev/null
    cmp "$work/m-$tag/stats/fig5_ghb_error.json" \
        "$work/m-$tag.served.json"
    echo "serve_smoke: machine=$tag — served export byte-identical"
done

# The two topologies must actually be different machines: identical
# exports would mean the config file silently did not take effect.
if cmp -s "$work/m-machine-2core/stats/fig5_ghb_error.json" \
          "$work/m-machine-hetero/stats/fig5_ghb_error.json"; then
    echo "serve_smoke: both machine configs exported identical" \
         "bytes — --machine did not take effect" >&2
    exit 1
fi
echo "serve_smoke: machine legs — two topologies, one daemon, no rebuild"

kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
if [[ "$rc" -ne 0 ]]; then
    echo "serve_smoke: daemon exited $rc on SIGTERM (want 0):" >&2
    sed 's/^/  /' "$log" >&2
    exit 1
fi

# ---- fleet legs: byte-identity across fleet sizes, a squeezed golden
# cache, and an injected worker kill --------------------------------
reference="$work/direct1/stats/fig5_ghb_error.json"

for fleet in 1 3; do
    log="$work/fleet$fleet.log"
    fault=""
    if [[ "$fleet" -eq 3 ]]; then
        # Every worker's FIRST incarnation dies on its first request;
        # respawns come up clean (the frontend never re-arms them).
        fault='*:serve.request.0=abort'
    fi
    echo "serve_smoke: fleet=$fleet — starting frontend" \
         "(cache 2, fault '${fault:-none}')"
    LVA_JOBS=2 LVA_FLEET_FAULT="$fault" \
        "$FLEET" --port 0 --fleet "$fleet" --cache 2 > "$log" 2>&1 &
    daemon_pid=$!

    port=""
    for _ in $(seq 1 200); do
        port="$(grep -oE 'lva_fleet: listening on 127\.0\.0\.1:[0-9]+' \
                "$log" 2>/dev/null | grep -oE '[0-9]+$' || true)"
        [[ -n "$port" ]] && break
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "serve_smoke: fleet died at startup:" >&2
            sed 's/^/  /' "$log" >&2
            exit 1
        fi
        sleep 0.05
    done
    if [[ -z "$port" ]]; then
        echo "serve_smoke: fleet never announced its port" >&2
        exit 1
    fi

    echo "serve_smoke: fleet=$fleet — two concurrent served sweeps" \
         "(port $port)"
    "$CLIENT" --port "$port" sweep --driver fig5_ghb_error \
        --points "$points" --out "$work/fleet$fleet.a.json" \
        2> /dev/null &
    client_a=$!
    "$CLIENT" --port "$port" sweep --driver fig5_ghb_error \
        --points "$points" --out "$work/fleet$fleet.b.json" \
        2> /dev/null &
    client_b=$!
    wait "$client_a"
    wait "$client_b"

    cmp "$reference" "$work/fleet$fleet.a.json"
    cmp "$reference" "$work/fleet$fleet.b.json"
    echo "serve_smoke: fleet=$fleet — served exports byte-identical"

    if [[ "$fleet" -eq 3 ]]; then
        if ! grep -q 'respawning' "$log"; then
            echo "serve_smoke: expected a worker kill + respawn:" >&2
            sed 's/^/  /' "$log" >&2
            exit 1
        fi
        echo "serve_smoke: fleet=3 — killed worker was respawned"
    else
        # Single worker: the stats op lands on the worker that served
        # the sweeps, whose 2-entry cache must have evicted goldens
        # (7 workloads crossed it).
        "$CLIENT" --port "$port" stats > "$work/fleet1.stats.json"
        evictions="$(grep -o '"serve.cache.evictions": *{[^}]*}' \
            "$work/fleet1.stats.json" \
            | grep -o '"value": *[0-9.]*' | grep -oE '[0-9.]+' || true)"
        if [[ -z "$evictions" || "${evictions%%.*}" -le 0 ]]; then
            echo "serve_smoke: expected evictions > 0, got" \
                 "'${evictions:-missing}'" >&2
            exit 1
        fi
        echo "serve_smoke: fleet=1 — $evictions evictions under the" \
             "2-entry cache"
    fi

    kill -TERM "$daemon_pid"
    rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    if [[ "$rc" -ne 0 ]]; then
        echo "serve_smoke: fleet exited $rc on SIGTERM (want 0):" >&2
        sed 's/^/  /' "$log" >&2
        exit 1
    fi
    if ! grep -q 'lva_fleet: drained, exiting' "$log"; then
        echo "serve_smoke: fleet did not log its drain:" >&2
        sed 's/^/  /' "$log" >&2
        exit 1
    fi
    echo "serve_smoke: fleet=$fleet — SIGTERM drained, exit 0"
done

# ---- sharded-sweep leg (docs/serving.md, "Sharded sweeps"): the
# fleet itself shards one sweep 3 ways, with a worker killed
# mid-shard, the frontend killed at scatter AND at gather, and a
# --resume that must still produce identical bytes ----------------

# start_fleet LOG [VAR=value ...]: a 3-worker frontend with the given
# extra environment; sets daemon_pid and port.
start_fleet() {
    local log="$1"
    shift
    env "$@" "$FLEET" --port 0 --fleet 3 > "$log" 2>&1 &
    daemon_pid=$!
    port=""
    for _ in $(seq 1 200); do
        port="$(grep -oE 'lva_fleet: listening on 127\.0\.0\.1:[0-9]+' \
                "$log" 2>/dev/null | grep -oE '[0-9]+$' || true)"
        [[ -n "$port" ]] && return 0
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "serve_smoke: fleet died at startup:" >&2
            sed 's/^/  /' "$log" >&2
            exit 1
        fi
        sleep 0.05
    done
    echo "serve_smoke: fleet never announced its port" >&2
    exit 1
}

# sharded_sweep OUT LOG [--resume]: the 28-point sweep, 3 shards.
sharded_sweep() {
    "$CLIENT" --port "$port" sweep --driver fig5_ghb_error \
        --points "$points" --out "$1" --shards 3 "${@:3}" 2> "$2"
}

# expect_exit WANT GOT WHAT LOG: fail loudly on a wrong exit code.
expect_exit() {
    if [[ "$2" -ne "$1" ]]; then
        echo "serve_smoke: $3 exited $2 (want $1):" >&2
        sed 's/^/  /' "$4" >&2
        exit 1
    fi
}

# stop_fleet LOG: SIGTERM the frontend and require a drained exit 0.
stop_fleet() {
    kill -TERM "$daemon_pid"
    rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    expect_exit 0 "$rc" "fleet on SIGTERM" "$1"
}

# kill_fleet_workers LOG: a killed frontend cannot tear its workers
# down; reap the strays it announced before dying.
kill_fleet_workers() {
    local pid
    while read -r pid; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
    done < <(grep -oE '\) pid [0-9]+' "$1" | grep -oE '[0-9]+')
}

# aborted_fleet LOG: reap a frontend killed by an injected abort.
aborted_fleet() {
    rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    kill_fleet_workers "$1"
    expect_exit 53 "$rc" "aborted fleet" "$1"
}

common=(LVA_JOBS=2 "LVA_RESULTS_DIR=$work/coord")

echo "serve_smoke: sharded — worker kill mid-shard (fleet=3, shards=3)"
start_fleet "$work/coord.kill.log" "${common[@]}" \
    'LVA_FLEET_FAULT=*:serve.request.0=abort'
rc=0
sharded_sweep "$work/coord.kill.json" "$work/coord.kill.client" || rc=$?
expect_exit 0 "$rc" "sharded sweep" "$work/coord.kill.client"
cmp "$reference" "$work/coord.kill.json"
if ! grep -q 'respawning' "$work/coord.kill.log"; then
    echo "serve_smoke: expected worker deaths in the fleet log:" >&2
    sed 's/^/  /' "$work/coord.kill.log" >&2
    exit 1
fi
stop_fleet "$work/coord.kill.log"
echo "serve_smoke: sharded — export byte-identical across worker kills"

# The 28-point grid populates all 3 shards, so both kill sites fire.
# Shard 2 is sent 3 s late on the gather-kill run, so shards 0 and 1
# are journaled before the kill and the last run must resume them.
echo "serve_smoke: sharded — kill at coord.scatter.1, then coord.gather.2"
rm -rf "$work/coord/checkpoints"
start_fleet "$work/coord.dead.log" "${common[@]}" \
    'LVA_FAULT=coord.scatter.1=abort'
rc=0
sharded_sweep "$work/coord.resume.json" "$work/coord.dead.client" \
    || rc=$?
expect_exit 1 "$rc" "client of the scatter-killed fleet" \
    "$work/coord.dead.client"
aborted_fleet "$work/coord.dead.log"

start_fleet "$work/coord.dead2.log" "${common[@]}" \
    'LVA_FAULT=coord.scatter.2=delay:3000,coord.gather.2=abort'
rc=0
sharded_sweep "$work/coord.resume.json" "$work/coord.dead2.client" \
    --resume || rc=$?
expect_exit 1 "$rc" "client of the gather-killed fleet" \
    "$work/coord.dead2.client"
aborted_fleet "$work/coord.dead2.log"
if [[ -e "$work/coord.resume.json" ]]; then
    echo "serve_smoke: a killed sharded sweep wrote an export" >&2
    exit 1
fi

echo "serve_smoke: sharded — resuming from the checkpoint manifest"
start_fleet "$work/coord.resume.log" "${common[@]}"
rc=0
sharded_sweep "$work/coord.resume.json" "$work/coord.resume.client" \
    --resume || rc=$?
expect_exit 0 "$rc" "resumed sharded sweep" "$work/coord.resume.client"
cmp "$reference" "$work/coord.resume.json"
resumed="$(grep -oE '[0-9]+ resumed' "$work/coord.resume.client" \
           | grep -oE '[0-9]+' || true)"
if [[ -z "$resumed" || "$resumed" -le 0 ]]; then
    echo "serve_smoke: expected resumed points > 0, got" \
         "'${resumed:-missing}':" >&2
    sed 's/^/  /' "$work/coord.resume.client" >&2
    exit 1
fi
stop_fleet "$work/coord.resume.log"
echo "serve_smoke: sharded — resumed export byte-identical" \
     "($resumed points resumed)"

echo "serve_smoke: OK"
