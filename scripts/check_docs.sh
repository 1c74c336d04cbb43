#!/usr/bin/env bash
# Validate the documentation against the code, both ways:
#
#   1. docs/metrics.md     catalog markers  <->  lva_stats_catalog dump
#   2. docs/reproducing.md drivers markers  <->  executables declared in
#                                               bench/CMakeLists.txt
#   3. docs/performance.md hotpath markers  <->  sources fenced with
#                                               "lva-hot-path: begin"
#   4. docs/serving.md     serve-stats markers <-> the serve.* subtree
#                                               of the catalog dump
#   5. docs/topology.md    machine-schema markers <-> the parser's own
#                                               key list (the catalog
#                                               binary's
#                                               --machine-schema dump)
#
# Every documented entry must exist in the code and every code entry
# must be documented; either direction failing fails the script.
#
# The README knob table is not checked here: lva_audit's
# knob-undocumented / knob-stale-doc rules diff it against the "LVA_*"
# literals under src/ tools/ bench/ (ctest lva_audit_tree,
# scripts/lint.sh).
#
# Usage: scripts/check_docs.sh [path-to-lva_stats_catalog]
#   (default: build/tools/lva_stats_catalog)
set -euo pipefail
cd "$(dirname "$0")/.."

CATALOG_BIN="${1:-build/tools/lva_stats_catalog}"

if [[ ! -x "$CATALOG_BIN" ]]; then
    echo "check_docs: $CATALOG_BIN not built (cmake --build build)" >&2
    exit 1
fi

status=0
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Documented entries: the first backticked token of each table row
# between the given begin/end markers.
doc_entries() { # <doc> <marker>
    awk -v m="$2" \
        '$0 ~ "<!-- " m ":begin -->" {on=1}
         $0 ~ "<!-- " m ":end -->"   {on=0}
         on && /^\| `/ { split($0, f, "`"); print f[2] }' "$1" \
        | LC_ALL=C sort -u
}

check() { # <name> <doc> <code-list-file> <doc-list-file> <what>
    local name="$1" doc="$2" code="$3" docl="$4" what="$5"

    local undocumented stale
    undocumented="$(comm -23 "$code" "$docl")"
    if [[ -n "$undocumented" ]]; then
        echo "check_docs: $what in the code but missing from $doc:" >&2
        echo "$undocumented" | sed 's/^/  /' >&2
        status=1
    fi

    stale="$(comm -13 "$code" "$docl")"
    if [[ -n "$stale" ]]; then
        echo "check_docs: $doc documents $what the code does not have:" >&2
        echo "$stale" | sed 's/^/  /' >&2
        status=1
    fi

    if [[ -z "$undocumented" && -z "$stale" ]]; then
        echo "check_docs: $doc matches ($(wc -l < "$code") $what)"
    fi
}

# 1. Metric catalog: registry self-dump vs docs/metrics.md.
"$CATALOG_BIN" | cut -f1 | LC_ALL=C sort -u > "$workdir/stats.code"
doc_entries docs/metrics.md catalog > "$workdir/stats.doc"
check catalog docs/metrics.md "$workdir/stats.code" "$workdir/stats.doc" \
      "stat paths"

# 2. Bench drivers: every executable bench/CMakeLists.txt declares
#    (lva_bench, lva_figure, lva_microbench) vs the docs/reproducing.md
#    map. The figure drivers share one source file, so the CMake names,
#    not the bench/*.cc basenames, are the driver list.
sed -nE 's/^[[:space:]]*lva_(bench|figure|microbench)\(([A-Za-z0-9_]+)\).*/\2/p' \
    bench/CMakeLists.txt | LC_ALL=C sort -u > "$workdir/drivers.code"
if [[ ! -s "$workdir/drivers.code" ]]; then
    echo "check_docs: no executables found in bench/CMakeLists.txt" >&2
    status=1
fi
doc_entries docs/reproducing.md drivers > "$workdir/drivers.doc"
check drivers docs/reproducing.md \
      "$workdir/drivers.code" "$workdir/drivers.doc" "bench drivers"

# 3. Hot-path fences: every source with an "lva-hot-path: begin"
#    marker vs the fenced-file table in docs/performance.md, so the
#    lint-enforced no-allocation zones and their documentation cannot
#    drift apart in either direction.
# Whole-line comments only, mirroring the lint rule's parser: the
# marker text also appears in the rule's own string literals.
grep -rlE '^[[:space:]]*//.*lva-hot-path: begin' src tools bench \
    2>/dev/null | LC_ALL=C sort -u > "$workdir/hotpath.code"
doc_entries docs/performance.md hotpath > "$workdir/hotpath.doc"
check hotpath docs/performance.md \
      "$workdir/hotpath.code" "$workdir/hotpath.doc" "hot-path fences"

# 4. Serving stats: the serve.* / serve.cache.* subtree of the
#    registry dump vs the serve-stats table in docs/serving.md, so
#    the serving doc always describes exactly the counters the fleet
#    exports (the full catalog in docs/metrics.md is gate 1; this
#    pins the serving doc's own copy both ways).
"$CATALOG_BIN" | cut -f1 | grep '^serve\.' \
    | LC_ALL=C sort -u > "$workdir/serve.code"
doc_entries docs/serving.md serve-stats > "$workdir/serve.doc"
check serve-stats docs/serving.md \
      "$workdir/serve.code" "$workdir/serve.doc" "serving stat paths"

# 5. Machine schema: every lva-machine-v1 key the parser accepts
#    (machineSchemaKeys(), dumped by --machine-schema) vs the key
#    table in docs/topology.md — a config key without a documented
#    row, or a documented row for a key the parser dropped, fails.
"$CATALOG_BIN" --machine-schema | LC_ALL=C sort -u \
    > "$workdir/machine.code"
doc_entries docs/topology.md machine-schema > "$workdir/machine.doc"
check machine-schema docs/topology.md \
      "$workdir/machine.code" "$workdir/machine.doc" "machine keys"

exit "$status"
