#!/usr/bin/env bash
# Static-analysis gate: lva_audit (the line-local determinism/safety
# rules plus the whole-project model: include layering, stat/knob/
# fault registries, lock-order graph, doc tables) + clang-tidy
# (curated .clang-tidy profile) over the compilation database.
# Non-zero exit on any unsuppressed finding.
#
# Usage: scripts/lint.sh [--no-tidy]
#   LVA_BUILD_DIR  build tree holding lva_audit and
#                  compile_commands.json (default: build)
#
# clang-tidy is optional at runtime: hosts without it (the minimal
# container, for one) still get the full lva_audit pass, and CI
# installs clang-tidy so the curated profile is enforced before merge.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${LVA_BUILD_DIR:-build}"
RUN_TIDY=1
[[ "${1:-}" == "--no-tidy" ]] && RUN_TIDY=0

# Configure (keeping whatever generator the tree already uses) and
# bring lva_audit up to date, so a stale binary never gates the tree.
cmake -B "$BUILD_DIR" >/dev/null
cmake --build "$BUILD_DIR" --target lva_audit >/dev/null

# The loader skips tests/lint_fixtures/ and tests/audit_fixtures/:
# they are deliberately hazardous input for the tool tests.
"$BUILD_DIR/tools/lva_audit" --root .

if [[ "$RUN_TIDY" -eq 1 ]] && command -v clang-tidy >/dev/null 2>&1; then
    if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
        echo "lint.sh: $BUILD_DIR/compile_commands.json missing;" \
             "configure with cmake first" >&2
        exit 1
    fi
    echo "lint.sh: running clang-tidy ($(clang-tidy --version |
        head -n1 | sed 's/^ *//'))"
    # Lint the translation units the build actually compiles, minus
    # the lint fixtures; headers ride along via HeaderFilterRegex.
    mapfile -t files < <(sed -n 's/.*"file": "\(.*\)".*/\1/p' \
            "$BUILD_DIR/compile_commands.json" |
        grep -v 'tests/lint_fixtures/' | LC_ALL=C sort -u)
    clang-tidy -p "$BUILD_DIR" --quiet "${files[@]}"
    echo "lint.sh: clang-tidy clean (${#files[@]} TUs)"
elif [[ "$RUN_TIDY" -eq 1 ]]; then
    echo "lint.sh: clang-tidy not installed; skipped (lva_audit rules" \
         "still enforced — CI runs the full profile)"
fi
