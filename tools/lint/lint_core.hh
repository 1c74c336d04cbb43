/**
 * @file
 * lva-lint: determinism & safety static-analysis core.
 *
 * The whole evaluation pipeline promises byte-identical sweep results
 * for any LVA_JOBS (DESIGN.md §10-11).  That guarantee is easy to break
 * silently: one rand() in a workload, one wall-clock read folded into a
 * stat, one range-for over an unordered_map feeding a CSV, and the
 * "deterministic" exports start drifting between runs or hosts.  This
 * library implements a small, dependency-free lint pass over C++ source
 * text that flags exactly those hazard classes, so the invariant is
 * enforced by tooling instead of by convention.
 *
 * The analysis is deliberately lexical (comment/string-stripped token
 * scanning, not a full AST): it runs in milliseconds over the whole
 * tree, needs no compiler integration, and the hazard patterns it hunts
 * are syntactically shallow.  Findings can be suppressed per line with
 *
 *     // lva-lint: allow(<rule>[, <rule>...])
 *
 * placed on the offending line or on the line directly above it, or
 * for a whole region with
 *
 *     // lva-lint: begin-allow(no-rand)
 *     ...
 *     // lva-lint: end-allow
 *
 * (unbalanced fences are themselves findings); `allow(all)`
 * suppresses every rule.  clang-tidy (scripts/lint.sh) remains the
 * deep-semantics companion pass where available.
 *
 * Performance fences: regions bracketed by `// lva-hot-path: begin`
 * and `// lva-hot-path: end` comments (docs/performance.md) are
 * additionally checked for allocation-prone constructs — the per-load
 * paths must stay allocation-free.
 */

#ifndef LVA_TOOLS_LINT_LINT_CORE_HH
#define LVA_TOOLS_LINT_LINT_CORE_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace lva::lint {

/** One lint hit: where, which rule, and a human-readable reason. */
struct Finding
{
    std::string file;    ///< path as given to lintSource (repo-relative)
    int line = 0;        ///< 1-based source line
    std::string rule;    ///< rule id from ruleCatalog()
    std::string message; ///< what was matched and what to use instead
};

/** Catalog entry describing one rule. */
struct RuleInfo
{
    std::string id;      ///< stable id used in findings and allow()
    std::string scope;   ///< path scoping summary ("everywhere", ...)
    std::string summary; ///< one-line description for --rules output
};

/** Rule ids (kept as named constants so tests can't typo them). */
inline constexpr char kNoRand[] = "no-rand";
inline constexpr char kNoWallClock[] = "no-wall-clock";
inline constexpr char kNoUnorderedIteration[] = "no-unordered-iteration";
inline constexpr char kNoPointerKeyedOrdered[] = "no-pointer-keyed-ordered";
inline constexpr char kNoMutableGlobal[] = "no-mutable-global";
inline constexpr char kHotPathAlloc[] = "hot-path-alloc";
inline constexpr char kBadAllowFence[] = "bad-allow-fence";

/** The full rule catalog, in stable display order. */
const std::vector<RuleInfo> &ruleCatalog();

// ---------------------------------------------------------------------
// Lexing + suppression primitives, shared with tools/analyze (the
// whole-project lva_audit model reuses exactly this comment/string
// stripping and the same allow() grammar under its own "lva-audit"
// tag).
// ---------------------------------------------------------------------

/**
 * Blank comments (and, unless @p keepStrings, string/char literals)
 * with spaces, preserving length and newlines so byte offsets keep
 * mapping to the same lines.  Handles //, block comments, escape
 * sequences and R"delim(...)delim" raw strings.  keepStrings=true is
 * the registry-extraction mode: literals survive, comments do not.
 */
std::string stripComments(const std::string &source, bool keepStrings);

/** 1-based line number for every byte offset of @p source. */
std::vector<int> buildLineTable(const std::string &source);

/**
 * 1-based line membership (index = line, sized @p lastLine + 2) of
 * `// lva-hot-path: begin` ... `end` fences.  Only whole-line comments
 * count as markers, so the marker text inside a string literal or
 * after code does not open a fence.  An unmatched begin extends to
 * @p lastLine; an unmatched end is ignored.  Shared by the
 * hot-path-alloc rule and lva_audit's fenced-file inventory.
 */
std::vector<bool> hotPathFenceLines(const std::string &source, int lastLine);

/**
 * Per-file suppression state parsed from the raw source under a
 * given comment tag ("lva-lint" or "lva-audit"):
 *
 *   // <tag>: allow(<rule>[, <rule>...])      same or previous line
 *   // <tag>: begin-allow(<rule>[, ...])      block fence open
 *   // <tag>: end-allow                       block fence close
 *
 * `allow(all)` (in either form) suppresses every rule.  Fences nest;
 * an end-allow without a matching begin, or a begin-allow still open
 * at end of file, is itself a finding (kBadAllowFence) — fence
 * hygiene errors can never be suppressed.
 */
struct Suppressions
{
    /** allow() sets, keyed by line (applies to that line + the next). */
    std::map<int, std::set<std::string>> inlineAllow;
    /** begin/end-allow sets, expanded per fenced line. */
    std::map<int, std::set<std::string>> fenceAllow;
    /** Unbalanced-fence findings (rule kBadAllowFence). */
    std::vector<Finding> fenceFindings;

    /** Is @p rule suppressed on @p line? */
    bool allows(int line, const std::string &rule) const;
};

Suppressions parseSuppressions(const std::string &relPath,
                               const std::string &source,
                               const std::string &tag);

/** Path scoping knobs; defaults mirror the repository layout. */
struct Options
{
    /**
     * Repo-relative path prefixes where iterating an unordered
     * container is forbidden because the iteration order can reach an
     * exported artifact (CSV, JSON stats, catalog dumps).
     */
    std::vector<std::string> exportPaths = {
        "src/eval/",
        "src/util/stat",  // stat_registry / stat_dump / stats_json
        "tools/",
    };

    /**
     * Repo-relative path prefixes where mutable static/global state is
     * tolerated (utility plumbing that is documented thread-safe).
     */
    std::vector<std::string> mutableStateAllowedPaths = {
        "src/util/",
    };
};

/**
 * Lint one translation unit.
 *
 * @param relPath repo-relative path ('/' separated) — used both for
 *                reporting and for the path-scoped rules
 * @param source  full file contents
 * @param opts    path scoping (default matches this repository)
 * @return        findings in source order; empty means the file is clean
 */
std::vector<Finding> lintSource(const std::string &relPath,
                                const std::string &source,
                                const Options &opts = {});

} // namespace lva::lint

#endif // LVA_TOOLS_LINT_LINT_CORE_HH
