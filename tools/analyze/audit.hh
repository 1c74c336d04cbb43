/**
 * @file
 * lva_audit rules: cross-file analyses over the project model.
 *
 * Six analysis families (DESIGN.md §17), each enforcing an invariant
 * that no single-file linter can see:
 *
 *   layering    include edges may only point sideways or toward
 *               lower layers (util -> sim core -> eval -> tools);
 *               back-edges and include cycles are findings
 *   stats       every StatRegistry path literal in src/ must match a
 *               docs/metrics.md catalog row, and every catalog row
 *               must be backed by a literal (the static half: the
 *               doc_registry_test ctest diffs the same table against
 *               the live registries)
 *   faults      every `site=kind` fault spec in tests/scripts/docs
 *               must name a faultPoint() that exists, and every
 *               defined site must be exercised somewhere
 *   knobs       every LVA_* literal must appear in the README knob
 *               table (and vice versa), and getenv("LVA_*") outside
 *               util/env_knob.cc must be explicitly annotated
 *   locks       the cross-TU mutex acquisition graph must be acyclic,
 *               and no condition_variable wait may happen while a
 *               second mutex is held
 *   doc tables  the lva_bench/lva_figure drivers bench/CMakeLists.txt
 *               declares and the sources with an lva-hot-path fence
 *               must match the docs/reproducing.md and
 *               docs/performance.md tables, both ways
 *
 * Findings reuse lint::Finding and the lint ergonomics: stable rule
 * ids and `// lva-audit: allow(<rule>)` suppressions.  runAudit()
 * also reports every file's line-local lint findings (DESIGN.md §12,
 * suppressed with `// lva-lint: allow(<rule>)`), so one pass gates
 * both rule sets.
 */

#ifndef LVA_TOOLS_ANALYZE_AUDIT_HH
#define LVA_TOOLS_ANALYZE_AUDIT_HH

#include <set>
#include <string>
#include <vector>

#include "analyze/project_model.hh"
#include "lint/lint_core.hh"

namespace lva::audit {

/** Rule ids (named constants so tests cannot typo them). */
inline constexpr char kLayerBackEdge[] = "layer-back-edge";
inline constexpr char kLayerCycle[] = "layer-cycle";
inline constexpr char kStatUndocumented[] = "stat-undocumented";
inline constexpr char kStatStaleDoc[] = "stat-stale-doc";
inline constexpr char kFaultUnknownSite[] = "fault-unknown-site";
inline constexpr char kFaultOrphanSite[] = "fault-orphan-site";
inline constexpr char kKnobUndocumented[] = "knob-undocumented";
inline constexpr char kKnobStaleDoc[] = "knob-stale-doc";
inline constexpr char kKnobUnvalidated[] = "knob-unvalidated";
inline constexpr char kLockCycle[] = "lock-cycle";
inline constexpr char kLockWaitHeld[] = "lock-wait-held";
inline constexpr char kDriverUndocumented[] = "driver-undocumented";
inline constexpr char kDriverStaleDoc[] = "driver-stale-doc";
inline constexpr char kHotPathUndocumented[] = "hotpath-undocumented";
inline constexpr char kHotPathStaleDoc[] = "hotpath-stale-doc";

/** The audit rule catalog (includes lint's bad-allow-fence). */
const std::vector<lint::RuleInfo> &auditRuleCatalog();

/** The first-cell `code` entry of one doc table row. */
struct DocRow
{
    std::string text;
    int line = 0; ///< 1-based line in the doc
};

/**
 * First-cell `code` entries of the table rows between the
 * `<!-- <marker>:begin -->` and `<!-- <marker>:end -->` comments of
 * @p content; empty when the markers are absent.  Every doc-table
 * rule reads its table through this, and so does doc_registry_test
 * for the tables only the live registries can check.
 */
std::vector<DocRow> markerTableRows(const std::string &content,
                                    const std::string &marker);

/** Both directions of a code-names-vs-doc-table diff. */
struct TableDiff
{
    std::vector<std::string> undocumented; ///< names with no row, sorted
    std::vector<DocRow> stale;             ///< rows naming no name
};

TableDiff diffTable(const std::set<std::string> &names,
                    const std::vector<DocRow> &rows);

/** thread7 / core12 / bank3 -> thread<N> etc. (the catalog's form). */
std::string normalizeIndices(const std::string &path);

/**
 * Run every audit rule over @p project and merge in each source's
 * lint findings.  Audit findings suppressed by an in-source
 * `lva-audit: allow()` are dropped.  Results are sorted by (file,
 * line, rule, message).
 */
std::vector<lint::Finding> runAudit(const Project &project);

} // namespace lva::audit

#endif // LVA_TOOLS_ANALYZE_AUDIT_HH
