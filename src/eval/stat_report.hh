/**
 * @file
 * The lva-stats-v1 export: every run's registry snapshot leaves the
 * simulator as labelled points in one versioned, byte-deterministic
 * JSON document under results/stats/.
 */

#ifndef LVA_EVAL_STAT_REPORT_HH
#define LVA_EVAL_STAT_REPORT_HH

#include <string>
#include <vector>

#include "eval/sweep.hh"
#include "util/stat_registry.hh"

namespace lva {

/** One sweep point's snapshot, labelled for the JSON export. */
struct NamedSnapshot
{
    std::string label;    ///< sweep-point label (config description)
    std::string workload; ///< workload name; may be empty
    StatSnapshot stats;
};

/**
 * Render the versioned stats export: schema tag, driver name, one
 * object per sweep point, and — only when @p failures is non-empty —
 * a "failures" section listing every point a checked sweep could not
 * complete. Clean runs, resumed ones included, therefore export
 * exactly the failure-less shape. Byte-deterministic for a given
 * input.
 */
std::string renderStatsJson(const std::string &driver,
                            const std::vector<NamedSnapshot> &snaps,
                            const std::vector<PointFailure> &failures = {});

/**
 * Guard against silently truncating an export written by a different
 * schema version: if @p path exists and carries a schema tag other
 * than statsJsonSchema(), throw std::runtime_error. A missing file,
 * or one with the current tag, passes.
 */
void checkStatsFileSchema(const std::string &path);

/**
 * Write renderStatsJson(@p driver, @p snaps, @p failures) to
 * "<resultsDir()>/stats/<driver>.json" (LVA_RESULTS_DIR honored).
 * Errors out — it does not truncate — when the existing file has a
 * different schema version.
 *
 * @return the path written
 */
std::string writeStatsJson(const std::string &driver,
                           const std::vector<NamedSnapshot> &snaps,
                           const std::vector<PointFailure> &failures = {});

} // namespace lva

#endif // LVA_EVAL_STAT_REPORT_HH
