/**
 * @file
 * Full-system sweep driver (the paper's phase-2 methodology): records
 * a trace of each workload's precise execution and replays it through
 * the Table II timing model, precise versus LVA at several
 * approximation degrees.
 */

#ifndef LVA_EVAL_FULLSYSTEM_EVAL_HH
#define LVA_EVAL_FULLSYSTEM_EVAL_HH

#include <string>
#include <vector>

#include "eval/stat_report.hh"
#include "sim/full_system.hh"

namespace lva {

/**
 * Results of one workload's full-system sweep: the precise replay
 * and one LVA replay per degree.
 */
struct FsSweep
{
    std::string workload;
    FullSystemResult baseline;           ///< precise replay
    std::vector<u32> degrees;
    std::vector<FullSystemResult> lva;   ///< one per degree
};

struct MachineConfig;

/**
 * Record @p workload's precise execution (given seed/scale; scale
 * 0 = scaleFromEnv()) as one trace per thread. @p machine sets the
 * thread count; null = the workload default, as in the Table II
 * machine.
 */
std::vector<ThreadTrace>
recordPreciseTraces(const std::string &workload, u64 seed, double scale,
                    const MachineConfig *machine);

/**
 * Replay @p traces once per configuration: results[i] is the run
 * under configs[i]. Called from a sweep-pool task, the replays fan
 * out across that pool (ThreadPool::forEachIndex); elsewhere they
 * run serially in order. Results are stored by index, so the output
 * is identical either way.
 */
std::vector<FullSystemResult>
replayConfigs(const std::vector<ThreadTrace> &traces,
              const std::vector<FullSystemConfig> &configs);

/**
 * Record @p workload's trace (precise run, given seed/scale) and
 * replay it under the baseline and under LVA at each degree.
 * @p machine selects the CMP topology (thread count, cache/NoC
 * geometry, per-core approximators); null = the built-in Table II
 * machine, identical to the historical FullSystemConfig defaults.
 */
FsSweep runFullSystemSweep(const std::string &workload,
                           const std::vector<u32> &degrees,
                           u64 seed = 1, double scale = 0.0,
                           const MachineConfig *machine = nullptr);

/**
 * Flatten full-system sweeps into labelled snapshots for the JSON
 * export: "<workload>/baseline" then "<workload>/lva-d<degree>" per
 * sweep, in sweep order.
 */
std::vector<NamedSnapshot>
fsSweepSnapshots(const std::vector<FsSweep> &sweeps);

} // namespace lva

#endif // LVA_EVAL_FULLSYSTEM_EVAL_HH
