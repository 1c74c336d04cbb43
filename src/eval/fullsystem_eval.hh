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
 * Results of one workload's full-system sweep.
 *
 * The figure helpers below read the registry snapshots rather than
 * the convenience fields of FullSystemResult, so every published
 * number flows from the same "system.*"/"energy.*" paths that the
 * JSON export serializes (see docs/metrics.md).
 */
struct FsSweep
{
    std::string workload;
    FullSystemResult baseline;           ///< precise replay
    std::vector<u32> degrees;
    std::vector<FullSystemResult> lva;   ///< one per degree

    /** Speedup of the degree-i LVA system over precise. */
    double
    speedup(std::size_t i) const
    {
        return baseline.stats.valueOf("system.cycles") /
                   lva[i].stats.valueOf("system.cycles") -
               1.0;
    }

    /** Memory-hierarchy dynamic-energy savings of the degree-i run. */
    double
    energySavings(std::size_t i) const
    {
        return 1.0 - lva[i].stats.valueOf("energy.total") /
                         baseline.stats.valueOf("energy.total");
    }

    /** Normalized L1-miss energy-delay product (paper Figure 11). */
    double
    normMissEdp(std::size_t i) const
    {
        return snapMissEdp(lva[i].stats) / snapMissEdp(baseline.stats);
    }

    /** Reduction in average L1 miss latency. */
    double
    missLatencyReduction(std::size_t i) const
    {
        return 1.0 - lva[i].stats.valueOf("system.avgL1MissLatency") /
                         baseline.stats.valueOf(
                             "system.avgL1MissLatency");
    }

    /** Reduction in interconnect traffic (flit-hops). */
    double
    trafficReduction(std::size_t i) const
    {
        return 1.0 -
               snapFlitHops(lva[i].stats) /
                   snapFlitHops(baseline.stats);
    }

    /** L1-miss EDP from a snapshot (mirrors missEdp()). */
    static double
    snapMissEdp(const StatSnapshot &s)
    {
        const double servicing = s.valueOf("energy.l2") +
                                 s.valueOf("energy.dram") +
                                 s.valueOf("energy.noc");
        return servicing * s.valueOf("system.avgL1MissLatency");
    }

    /** Total flit-hops (both mesh planes) from a snapshot. */
    static double
    snapFlitHops(const StatSnapshot &s)
    {
        return s.valueOf("energy.events.nocFlitHops") +
               s.valueOf("energy.events.nocFlitHopsSlow");
    }
};

struct MachineConfig;

/**
 * Record @p workload's precise execution (given seed/scale; scale
 * 0 = fsScaleFromEnv()) as one trace per thread. @p machine sets the
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

/** Scale from LVA_SCALE (1.0 default), as in the phase-1 evaluator. */
double fsScaleFromEnv();

/**
 * Flatten full-system sweeps into labelled snapshots for the JSON
 * export: "<workload>/baseline" then "<workload>/lva-d<degree>" per
 * sweep, in sweep order.
 */
std::vector<NamedSnapshot>
fsSweepSnapshots(const std::vector<FsSweep> &sweeps);

} // namespace lva

#endif // LVA_EVAL_FULLSYSTEM_EVAL_HH
