/**
 * @file
 * The benchmark's three workloads and their seeded input generators.
 * README.md in this directory says why each workload exists and which
 * layer metric should move which end-to-end metric.
 */

#ifndef PERFBENCH_BENCH_WORKLOADS_HH
#define PERFBENCH_BENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath; ///< where a traced run writes its spans
};

Report runDseSweep(const RunOptions &opts);
Report runFullsystemReplay(const RunOptions &opts);
Report runServedSweep(const RunOptions &opts);

/** dse_sweep input: the order its grid points (workload-major,
 *  @p perWorkload per workload) are submitted in: workload by workload,
 *  each workload's points in a seeded order. */
std::vector<u32> dseSubmissionOrder(u64 seed, u32 workloads,
                                    u32 perWorkload);

/** fullsystem_replay input: per workload, the order its five LVA
 *  degrees are replayed in (after the baseline). */
std::vector<std::vector<u32>> fsReplayOrders(u64 seed);

/** One served_sweep request of the schedule. */
struct ServedRequest
{
    bool sweep = false;
    std::string workload;
    std::vector<u32> configs; ///< indices into the config catalog
    std::string payload;      ///< lva-rpc-v1 request JSON
};

/** served_sweep input: one pass of the seeded request schedule. */
std::vector<ServedRequest> servedSchedule(u64 seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_WORKLOADS_HH
