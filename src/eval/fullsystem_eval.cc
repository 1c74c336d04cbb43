#include "eval/fullsystem_eval.hh"

#include "cpu/trace.hh"
#include "eval/evaluator.hh"
#include "sim/machine_config.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace lva {

std::vector<ThreadTrace>
recordPreciseTraces(const std::string &workload, u64 seed, double scale,
                    const MachineConfig *machine)
{
    WorkloadParams params;
    params.seed = seed;
    params.scale = scale > 0.0 ? scale : scaleFromEnv();
    if (machine != nullptr)
        params.threads = machine->cores;

    auto w = makeWorkload(workload, params);
    w->generate();
    TraceRecorder recorder(params.threads);
    w->run(recorder);
    return recorder.takeTraces();
}

std::vector<FullSystemResult>
replayConfigs(const std::vector<ThreadTrace> &traces,
              const std::vector<FullSystemConfig> &configs)
{
    std::vector<FullSystemResult> results(configs.size());
    ThreadPool::forEachIndex(configs.size(), [&](u64 i) {
        FullSystemSim sim(configs[i]);
        results[i] = sim.run(traces);
    });
    return results;
}

FsSweep
runFullSystemSweep(const std::string &workload,
                   const std::vector<u32> &degrees, u64 seed,
                   double scale, const MachineConfig *machine)
{
    // Baseline first, then one LVA configuration per degree.
    std::vector<FullSystemConfig> configs;
    configs.push_back(machine != nullptr
                          ? machine->fullSystem(/*lvaEnabled=*/false)
                          : FullSystemConfig::baseline());
    for (u32 d : degrees)
        configs.push_back(machine != nullptr
                              ? machine->fullSystem(/*lvaEnabled=*/true, d)
                              : FullSystemConfig::lva(d));

    std::vector<FullSystemResult> runs = replayConfigs(
        recordPreciseTraces(workload, seed, scale, machine), configs);

    FsSweep sweep;
    sweep.workload = workload;
    sweep.degrees = degrees;
    sweep.baseline = std::move(runs.front());
    sweep.lva.assign(std::make_move_iterator(runs.begin() + 1),
                     std::make_move_iterator(runs.end()));
    return sweep;
}

std::vector<NamedSnapshot>
fsSweepSnapshots(const std::vector<FsSweep> &sweeps)
{
    std::vector<NamedSnapshot> snaps;
    for (const FsSweep &s : sweeps) {
        snaps.push_back(
            {s.workload + "/baseline", s.workload, s.baseline.stats});
        for (std::size_t i = 0; i < s.lva.size(); ++i)
            snaps.push_back(
                {s.workload + "/lva-d" + std::to_string(s.degrees[i]),
                 s.workload, s.lva[i].stats});
    }
    return snaps;
}

} // namespace lva
