/**
 * @file
 * Ablation: deprioritized training fetches (paper section VI-C).
 * Because LVA's fetches only train the approximator, they can travel
 * over a slow, low-energy NoC/memory path; this bench adds 0/100/300
 * extra cycles to every background fetch and shows that speedup is
 * essentially unaffected — the paper's value-delay-resilience argument
 * applied to the full system.
 */

#include <cstdio>
#include <iterator>

#include "eval/fullsystem_eval.hh"
#include "eval/sweep.hh"
#include "sim/machine_config.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    BenchTimer timer("ablation_slow_fetch");
    const u32 extras[] = {0, 100, 300};
    std::printf("Slow-training-fetch ablation (scale=%.2f)\n",
                fsScaleFromEnv());

    Table table({"benchmark", "+0 cycles", "+100 cycles",
                 "+300 cycles"});

    // A map task returns the formatted table row plus the labelled
    // registry snapshots, so the JSON export sees every replay.
    struct WorkRes
    {
        std::vector<std::string> row;
        std::vector<NamedSnapshot> snaps;
    };

    const auto &names = allWorkloadNames();
    const SweepOptions opts =
        sweepOptionsFromCli("ablation_slow_fetch", argc, argv);
    const MachineConfig &machine = sweepMachine(opts);
    SweepRunner runner;
    const auto outcome = runner.mapChecked(
        names.size(),
        [&](u64 i) {
            const std::string &name = names[i];
            // The extra latency is the ablation axis; it overrides
            // the machine file's setting.
            std::vector<FullSystemConfig> cfgs = {machine.fullSystem(false)};
            for (u32 extra : extras) {
                FullSystemConfig cfg = machine.fullSystem(true, 4);
                cfg.backgroundFetchExtraLatency = extra;
                cfgs.push_back(cfg);
            }
            const std::vector<FullSystemResult> runs = replayConfigs(
                recordPreciseTraces(name, 1, 0.0, &machine), cfgs);
            const double base_cycles =
                runs[0].stats.valueOf("system.cycles");

            WorkRes res;
            res.row = {name};
            res.snaps = {{name + "/baseline", name, runs[0].stats}};
            for (std::size_t k = 0; k < std::size(extras); ++k) {
                const StatSnapshot &st = runs[k + 1].stats;
                res.row.push_back(fmtPercent(
                    base_cycles / st.valueOf("system.cycles") - 1.0, 1));
                res.snaps.push_back(
                    {name + "/extra-" + std::to_string(extras[k]), name,
                     st});
            }
            return res;
        },
        opts, [&names](u64 i) { return names[i]; });

    std::vector<NamedSnapshot> snaps;
    for (const auto &r : outcome.results) {
        if (!r) // failed workload: listed in the failures section
            continue;
        table.addRow(r->row);
        snaps.insert(snaps.end(), r->snaps.begin(), r->snaps.end());
    }

    table.print("LVA (degree 4) speedup with deprioritized training "
                "fetches");
    table.writeCsv(resultsPath("ablation_slow_fetch.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("ablation_slow_fetch.csv").c_str());
    std::printf("wrote %s\n",
                writeStatsJson("ablation_slow_fetch", snaps,
                               outcome.failures).c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
