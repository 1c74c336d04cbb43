/**
 * @file
 * Ablation: coherence protocol. The paper's system uses MSI (Table
 * II); this bench re-runs the full-system comparison under MESI to
 * show that LVA's benefit is protocol-insensitive (the E state saves
 * upgrade traffic equally in the baseline and the LVA system).
 */

#include <cstdio>

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

    BenchTimer timer("ablation_coherence");
    std::printf("Coherence-protocol ablation (scale=%.2f)\n",
                fsScaleFromEnv());

    // Note: MESI is not uniformly cheaper — the E state saves GetM
    // upgrades on private read-write data but forces owner forwards
    // on read-shared data (the directory cannot know whether an E
    // copy was silently dirtied), so traffic can go either way.
    Table table({"benchmark", "LVA speedup (MSI)",
                 "LVA speedup (MESI)",
                 "baseline traffic change (MESI vs MSI)"});

    // A map task returns the formatted table row plus the labelled
    // registry snapshots, so the JSON export sees every replay.
    struct WorkRes
    {
        std::vector<std::string> row;
        std::vector<NamedSnapshot> snaps;
    };

    const auto &names = allWorkloadNames();
    const SweepOptions opts =
        sweepOptionsFromCli("ablation_coherence", argc, argv);
    const MachineConfig &machine = sweepMachine(opts);
    SweepRunner runner;
    const auto outcome = runner.mapChecked(
        names.size(),
        [&](u64 i) {
            const std::string &name = names[i];
            // MSI base, MSI LVA, MESI base, MESI LVA.
            std::vector<FullSystemConfig> cfgs;
            for (CoherenceProtocol proto :
                 {CoherenceProtocol::Msi, CoherenceProtocol::Mesi})
                for (bool lva_on : {false, true}) {
                    FullSystemConfig cfg =
                        machine.fullSystem(lva_on, /*degree=*/4);
                    cfg.protocol = proto;
                    cfgs.push_back(cfg);
                }
            const std::vector<FullSystemResult> runs = replayConfigs(
                recordPreciseTraces(name, 1, 0.0, &machine), cfgs);
            const FullSystemResult &msi_base = runs[0];
            const FullSystemResult &msi_lva = runs[1];
            const FullSystemResult &mesi_base = runs[2];
            const FullSystemResult &mesi_lva = runs[3];

            auto cycles = [](const FullSystemResult &r) {
                return r.stats.valueOf("system.cycles");
            };
            WorkRes res;
            res.row = {
                name,
                fmtPercent(cycles(msi_base) / cycles(msi_lva) - 1.0, 1),
                fmtPercent(cycles(mesi_base) / cycles(mesi_lva) - 1.0, 1),
                fmtPercent(FsSweep::snapFlitHops(mesi_base.stats) /
                                   FsSweep::snapFlitHops(msi_base.stats) -
                               1.0,
                           1)};
            res.snaps = {{name + "/msi-base", name, msi_base.stats},
                         {name + "/msi-lva", name, msi_lva.stats},
                         {name + "/mesi-base", name, mesi_base.stats},
                         {name + "/mesi-lva", name, mesi_lva.stats}};
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

    table.print("LVA (degree 4) speedup under MSI vs MESI");
    table.writeCsv(resultsPath("ablation_coherence.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("ablation_coherence.csv").c_str());
    std::printf("wrote %s\n",
                writeStatsJson("ablation_coherence", snaps,
                               outcome.failures).c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
