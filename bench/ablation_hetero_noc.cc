/**
 * @file
 * Ablation: heterogeneous NoC (paper section VI-C, citing Mishra et
 * al.). Training fetches ride a second mesh plane with narrow links
 * and deep low-voltage routers whose flit-hops cost ~40% of the fast
 * plane's energy. Because LVA tolerates value delay, performance is
 * essentially unchanged while NoC energy drops and fast-plane traffic
 * shrinks.
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

    BenchTimer timer("ablation_hetero_noc");
    std::printf("Heterogeneous-NoC ablation (scale=%.2f)\n",
                fsScaleFromEnv());

    Table table({"benchmark", "speedup homo", "speedup hetero",
                 "NoC energy homo", "NoC energy hetero",
                 "energy savings homo", "energy savings hetero"});

    // A map task returns the formatted table row plus the labelled
    // registry snapshots, so the JSON export sees every replay.
    struct WorkRes
    {
        std::vector<std::string> row;
        std::vector<NamedSnapshot> snaps;
    };

    const auto &names = allWorkloadNames();
    const SweepOptions opts =
        sweepOptionsFromCli("ablation_hetero_noc", argc, argv);
    const MachineConfig &machine = sweepMachine(opts);
    SweepRunner runner;
    const auto outcome = runner.mapChecked(
        names.size(),
        [&](u64 i) {
            const std::string &name = names[i];
            // The homo/hetero legs are the ablation axis, so they
            // override whatever the machine file says.
            FullSystemConfig homo_cfg = machine.fullSystem(true, 4);
            homo_cfg.heteroNoc = false;
            FullSystemConfig hetero_cfg = machine.fullSystem(true, 4);
            hetero_cfg.heteroNoc = true;
            const std::vector<FullSystemResult> runs = replayConfigs(
                recordPreciseTraces(name, 1, 0.0, &machine),
                {machine.fullSystem(false), homo_cfg, hetero_cfg});
            const FullSystemResult &base = runs[0];
            const FullSystemResult &homo = runs[1];
            const FullSystemResult &hetero = runs[2];

            auto cycles = [](const FullSystemResult &r) {
                return r.stats.valueOf("system.cycles");
            };
            auto total = [](const FullSystemResult &r) {
                return r.stats.valueOf("energy.total");
            };
            WorkRes res;
            res.row = {
                name,
                fmtPercent(cycles(base) / cycles(homo) - 1.0, 1),
                fmtPercent(cycles(base) / cycles(hetero) - 1.0, 1),
                fmtDouble(homo.stats.valueOf("energy.noc"), 1),
                fmtDouble(hetero.stats.valueOf("energy.noc"), 1),
                fmtPercent(1.0 - total(homo) / total(base), 1),
                fmtPercent(1.0 - total(hetero) / total(base), 1)};
            res.snaps = {{name + "/baseline", name, base.stats},
                         {name + "/homo", name, homo.stats},
                         {name + "/hetero", name, hetero.stats}};
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

    table.print("LVA (degree 4): homogeneous vs heterogeneous NoC "
                "for training fetches");
    table.writeCsv(resultsPath("ablation_hetero_noc.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("ablation_hetero_noc.csv").c_str());
    std::printf("wrote %s\n",
                writeStatsJson("ablation_hetero_noc", snaps,
                               outcome.failures).c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
