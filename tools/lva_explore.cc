/**
 * @file
 * lva_explore — command-line design-space exploration.
 *
 * Runs any workload under any approximator configuration and prints
 * the phase-1 metrics, so new configurations can be explored without
 * writing code:
 *
 *   lva_explore --workload canneal --degree 4 --window 0.2
 *   lva_explore --workload ferret --mode lvp --ghb 2
 *   lva_explore --workload all --estimator stride --seeds 3
 *   lva_explore --machine examples/machine-2core.json \
 *       --machine examples/machine-hetero.json --degree 4
 *
 * Options (defaults = paper baseline):
 *   --workload NAME|all     benchmark to run          [all]
 *   --mode lva|lvp|prefetch|precise                   [lva]
 *   --ghb N                 global history entries    [0]
 *   --lhb N                 local history entries     [4]
 *   --table N               approximator table size   [512]
 *   --window F              confidence window (inf ok)[0.10]
 *   --conf-ints             apply confidence to ints  [off]
 *   --no-conf               disable confidence        [off]
 *   --proportional          proportional conf updates [off]
 *   --degree N              approximation degree      [0]
 *   --delay N               value delay (loads)       [4]
 *   --mantissa-drop N       FP hash mantissa bits cut [0]
 *   --estimator average|last|stride                   [average]
 *   --prefetch-degree N     (prefetch mode)           [4]
 *   --seeds N               averaging runs (1..64)    [5]
 *   --scale F               working-set scale         [1.0]
 *                           (1e-6..4)
 *   --machine FILE          lva-machine-v1 topology file
 *                           (docs/topology.md; also LVA_MACHINE)
 *
 * The configuration flags are spellings of the RPC "config" keys
 * (--ghb is "ghb", --conf-ints is "confInts", ...): they are decoded
 * by the same configFromJson (src/eval/service.cc) the figure specs
 * and served sweeps use. A malformed or out-of-range value exits 2.
 *
 * Topology axis: --machine is repeatable. Each file contributes one
 * sweep axis labeled "explore@<name>", and the flag overrides are
 * replayed on top of every machine's phase-1 base — so
 * `--machine a.json --machine b.json --degree 4` compares the same
 * configuration across topologies in a single run. Flag overrides
 * apply to every per-core variant a heterogeneous machine carries.
 *
 * Robustness (DESIGN.md section 13):
 *   --checkpoint            record completed points in a manifest
 *   --resume                skip points already in the manifest
 *   --retries N             re-attempt a failed point up to N
 *                           (0..99) times
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/service.hh"
#include "sim/machine_config.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace lva;

namespace {

/** A flag that sets one key of the configFromJson vocabulary (the
 *  RPC "config" object, docs/serving.md). */
struct ConfigFlag
{
    const char *flag;
    const char *key;
    bool takesValue;
};

const ConfigFlag kConfigFlags[] = {
    {"--mode", "mode", true},
    {"--ghb", "ghb", true},
    {"--lhb", "lhb", true},
    {"--table", "table", true},
    {"--window", "window", true},
    {"--conf-ints", "confInts", false},
    {"--no-conf", "noConf", false},
    {"--proportional", "proportional", false},
    {"--degree", "degree", true},
    {"--delay", "delay", true},
    {"--mantissa-drop", "mantissaDrop", true},
    {"--estimator", "estimator", true},
    {"--prefetch-degree", "prefetchDegree", true},
};

struct Options
{
    std::string workload = "all";
    /** Config overrides in flag order, replayed on every machine
     *  base. */
    JsonValue config;
    std::vector<std::string> machineFiles;
    u32 seeds = 0;
    double scale = 0.0;
    SweepOptions sweep;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME|all] [--mode "
                 "lva|lvp|prefetch|precise]\n"
                 "  [--ghb N] [--lhb N] [--table N] [--window F|inf]\n"
                 "  [--conf-ints] [--no-conf] [--proportional]\n"
                 "  [--degree N] [--delay N] [--mantissa-drop N]\n"
                 "  [--estimator average|last|stride]\n"
                 "  [--prefetch-degree N] [--seeds N] [--scale F]\n"
                 "  [--machine FILE]...\n"
                 "  [--checkpoint] [--resume] [--retries N]\n",
                 argv0);
    std::exit(2);
}

/**
 * A flag argument as a JSON value: a number when it parses as one,
 * else a string. Decoders reject the wrong type, so "--ghb abc" and
 * "--window 0.2x" are errors rather than 0 and 0.2.
 */
JsonValue
argValue(const std::string &text)
{
    try {
        JsonValue v = parseJson(text);
        if (v.type == JsonValue::Type::Number)
            return v;
    } catch (const std::exception &) {
    }
    JsonValue v;
    v.type = JsonValue::Type::String;
    v.text = text;
    return v;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.config.type = JsonValue::Type::Object;
    // The run-wide sweep knobs (and LVA_MACHINE) first; flags win.
    opt.sweep = sweepOptionsFromEnv("lva_explore");
    std::string text;
    auto need = [&](int &i) -> const std::string & {
        if (i + 1 >= argc)
            usage(argv[0]);
        return text = argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        text.clear();
        const ConfigFlag *cf = nullptr;
        for (const ConfigFlag &f : kConfigFlags)
            if (arg == f.flag)
                cf = &f;
        // A bad value is a usage error before any simulation starts.
        try {
            if (cf != nullptr) {
                JsonValue one;
                one.type = JsonValue::Type::Object;
                one.members.emplace_back(cf->key, cf->takesValue
                                                      ? argValue(need(i))
                                                      : parseJson("true"));
                configFromJson(one); // decode now to validate
                opt.config.members.push_back(one.members.front());
            } else if (arg == "--workload") {
                opt.workload = need(i);
            } else if (arg == "--machine") {
                opt.machineFiles.push_back(need(i));
            } else if (arg == "--seeds") {
                // LVA_SEEDS's and LVA_SCALE's bounds.
                opt.seeds = static_cast<u32>(
                    flagU64("--seeds", need(i).c_str(), 1, 64));
            } else if (arg == "--scale") {
                opt.scale = flagF64("--scale", need(i).c_str(), 1e-6, 4.0);
            } else if (arg == "--checkpoint") {
                opt.sweep.checkpoint = true;
            } else if (arg == "--resume") {
                opt.sweep.resume = true;
            } else if (arg == "--retries") {
                // LVA_RETRIES's bounds.
                const u64 retries =
                    flagU64("--retries", need(i).c_str(), 0, 99);
                opt.sweep.maxAttempts = static_cast<u32>(retries) + 1;
            } else {
                usage(argv[0]);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lva_explore: bad value '%s' for %s: %s\n",
                         text.c_str(), arg.c_str(), e.what());
            std::exit(2);
        }
    }
    return opt;
}

/** One topology axis: a point label and the edited base config. */
struct Axis
{
    std::string label;
    ApproxMemory::Config cfg;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    Evaluator eval(opt.seeds, opt.scale);

    const std::string prefix = "explore@";
    std::vector<Axis> axes;
    if (!opt.machineFiles.empty()) {
        for (const std::string &file : opt.machineFiles) {
            try {
                auto m = std::make_shared<const MachineConfig>(
                    machineFromFile(file));
                axes.push_back({prefix + m->name, m->phase1Lva()});
                // A single explicit machine also scopes the sweep
                // manifest (the flag wins over LVA_MACHINE).
                if (opt.machineFiles.size() == 1)
                    opt.sweep.machine = m;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "lva_explore: %s\n", e.what());
                return 2;
            }
        }
        for (std::size_t i = 1; i < axes.size(); ++i)
            for (std::size_t j = 0; j < i; ++j)
                if (axes[i].label == axes[j].label) {
                    std::fprintf(stderr,
                                 "lva_explore: duplicate machine name "
                                 "'%s' -- give each --machine file a "
                                 "distinct \"name\"\n",
                                 axes[i].label.c_str() + prefix.size());
                    return 2;
                }
    } else if (opt.sweep.machine) {
        axes.push_back({prefix + opt.sweep.machine->name,
                        opt.sweep.machine->phase1Lva()});
    } else {
        axes.push_back({"explore", Evaluator::baselineLva()});
    }
    for (Axis &axis : axes)
        axis.cfg = configFromJson(opt.config, axis.cfg);

    std::vector<std::string> names;
    if (opt.workload == "all")
        names = allWorkloadNames();
    else
        names.push_back(opt.workload);

    const ApproxMemory::Config &shown = axes.front().cfg;
    std::printf("lva_explore: mode=%s ghb=%u lhb=%u table=%u "
                "window=%.3g degree=%u delay=%u estimator=%s "
                "seeds=%u scale=%.2f\n",
                memModeName(shown.mode), shown.approx.ghbEntries,
                shown.approx.lhbEntries, shown.approx.tableEntries,
                shown.approx.confidenceWindow, shown.approx.approxDegree,
                shown.approx.valueDelay,
                estimatorName(shown.approx.estimator), eval.seeds(),
                eval.scale());
    if (axes.front().label != "explore") {
        std::string joined;
        for (const Axis &axis : axes) {
            if (!joined.empty())
                joined += ",";
            joined += axis.label.substr(prefix.size());
        }
        std::printf("lva_explore: machines=%s\n", joined.c_str());
    }

    Table table({"benchmark", "MPKI", "norm MPKI", "norm fetches",
                 "coverage", "output error"});

    std::vector<SweepPoint> points;
    std::vector<std::string> rows;
    for (const Axis &axis : axes)
        for (const auto &name : names) {
            points.push_back({axis.label, name, axis.cfg});
            rows.push_back(axes.size() == 1
                               ? name
                               : name + "@" +
                                     axis.label.substr(prefix.size()));
        }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opt.sweep);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const EvalResult &r = outcome.results[i];
        table.addRow(
            {rows[i], fmtDouble(r.stats.valueOf("eval.mpki"), 3),
             fmtDouble(r.stats.valueOf("eval.normMpki"), 3),
             fmtDouble(r.stats.valueOf("eval.normFetches"), 3),
             fmtPercent(r.stats.valueOf("eval.coverage"), 1),
             fmtPercent(r.stats.valueOf("eval.outputError"), 1)});
    }
    table.print("results");
    std::printf(
        "wrote %s\n",
        exportSweepStats("lva_explore", points, outcome).c_str());
    return reportSweepFailures(outcome);
}
