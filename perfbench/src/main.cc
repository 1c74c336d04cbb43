/**
 * @file
 * lva_perfbench — the repository benchmark (README.md in this
 * directory; run it through run.py, which builds it first).
 *
 *   lva_perfbench --workload dse_sweep|fullsystem_replay|served_sweep
 *                 --seed N --seconds S --trace 0|1 [--spans FILE]
 *
 * Prints a readable report, then as its last line one JSON object with
 * every metric it measured. --trace 1 adds a traced repetition and the
 * per-layer probes, and writes the spans to FILE.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_workloads.hh"
#include "util/stats_json.hh"

extern char **environ;

using namespace perfbench;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: lva_perfbench --workload "
                 "dse_sweep|fullsystem_replay|served_sweep --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n");
    std::exit(2);
}

u64
parseU64(const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage();
    return v;
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = parseU64(val);
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseU64(val));
        } else if (arg == "--trace") {
            const u64 t = parseU64(val);
            if (t > 1)
                usage();
            o.trace = t == 1;
        } else if (arg == "--spans") {
            o.spansPath = val;
        } else {
            usage();
        }
    }
    if (!haveWorkload || o.seconds < 1)
        usage();
    return o;
}

/**
 * The simulator reads LVA_* knobs (seeds, scale, jobs, faults, ...)
 * wherever an argument is left at 0; the benchmark passes every value
 * explicitly and drops the knobs so the caller's environment cannot
 * change what is measured.
 */
void
dropSimulatorKnobs()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "LVA_", 4) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
}

/**
 * Counts and ratios of layers a workload does not exercise read 0, so
 * every workload's traced report carries the same names.
 */
const Metric kZeroWhenUnused[] = {
    {"core.loads", 0.0, "count"},
    {"mem.l1_miss_rate", 0.0, "fraction"},
    {"core.coverage", 0.0, "fraction"},
    {"core.ns_per_load.lva_vs_precise", 0.0, "ratio"},
    {"eval.golden_builds", 0.0, "count"},
    {"eval.golden_hit_ratio", 0.0, "fraction"},
    {"cpu.trace_events", 0.0, "count"},
    {"cpu.trace_mb", 0.0, "MB"},
    {"cpu.trace_fill", 0.0, "fraction"},
    {"sim.events_replayed", 0.0, "count"},
    {"sim.l2_accesses", 0.0, "count"},
    {"noc.flit_hops", 0.0, "count"},
    {"sim.dram_accesses", 0.0, "count"},
    {"sim.ns_per_event.d16_vs_baseline", 0.0, "ratio"},
    {"net.request_bytes", 0.0, "bytes"},
    {"net.response_bytes", 0.0, "bytes"},
    {"net.overhead_vs_p50", 0.0, "ratio"},
    {"serve.busy_rejects", 0.0, "count"},
    {"serve.cache_hit_ratio", 0.0, "fraction"},
};

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opts = parseArgs(argc, argv);
    dropSimulatorKnobs();

    Report report;
    if (opts.workload == "dse_sweep")
        report = runDseSweep(opts);
    else if (opts.workload == "fullsystem_replay")
        report = runFullsystemReplay(opts);
    else if (opts.workload == "served_sweep")
        report = runServedSweep(opts);
    else
        usage();

    if (opts.trace) {
        for (const Metric &zero : kZeroWhenUnused) {
            bool present = false;
            for (const Metric &m : report.metrics)
                present = present || m.name == zero.name;
            if (!present)
                report.metrics.push_back(zero);
        }
    }

    for (const std::string &line : report.notes)
        std::printf("%s\n", line.c_str());
    std::printf("%s metrics (%s):\n", opts.workload.c_str(),
                opts.trace ? "traced" : "untraced");
    std::string json = std::string("{\"correct\": ") +
                       (report.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (i > 0)
            json += ", ";
        json += lva::jsonQuote(m.name) + ": {\"value\": " +
                lva::jsonDouble(std::isfinite(m.value) ? m.value : 0.0) +
                ", \"unit\": " + lva::jsonQuote(m.unit) + "}";
    }
    std::printf("%s}}\n", json.c_str());
    return 0;
}
