/**
 * @file
 * fullsystem_replay: the phase-2 sweep the full-system drivers run —
 * every workload's precise trace recorded once and replayed through
 * the 4-core CMP timing model, baseline and LVA at several degrees,
 * via runFullSystemSweep under SweepRunner::mapChecked, rendered as
 * the lva-stats-v1 export.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_workloads.hh"
#include "cpu/trace.hh"
#include "eval/fullsystem_eval.hh"
#include "eval/sweep.hh"
#include "util/checkpoint.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

const char *const kDriver = "perfbench_fs";
constexpr double kScale = 0.5;
const std::vector<u32> kDegrees = {0, 2, 4, 8, 16};

constexpr u64 kInputSeed = 1;

/**
 * FNV-1a digest of the export (input seed 1, scale 0.5, results in
 * canonical degree order). Simulated statistics are deterministic; a
 * mismatch is a change in simulator output.
 */
constexpr u64 kExpectedDigest = 0x54eb6da82803fe1bULL;

using lva::FsSweep;
using lva::FullSystemConfig;
using lva::FullSystemResult;

struct UnitResult
{
    double setupS = 0.0;
    double wallS = 0.0;
    double instructions = 0.0; ///< recorded + replayed
    u64 failures = 0;
    u64 digest = 0;
    std::size_t exportBytes = 0;
};

/** Recorded plus replayed dynamic instructions of the sweeps. */
double
fsInstructions(const std::vector<FsSweep> &sweeps)
{
    double instr = 0.0;
    for (const FsSweep &s : sweeps) {
        instr += 2.0 * static_cast<double>(s.baseline.instructions);
        for (const FullSystemResult &r : s.lva)
            instr += static_cast<double>(r.instructions);
    }
    return instr;
}

/** The completed sweeps, each with its LVA runs in kDegrees order. */
std::vector<FsSweep>
completed(std::vector<std::optional<FsSweep>> &results)
{
    std::vector<FsSweep> out;
    for (auto &r : results) {
        if (!r)
            continue;
        FsSweep s = std::move(*r);
        std::vector<FullSystemResult> lvaRuns;
        for (u32 d : kDegrees) {
            const auto at = std::find(s.degrees.begin(), s.degrees.end(), d);
            lvaRuns.push_back(std::move(s.lva[at - s.degrees.begin()]));
        }
        s.degrees = kDegrees;
        s.lva = std::move(lvaRuns);
        out.push_back(std::move(s));
    }
    return out;
}

UnitResult
runUnit(const std::vector<std::vector<u32>> &orders)
{
    UnitResult u;
    const double t0 = nowSec();
    lva::SweepRunner runner(benchJobs());
    const std::vector<std::string> &names = lva::allWorkloadNames();
    lva::SweepOptions opts;
    opts.driver = kDriver;
    const double t1 = nowSec();

    auto mapped = runner.mapChecked(names.size(), [&](u64 i) {
        return lva::runFullSystemSweep(names[i], orders[i], kInputSeed,
                                       kScale);
    }, opts);
    const std::vector<FsSweep> sweeps = completed(mapped.results);
    const std::string exported =
        lva::renderStatsJson(kDriver, lva::fsSweepSnapshots(sweeps));
    const double t2 = nowSec();

    u.setupS = t1 - t0;
    u.wallS = t2 - t1;
    u.failures = mapped.failures.size();
    u.digest = lva::fnv1a64(exported);
    u.exportBytes = exported.size();
    u.instructions = fsInstructions(sweeps);
    return u;
}

double
setupOnly()
{
    const double t0 = nowSec();
    lva::SweepRunner runner(benchJobs());
    return nowSec() - t0;
}

/** Per-task layer counts gathered in the traced repetition. */
struct TaskCounts
{
    u64 traceEvents = 0;
    u64 traceSlots = 0;     ///< summed vector capacities
    double replayBaseS = 0.0, replayD16S = 0.0;
    u64 eventsReplayed = 0;
    u64 l2Accesses = 0, flitHops = 0, dramAccesses = 0;
};

struct TracedUnit
{
    double wallS = 0.0;
    double poolWallS = 0.0;
    double renderS = 0.0;
    u64 digest = 0;
    u64 failures = 0;
    std::vector<TaskCounts> counts;
    std::vector<Span> spans;
};

/**
 * The traced repetition: runFullSystemSweep's own steps (generate,
 * record into a TraceRecorder, construct and run one FullSystemSim per
 * configuration) called one by one under spans, then rendered.
 */
TracedUnit
runTracedUnit(Tracer &tracer, const std::vector<std::vector<u32>> &orders)
{
    TracedUnit t;
    lva::SweepRunner runner(benchJobs());
    const std::vector<std::string> &names = lva::allWorkloadNames();
    t.counts.resize(names.size());
    lva::SweepOptions opts;
    opts.driver = kDriver;

    const double t0 = nowSec();
    const long root = tracer.begin("sweep.unit", -1);
    auto task = [&](u64 i) {
        ScopedSpan taskSpan(tracer, "sweep.task", root, i);
        const long parent = taskSpan.id();
        lva::WorkloadParams params;
        params.seed = kInputSeed;
        params.scale = kScale;
        std::unique_ptr<lva::Workload> w;
        {
            ScopedSpan s(tracer, "workloads.generate", parent, i);
            w = lva::makeWorkload(names[i], params);
            w->generate();
        }
        lva::TraceRecorder recorder(params.threads);
        {
            ScopedSpan s(tracer, "cpu.record", parent, i);
            w->run(recorder);
        }
        TaskCounts &c = t.counts[i];
        c.traceEvents = recorder.totalEvents();
        for (const lva::ThreadTrace &tr : recorder.traces())
            c.traceSlots += tr.capacity();

        auto replay = [&](const FullSystemConfig &cfg) {
            std::unique_ptr<lva::FullSystemSim> sim;
            {
                ScopedSpan s(tracer, "sim.construct", parent, i);
                sim = std::make_unique<lva::FullSystemSim>(cfg);
            }
            ScopedSpan s(tracer, "sim.replay", parent, i);
            const double r0 = nowSec();
            FullSystemResult r = sim->run(recorder.traces());
            const double r1 = nowSec();
            c.eventsReplayed += recorder.totalEvents();
            c.l2Accesses += r.l2Accesses;
            c.flitHops += r.flitHops;
            c.dramAccesses += r.dramAccesses;
            return std::make_pair(std::move(r), r1 - r0);
        };
        FsSweep sweep;
        sweep.workload = names[i];
        sweep.degrees = orders[i];
        auto [base, baseS] = replay(FullSystemConfig::baseline());
        sweep.baseline = std::move(base);
        c.replayBaseS = baseS;
        for (u32 d : orders[i]) {
            auto [r, s] = replay(FullSystemConfig::lva(d));
            if (d == 16)
                c.replayD16S = s;
            sweep.lva.push_back(std::move(r));
        }
        return sweep;
    };
    auto mapped = runner.mapChecked(names.size(), task, opts);
    t.poolWallS = nowSec() - t0;
    const std::vector<FsSweep> sweeps = completed(mapped.results);

    std::string exported;
    {
        ScopedSpan render(tracer, "eval.render", root);
        const double r0 = nowSec();
        exported = lva::renderStatsJson(kDriver, lva::fsSweepSnapshots(sweeps));
        t.renderS = nowSec() - r0;
    }
    tracer.end(root);
    t.wallS = nowSec() - t0;
    t.digest = lva::fnv1a64(exported);
    t.failures = mapped.failures.size();
    t.spans = tracer.spans();
    return t;
}

} // namespace

std::vector<std::vector<u32>>
fsReplayOrders(u64 seed)
{
    lva::Rng rng(seed);
    std::vector<std::vector<u32>> orders;
    for (std::size_t w = 0; w < lva::allWorkloadNames().size(); ++w) {
        std::vector<u32> order = kDegrees;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        orders.push_back(std::move(order));
    }
    return orders;
}

Report
runFullsystemReplay(const RunOptions &opts)
{
    Report report;
    const std::vector<std::vector<u32>> orders = fsReplayOrders(opts.seed);
    const u64 expected = kExpectedDigest;
    const u64 ops = lva::allWorkloadNames().size();

    Repetitions reps;
    UnitResult last;
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    // Most set-up samples are taken first, while the process is as
    // fresh as a driver's at start; each repetition adds its own.
    while (reps.setups.size() < 100)
        reps.setups.push_back(setupOnly());
    repeatWithin(budget, [&] {
        resetPeakRss();
        last = runUnit(orders);
        reps.add(last.wallS, last.setupS, last.instructions, peakRssMb());
        countCheckedUnit(report, "fullsystem_replay export", ops,
                         last.failures, last.digest, expected);
    });

    const double wall = reportEndToEnd(report, reps);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "fullsystem_replay: %llu workloads x %zu degrees + "
                  "baseline, %zu reps, %u workers, input seed %llu, "
                  "scale %.1f, export digest %s",
                  static_cast<unsigned long long>(ops), kDegrees.size(),
                  reps.walls.size(), benchJobs(),
                  static_cast<unsigned long long>(kInputSeed), kScale,
                  lva::hexU64(last.digest).c_str());
    report.note(line);
    if (!opts.trace)
        return report;

    Tracer tracer(true);
    const TracedUnit traced = runTracedUnit(tracer, orders);
    countCheckedUnit(report, "fullsystem_replay traced export", ops,
                     traced.failures, traced.digest, expected);

    // The kernels alone, to separate recording cost from kernel cost.
    const auto &names = lva::allWorkloadNames();
    lva::SweepRunner probeRunner(benchJobs());
    const long probeRoot = tracer.begin("probe", -1);
    const std::vector<double> kernelS = probeRunner.map(names.size(),
                                                        [&](u64 i) {
        lva::WorkloadParams params;
        params.seed = kInputSeed;
        params.scale = kScale;
        auto w = lva::makeWorkload(names[i], params);
        w->generate();
        lva::NullBackend null;
        ScopedSpan s(tracer, "workloads.kernel", probeRoot, i);
        const double k0 = nowSec();
        w->run(null);
        return nowSec() - k0;
    });
    tracer.end(probeRoot);

    const NameTotals totals = totalsByName(traced.spans);
    auto dur = [&](const char *name) { return totals.durationOf(name); };
    TaskCounts sum;
    double replayBase = 0.0, replayD16 = 0.0;
    for (const TaskCounts &c : traced.counts) {
        sum.traceEvents += c.traceEvents;
        sum.traceSlots += c.traceSlots;
        sum.eventsReplayed += c.eventsReplayed;
        sum.l2Accesses += c.l2Accesses;
        sum.flitHops += c.flitHops;
        sum.dramAccesses += c.dramAccesses;
        replayBase += c.replayBaseS;
        replayD16 += c.replayD16S;
    }
    double kernel = 0.0;
    for (double k : kernelS)
        kernel += k;
    const double events = static_cast<double>(sum.traceEvents);
    const double recordS = std::max(0.0, dur("cpu.record") - kernel);
    report.add("workloads.generate_s", dur("workloads.generate"), "s");
    report.add("workloads.kernel_s", kernel, "s");
    report.add("cpu.record_s", recordS, "s");
    report.add("cpu.trace_events", events, "count");
    report.add("cpu.trace_mb",
               static_cast<double>(sum.traceSlots) * sizeof(lva::TraceEvent) /
                   1e6,
               "MB");
    report.add("cpu.trace_fill", events / static_cast<double>(sum.traceSlots),
               "fraction");
    report.add("sim.construct_s", dur("sim.construct"), "s");
    report.add("sim.replay_s", dur("sim.replay"), "s");
    report.add("sim.events_replayed", static_cast<double>(sum.eventsReplayed),
               "count");
    report.add("sim.ns_per_event",
               1e9 * dur("sim.replay") /
                   static_cast<double>(sum.eventsReplayed),
               "ns");
    report.add("sim.ns_per_event.baseline", 1e9 * replayBase / events, "ns");
    report.add("sim.ns_per_event.d16", 1e9 * replayD16 / events, "ns");
    report.add("sim.ns_per_event.d16_vs_baseline", replayD16 / replayBase,
               "ratio");
    report.add("sim.l2_accesses", static_cast<double>(sum.l2Accesses),
               "count");
    report.add("noc.flit_hops", static_cast<double>(sum.flitHops), "count");
    report.add("sim.dram_accesses", static_cast<double>(sum.dramAccesses),
               "count");
    report.add("eval.render_s", traced.renderS, "s");
    report.add("eval.export_bytes", static_cast<double>(last.exportBytes),
               "bytes");
    report.add("sweep.parallel_eff",
               dur("sweep.task") / (benchJobs() * traced.poolWallS),
               "fraction");

    const double recordTotal = dur("cpu.record");
    const double kernelShare = recordTotal > kernel ? kernel : recordTotal;
    const LedgerSection pool{
        traced.poolWallS,
        {{"workloads", dur("workloads.generate") + kernelShare},
         {"cpu", recordTotal - kernelShare},
         {"sim", dur("sim.construct") + dur("sim.replay")},
         {"sweep", totals.selfOf("sweep.task") +
                       benchJobs() * traced.poolWallS - dur("sweep.task")}}};
    const LedgerSection render{traced.renderS,
                               {{"eval.render", traced.renderS}}};
    const double restS = traced.wallS - traced.poolWallS - traced.renderS;
    const LedgerSection rest{restS, {{"sweep", restS}}};
    reportLedger(report, {pool, render, rest}, wall);
    if (!opts.spansPath.empty() && !tracer.write(opts.spansPath))
        report.note("warning: could not write spans to " + opts.spansPath);
    return report;
}

} // namespace perfbench
