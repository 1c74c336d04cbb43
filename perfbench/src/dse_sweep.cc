/**
 * @file
 * dse_sweep: the phase-1 design-space sweep every phase-1 paper driver
 * runs — a (workload x configuration) grid through
 * SweepRunner::runChecked with cold goldens, rendered as the
 * lva-stats-v1 export the drivers write.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_workloads.hh"
#include "eval/sweep.hh"
#include "util/checkpoint.hh"
#include "util/random.hh"

namespace perfbench {

namespace {

const char *const kDriver = "perfbench_dse";
constexpr u32 kSeeds = 1;
constexpr double kScale = 1.0;

/**
 * FNV-1a digest of the canonical-order export (seed 1, scale 1.0). The
 * simulated statistics are deterministic, so any change here is a
 * change in simulator output, not noise.
 */
constexpr u64 kExpectedDigest = 0x8db0b2d16baca602ULL;

using lva::ApproxMemory;
using lva::ApproximatorConfig;
using lva::Evaluator;
using lva::EvalResult;
using lva::SweepOutcome;
using lva::SweepPoint;

/** 12 LVA points (GHB size x degree), one LVP and one GHB-prefetcher
 *  point per workload, in the drivers' workload-major order. */
std::vector<SweepPoint>
canonicalGrid()
{
    std::vector<SweepPoint> points;
    for (const std::string &name : lva::allWorkloadNames()) {
        for (u32 ghb : {0u, 1u, 2u, 4u}) {
            for (u32 degree : {0u, 4u, 16u}) {
                ApproxMemory::Config cfg = Evaluator::baselineLva();
                cfg.editApprox([&](ApproximatorConfig &a) {
                    a.ghbEntries = ghb;
                    a.approxDegree = degree;
                });
                points.push_back({"lva-g" + std::to_string(ghb) + "-d" +
                                      std::to_string(degree),
                                  name, cfg});
            }
        }
        ApproxMemory::Config lvp = Evaluator::baselineLva();
        lvp.mode = lva::MemMode::Lvp;
        points.push_back({"lvp", name, lvp});
        ApproxMemory::Config prefetch = Evaluator::baselineLva();
        prefetch.mode = lva::MemMode::Prefetch;
        points.push_back({"prefetch", name, prefetch});
    }
    return points;
}

/** What one repetition of the timed unit produced. */
struct UnitResult
{
    double setupS = 0.0;
    double wallS = 0.0;
    double instructions = 0.0; ///< configured + golden runs
    u64 failures = 0;
    u64 digest = 0;
    std::size_t exportBytes = 0;
    lva::GoldenCacheCounters cache{};
};

/** The sweep's outcome put back into canonical point order. */
SweepOutcome
toCanonical(SweepOutcome submitted, const std::vector<u32> &order)
{
    SweepOutcome out;
    out.results.resize(submitted.results.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        out.results[order[i]] = std::move(submitted.results[i]);
    for (lva::PointFailure &f : submitted.failures) {
        f.index = order[f.index];
        out.failures.push_back(std::move(f));
    }
    std::sort(out.failures.begin(), out.failures.end(),
              [](const auto &a, const auto &b) { return a.index < b.index; });
    return out;
}

/** Golden plus configured dynamic instructions of a finished sweep. */
double
sweepInstructions(Evaluator &eval, const SweepOutcome &outcome)
{
    double instr = 0.0;
    for (const EvalResult &r : outcome.results)
        if (!r.failed)
            instr += r.instructions;
    for (const std::string &name : lva::allWorkloadNames())
        instr += eval.evaluatePrecise(name).instructions; // cache hits
    return instr;
}

/** What every repetition sets up: a cold evaluator, the worker pool
 *  and the points in submission order. */
struct SweepSetup
{
    SweepSetup(const std::vector<SweepPoint> &canonical,
               const std::vector<u32> &order)
        : eval(kSeeds, kScale), runner(eval, benchJobs())
    {
        submitted.reserve(order.size());
        for (u32 i : order)
            submitted.push_back(canonical[i]);
        opts.driver = kDriver;
    }

    Evaluator eval;
    lva::SweepRunner runner;
    std::vector<SweepPoint> submitted;
    lva::SweepOptions opts;
};

/** One untraced repetition: set-up, then runChecked + render. */
UnitResult
runUnit(const std::vector<SweepPoint> &canonical,
        const std::vector<u32> &order)
{
    UnitResult u;
    const double t0 = nowSec();
    SweepSetup s(canonical, order);
    const double t1 = nowSec();

    const SweepOutcome outcome =
        toCanonical(s.runner.runChecked(s.submitted, s.opts), order);
    const std::string exported =
        lva::renderSweepStats(kDriver, canonical, outcome);
    const double t2 = nowSec();

    u.setupS = t1 - t0;
    u.wallS = t2 - t1;
    u.failures = outcome.failures.size();
    u.digest = lva::fnv1a64(exported);
    u.exportBytes = exported.size();
    u.cache = s.eval.goldenCacheCounters();
    u.instructions = sweepInstructions(s.eval, outcome);
    return u;
}

/** Set-up alone, for the set-up median. */
double
setupOnly(const std::vector<SweepPoint> &canonical,
          const std::vector<u32> &order)
{
    const double t0 = nowSec();
    SweepSetup s(canonical, order);
    return nowSec() - t0;
}

/**
 * The traced repetition: the same points through the same evaluator
 * calls, split at the golden/evaluate boundary (mapChecked over
 * Evaluator::evaluatePrecise + Evaluator::evaluate instead of the
 * opaque runChecked), then rendered.
 */
struct TracedUnit
{
    double wallS = 0.0;
    double poolWallS = 0.0;
    double renderS = 0.0;
    u64 digest = 0;
    u64 failures = 0;
    std::vector<Span> spans;
};

TracedUnit
runTracedUnit(Tracer &tracer, const std::vector<SweepPoint> &canonical,
              const std::vector<u32> &order)
{
    TracedUnit t;
    SweepSetup s(canonical, order);
    Evaluator &eval = s.eval;

    const double t0 = nowSec();
    const long root = tracer.begin("sweep.unit", -1);
    auto task = [&](u64 i) {
        const SweepPoint &p = s.submitted[i];
        ScopedSpan point(tracer, "sweep.point", root, i);
        {
            ScopedSpan golden(tracer, "eval.golden", point.id(), i);
            eval.evaluatePrecise(p.workload);
        }
        ScopedSpan evaluate(tracer, "eval.evaluate", point.id(), i);
        return eval.evaluate(p.workload, p.config);
    };
    auto mapped = s.runner.mapChecked(s.submitted.size(), task, s.opts);
    t.poolWallS = nowSec() - t0;

    // What runChecked adds per point: the retry gauges of a point that
    // succeeded on its first attempt, so the export bytes match.
    SweepOutcome outcome;
    for (std::size_t i = 0; i < mapped.results.size(); ++i) {
        if (!mapped.results[i]) {
            outcome.results.push_back(lva::failedPointPlaceholder());
            continue;
        }
        EvalResult r = std::move(*mapped.results[i]);
        for (const lva::EvalMetricDef &d : lva::sweepRuntimeDefs())
            r.stats.setGauge(d.path,
                             std::string(d.path) == "eval.retries.attempts"
                                 ? 1.0
                                 : 0.0,
                             d.desc, d.unit);
        outcome.results.push_back(std::move(r));
    }
    outcome.failures = mapped.failures;
    outcome = toCanonical(std::move(outcome), order);

    std::string exported;
    {
        ScopedSpan render(tracer, "eval.render", root);
        const double r0 = nowSec();
        exported = lva::renderSweepStats(kDriver, canonical, outcome);
        t.renderS = nowSec() - r0;
    }
    tracer.end(root);
    t.wallS = nowSec() - t0;
    t.digest = lva::fnv1a64(exported);
    t.failures = outcome.failures.size();
    t.spans = tracer.spans();
    return t;
}

} // namespace

std::vector<u32>
dseSubmissionOrder(u64 seed, u32 workloads, u32 perWorkload)
{
    // Workload-major, as the drivers submit: a workload's first points
    // wait on its golden build, so moving points across workloads
    // changes the idle time far more than any simulator change would.
    std::vector<u32> order;
    lva::Rng rng(seed);
    for (u32 w = 0; w < workloads; ++w) {
        std::vector<u32> block(perWorkload);
        std::iota(block.begin(), block.end(), w * perWorkload);
        for (u32 i = perWorkload; i > 1; --i)
            std::swap(block[i - 1], block[rng.below(i)]);
        order.insert(order.end(), block.begin(), block.end());
    }
    return order;
}

Report
runDseSweep(const RunOptions &opts)
{
    Report report;
    const std::vector<SweepPoint> canonical = canonicalGrid();
    const u32 workloads = static_cast<u32>(lva::allWorkloadNames().size());
    const std::vector<u32> order = dseSubmissionOrder(
        opts.seed, workloads, static_cast<u32>(canonical.size()) / workloads);
    const u64 ops = canonical.size();

    Repetitions reps;
    UnitResult last;
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    // Most set-up samples are taken first, while the process is as
    // fresh as a driver's at start; each repetition adds its own.
    while (reps.setups.size() < 100)
        reps.setups.push_back(setupOnly(canonical, order));
    repeatWithin(budget, [&] {
        resetPeakRss();
        last = runUnit(canonical, order);
        reps.add(last.wallS, last.setupS, last.instructions, peakRssMb());
        countCheckedUnit(report, "dse_sweep export", ops, last.failures,
                         last.digest, kExpectedDigest);
    });

    const double wall = reportEndToEnd(report, reps);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "dse_sweep: %zu points x %zu reps, %u workers, seeds %u, "
                  "scale %.1f, export digest %s",
                  canonical.size(), reps.walls.size(), benchJobs(), kSeeds,
                  kScale, lva::hexU64(last.digest).c_str());
    report.note(line);
    if (!opts.trace)
        return report;

    Tracer tracer(true);
    const TracedUnit traced = runTracedUnit(tracer, canonical, order);
    countCheckedUnit(report, "dse_sweep traced export", ops, traced.failures,
                     traced.digest, kExpectedDigest);

    // Probe every point's layers alone, plus each workload precisely.
    lva::SweepRunner probeRunner(benchJobs());
    const long probeRoot = tracer.begin("probe", -1);
    auto probes = probeRunner.map(ops, [&](u64 i) {
        return probePhase1(tracer, probeRoot, i, canonical[i].workload,
                           canonical[i].config, kScale);
    });
    const auto &names = lva::allWorkloadNames();
    auto precise = probeRunner.map(names.size(), [&](u64 i) {
        return probePhase1(tracer, probeRoot, ops + i, names[i],
                           Evaluator::preciseConfig(), kScale);
    });
    tracer.end(probeRoot);
    std::vector<bool> isLva;
    for (const SweepPoint &p : canonical)
        isLva.push_back(p.config.mode == lva::MemMode::Lva);
    const Phase1Totals p1 = sumProbes(probes, isLva, precise);
    reportPhase1(report, p1);

    const NameTotals totals = totalsByName(traced.spans);
    const double goldenS = totals.durationOf("eval.golden");
    const double evaluateS = totals.durationOf("eval.evaluate");
    const double pointBusy = totals.durationOf("sweep.point");
    report.add("eval.golden_s", goldenS, "s");
    report.add("eval.golden_builds", static_cast<double>(last.cache.builds),
               "count");
    report.add("eval.golden_hit_ratio",
               static_cast<double>(last.cache.hits) /
                   static_cast<double>(last.cache.hits + last.cache.misses),
               "fraction");
    report.add("eval.evaluate_s", evaluateS, "s");
    report.add("eval.render_s", traced.renderS, "s");
    report.add("eval.export_bytes", static_cast<double>(last.exportBytes),
               "bytes");
    report.add("sweep.parallel_eff",
               pointBusy / (benchJobs() * traced.poolWallS), "fraction");

    // evaluate() = generate + run(ApproxMemory) + its own bookkeeping;
    // split its thread-seconds with the probe's per-layer times.
    const double inside = p1.generateS + p1.kernelS + p1.phase1S;
    const double scale = inside > evaluateS ? evaluateS / inside : 1.0;
    const LedgerSection pool{
        traced.poolWallS,
        {{"eval.golden", goldenS},
         {"workloads", scale * (p1.generateS + p1.kernelS)},
         {"core", scale * p1.phase1S},
         {"eval.evaluate", std::max(0.0, evaluateS - inside)},
         {"sweep", totals.selfOf("sweep.point") +
                       benchJobs() * traced.poolWallS - pointBusy}}};
    const LedgerSection render{traced.renderS,
                               {{"eval.render", traced.renderS}}};
    const LedgerSection rest{
        traced.wallS - traced.poolWallS - traced.renderS,
        {{"sweep", traced.wallS - traced.poolWallS - traced.renderS}}};
    reportLedger(report, {pool, render, rest}, wall);
    if (!opts.spansPath.empty() && !tracer.write(opts.spansPath))
        report.note("warning: could not write spans to " + opts.spansPath);
    return report;
}

} // namespace perfbench
