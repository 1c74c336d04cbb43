#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "util/checkpoint.hh"
#include "util/stats_json.hh"
#include "workloads/workload.hh"

namespace perfbench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    // Nearest rank: the ceil(p*n)-th smallest sample (1-based).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) - 1e-9));
    return n - std::max<std::size_t>(rank, 1);
}

std::optional<double>
percentile(std::vector<double> v, double p)
{
    if (v.empty() || samplesBeyond(v.size(), p) < 10)
        return std::nullopt;
    std::sort(v.begin(), v.end());
    return v[v.size() - 1 - samplesBeyond(v.size(), p)];
}

bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5"; // reset the resident-set high-water mark
    clear.flush();
    return static_cast<bool>(clear);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 16, '\n');
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
repeatWithin(double budget, const std::function<void()> &unit)
{
    const double start = nowSec();
    std::vector<double> reps;
    do {
        const double t0 = nowSec();
        unit();
        reps.push_back(nowSec() - t0);
    } while (nowSec() - start + median(reps) <= budget);
}

long
Tracer::begin(const std::string &name, long parent, u64 request)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start = nowSec();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<long>(spans_.size() - 1);
}

void
Tracer::end(long id)
{
    if (id < 0)
        return;
    const double t = nowSec();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":" << lva::jsonQuote(s.name)
            << ",\"start\":" << lva::jsonDouble(s.start)
            << ",\"end\":" << lva::jsonDouble(s.end)
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}\n";
    }
    return static_cast<bool>(out.flush());
}

namespace {

/** Child span indices per span. */
std::vector<std::vector<std::size_t>>
childLists(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0 &&
            static_cast<std::size_t>(spans[i].parent) < spans.size())
            children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    return children;
}

double
selfTimeWith(const std::vector<Span> &spans,
             const std::vector<std::size_t> &children, std::size_t id)
{
    const Span &s = spans[id];
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children) {
        const double a = std::max(spans[c].start, s.start);
        const double b = std::min(spans[c].end, s.end);
        if (b > a)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, curA = 0.0, curB = 0.0;
    bool open = false;
    for (const auto &[a, b] : iv) {
        if (open && a <= curB) {
            curB = std::max(curB, b);
            continue;
        }
        if (open)
            covered += curB - curA;
        curA = a;
        curB = b;
        open = true;
    }
    if (open)
        covered += curB - curA;
    return (s.end - s.start) - covered;
}

} // namespace

double
selfTime(const std::vector<Span> &spans, std::size_t id)
{
    return selfTimeWith(spans, childLists(spans)[id], id);
}

NameTotals
totalsByName(const std::vector<Span> &spans)
{
    const auto children = childLists(spans);
    NameTotals t;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        t.duration[spans[i].name] += spans[i].end - spans[i].start;
        t.self[spans[i].name] += selfTimeWith(spans, children[i], i);
    }
    return t;
}

double
NameTotals::durationOf(const std::string &name) const
{
    const auto it = duration.find(name);
    return it == duration.end() ? 0.0 : it->second;
}

double
NameTotals::selfOf(const std::string &name) const
{
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::note(const std::string &line)
{
    notes.push_back(line);
}

void
Report::noteSeries(const std::string &what, const std::vector<double> &values)
{
    std::string line = what + ":";
    char buf[32];
    for (double v : values) {
        std::snprintf(buf, sizeof(buf), " %.4f", v);
        line += buf;
    }
    notes.push_back(line);
}

void
Repetitions::add(double wall, double setup, double instructions, double peak)
{
    walls.push_back(wall);
    setups.push_back(setup);
    minstrRates.push_back(instructions / 1e6 / wall);
    peaks.push_back(peak);
}

double
reportEndToEnd(Report &report, const Repetitions &reps)
{
    const double wall = median(reps.walls);
    report.add("wall_s", wall, "s");
    report.add("setup_s", median(reps.setups), "s");
    report.add("sim_minstr_per_s", median(reps.minstrRates), "Minstr/s");
    report.add("peak_rss_mb", median(reps.peaks), "MB");
    report.add("error_rate",
               static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
               "fraction");
    report.noteSeries("wall_s per repetition", reps.walls);
    return wall;
}

bool
countCheckedUnit(Report &report, const std::string &what, u64 ops,
                 u64 opFailures, u64 actual, u64 expected)
{
    report.attempted += ops;
    const bool match = actual == expected;
    if (!match) {
        report.correct = false;
        report.note("output check FAILED for " + what + ": digest " +
                    lva::hexU64(actual) + ", expected " +
                    lva::hexU64(expected));
    }
    report.failed += match ? std::min(opFailures, ops) : ops;
    if (opFailures > 0)
        report.correct = false;
    return match;
}

void
reportLedger(Report &report, const std::vector<LedgerSection> &sections,
             double untracedWall)
{
    // Every layer the benchmark knows, so each workload reports the
    // same share names (0 where it does not exercise a layer).
    static const char *const kLayers[] = {
        "workloads", "core", "eval.golden", "eval.evaluate", "eval.render",
        "sweep", "cpu", "sim", "net", "service",
    };
    std::map<std::string, double> threadSecs, attributed;
    double tracedWall = 0.0;
    for (const LedgerSection &s : sections) {
        double total = 0.0;
        for (const auto &[layer, secs] : s.layers)
            total += std::max(0.0, secs);
        for (const auto &[layer, secs] : s.layers) {
            threadSecs[layer] += std::max(0.0, secs);
            if (total > 0.0)
                attributed[layer] += s.wall * std::max(0.0, secs) / total;
        }
        tracedWall += s.wall;
    }
    char line[256];
    report.note("layer ledger of the traced unit (each section's wall "
                "time split by its layers' thread-seconds):");
    double attributedSum = 0.0;
    for (const char *layer : kLayers) {
        const double a = attributed[layer];
        report.add(std::string(layer) + ".share",
                   tracedWall > 0.0 ? a / tracedWall : 0.0, "fraction");
        if (a <= 0.0)
            continue;
        attributedSum += a;
        std::snprintf(line, sizeof(line),
                      "  %-14s %10.4f thread-s  attributed %8.4f s  "
                      "share %6.2f%%",
                      layer, threadSecs[layer], a, 100.0 * a / tracedWall);
        report.note(line);
    }
    std::snprintf(line, sizeof(line),
                  "  sum of attributed %.4f s = traced wall_s %.4f s; "
                  "untraced wall_s %.4f s; tracing overhead %+.4f s",
                  attributedSum, tracedWall, untracedWall,
                  tracedWall - untracedWall);
    report.note(line);
    report.add("trace.overhead_s", tracedWall - untracedWall, "s");
    report.add("wall_s.traced", tracedWall, "s");
}

Phase1Probe
probePhase1(Tracer &tracer, long parent, u64 request,
            const std::string &workload, const lva::ApproxMemory::Config &cfg,
            double scale)
{
    lva::WorkloadParams params;
    params.seed = 1;
    params.scale = scale;
    params.threads = cfg.threads;
    const lva::WorkloadFactory factory = lva::findWorkloadFactory(workload);
    Phase1Probe p;

    auto timed = [&](const char *name, const std::function<void()> &fn) {
        ScopedSpan span(tracer, name, parent, request);
        const double t0 = nowSec();
        fn();
        return nowSec() - t0;
    };

    auto kernelRun = factory(params);
    p.generateS = timed("workloads.generate", [&] { kernelRun->generate(); });
    lva::NullBackend null;
    p.kernelS = timed("workloads.kernel", [&] { kernelRun->run(null); });

    auto approxRun = factory(params);
    approxRun->generate();
    lva::ApproxMemory mem(cfg);
    p.approxS = timed("core.run", [&] { approxRun->run(mem); });
    p.metrics = mem.metrics();
    return p;
}

Phase1Totals
sumProbes(const std::vector<Phase1Probe> &probes,
          const std::vector<bool> &isLva,
          const std::vector<Phase1Probe> &precise)
{
    Phase1Totals t;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const Phase1Probe &p = probes[i];
        const double phase1 = std::max(0.0, p.approxS - p.kernelS);
        t.generateS += p.generateS;
        t.kernelS += p.kernelS;
        t.phase1S += phase1;
        t.loads += p.metrics.loads;
        t.misses += p.metrics.loadMisses;
        t.approximable += p.metrics.approximableLoads;
        t.approximated += p.metrics.approxLoads;
        if (isLva[i]) {
            t.lvaPhase1S += phase1;
            t.lvaLoads += p.metrics.loads;
        }
    }
    for (const Phase1Probe &p : precise) {
        t.precisePhase1S += std::max(0.0, p.approxS - p.kernelS);
        t.preciseLoads += p.metrics.loads;
    }
    return t;
}

void
reportPhase1(Report &report, const Phase1Totals &t)
{
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    report.add("workloads.generate_s", t.generateS, "s");
    report.add("workloads.kernel_s", t.kernelS, "s");
    report.add("core.phase1_s", t.phase1S, "s");
    report.add("core.loads", static_cast<double>(t.loads), "count");
    report.add("core.ns_per_load",
               1e9 * ratio(t.phase1S, static_cast<double>(t.loads)), "ns");
    const double lvaNs =
        1e9 * ratio(t.lvaPhase1S, static_cast<double>(t.lvaLoads));
    const double preciseNs =
        1e9 * ratio(t.precisePhase1S, static_cast<double>(t.preciseLoads));
    report.add("core.ns_per_load.lva", lvaNs, "ns");
    report.add("core.ns_per_load.precise", preciseNs, "ns");
    report.add("core.ns_per_load.lva_vs_precise", ratio(lvaNs, preciseNs),
               "ratio");
    report.add("mem.l1_miss_rate",
               ratio(static_cast<double>(t.misses),
                     static_cast<double>(t.loads)),
               "fraction");
    report.add("core.coverage",
               ratio(static_cast<double>(t.approximated),
                     static_cast<double>(t.approximable)),
               "fraction");
}

u32
benchJobs()
{
    const u32 hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : std::min<u32>(4, hw);
}

} // namespace perfbench
