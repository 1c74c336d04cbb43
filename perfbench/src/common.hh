/**
 * @file
 * Shared pieces of the repository benchmark: statistics helpers, the
 * in-memory span tracer, the run report, and the phase-1 layer probe
 * used by the traced runs.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/approx_memory.hh"
#include "util/types.hh"

namespace perfbench {

using lva::u32;
using lva::u64;

/** Seconds on the monotonic clock (arbitrary fixed origin). */
double nowSec();

/** Median of @p v (mean of the middle two for an even count). */
double median(std::vector<double> v);

/** Samples strictly beyond the nearest-rank @p p quantile of @p n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * Nearest-rank @p p quantile (0 < p < 1) of @p v, or nullopt when
 * fewer than ten samples lie beyond it: a tail figure resting on a
 * handful of samples is noise, so it is refused rather than reported.
 */
std::optional<double> percentile(std::vector<double> v, double p);

/**
 * Reset this process's resident-set high-water mark, so peakRssMb()
 * then covers only what follows; false where the kernel cannot.
 */
bool resetPeakRss();

/** Resident-set high-water mark of this process, in MB. */
double peakRssMb();

/**
 * Run @p unit (which returns nothing) at least once, and again while
 * another repetition of median length is projected to end within
 * @p budget seconds of the first start.
 */
void repeatWithin(double budget, const std::function<void()> &unit);

/** One recorded interval of work at a layer boundary. */
struct Span
{
    std::string name;  ///< "<layer>.<call>", e.g. "sim.replay"
    double start = 0.0;
    double end = 0.0;
    long parent = -1;  ///< index of the causing span, -1 for a root
    u64 request = 0;   ///< op the span belongs to (point, task, request)
};

/**
 * Spans held in memory for the whole run and written out at its end.
 * Thread-safe: pool workers and client threads record concurrently.
 * A disabled tracer records nothing (the untraced measurement path).
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id, or -1 when disabled. */
    long begin(const std::string &name, long parent, u64 request = 0);

    /** Close span @p id (no-op for -1). */
    void end(long id);

    std::vector<Span> spans() const;

    /** Write every span as one JSON object per line; false on error. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

/** A span open for the lifetime of the object. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, long parent,
               u64 request = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, request))
    {}
    ~ScopedSpan() { tracer_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    long id() const { return id_; }

  private:
    Tracer &tracer_;
    long id_;
};

/**
 * Self time of span @p id: its duration minus the part of its interval
 * covered by its children (overlapping children counted once).
 */
double selfTime(const std::vector<Span> &spans, std::size_t id);

/** Summed duration and summed self time per span name. */
struct NameTotals
{
    std::map<std::string, double> duration;
    std::map<std::string, double> self;

    /** Summed duration of spans named @p name (0 when there are none). */
    double durationOf(const std::string &name) const;

    /** Summed self time of spans named @p name (0 when there are none). */
    double selfOf(const std::string &name) const;
};
NameTotals totalsByName(const std::vector<Span> &spans);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run prints. */
struct Report
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void add(const std::string &name, double value, const std::string &unit);
    void note(const std::string &line);

    /** A note listing @p values (e.g. every repetition's wall time). */
    void noteSeries(const std::string &what,
                    const std::vector<double> &values);
};

/** Per-repetition measurements of one run. */
struct Repetitions
{
    std::vector<double> walls, setups, minstrRates, peaks;

    /** Record one repetition (@p instructions simulated in @p wall). */
    void add(double wall, double setup, double instructions, double peak);
};

/**
 * Add the end-to-end metrics every workload reports — medians of
 * @p reps plus error_rate — and list every repetition's wall time.
 * Returns the median wall time.
 */
double reportEndToEnd(Report &report, const Repetitions &reps);

/**
 * Count one checked unit of @p ops ops: @p opFailures of them failed on
 * their own, and when @p actual differs from @p expected the unit's
 * whole output is wrong, so every op counts as failed. Returns whether
 * the digest matched.
 */
bool countCheckedUnit(Report &report, const std::string &what, u64 ops,
                      u64 opFailures, u64 actual, u64 expected);

/**
 * One consecutive stretch of a traced unit: its wall time and the
 * thread-seconds each layer spent in it (several threads in a parallel
 * stretch, one in a serial stretch).
 */
struct LedgerSection
{
    double wall = 0.0;
    std::vector<std::pair<std::string, double>> layers;
};

/**
 * The layer ledger of one traced unit: each section's wall time is
 * split across its layers in proportion to their thread-seconds, so the
 * attributed seconds add up to the traced wall time (the sum of the
 * section walls). Adds "<layer>.share" for every known layer, the
 * tracing overhead (traced minus @p untracedWall) and the traced wall.
 */
void reportLedger(Report &report, const std::vector<LedgerSection> &sections,
                  double untracedWall);

/** Phase-1 probe of one (workload, seed, config): each layer alone. */
struct Phase1Probe
{
    double generateS = 0.0; ///< Workload::generate
    double kernelS = 0.0;   ///< Workload::run on a NullBackend
    double approxS = 0.0;   ///< Workload::run on an ApproxMemory
    lva::MemMetrics metrics;
};

/**
 * Generate the workload, time its kernel alone on a NullBackend, then
 * time it on an ApproxMemory under @p cfg (a fresh, identically
 * generated instance each time), recording spans under @p parent.
 */
Phase1Probe probePhase1(Tracer &tracer, long parent, u64 request,
                        const std::string &workload,
                        const lva::ApproxMemory::Config &cfg, double scale);

/** Phase-1 per-layer metrics from probes; @p precise are precise-mode
 *  probes of the same workloads (the ns/load ratio's base). */
struct Phase1Totals
{
    double generateS = 0.0, kernelS = 0.0, phase1S = 0.0;
    double lvaPhase1S = 0.0, precisePhase1S = 0.0;
    u64 loads = 0, lvaLoads = 0, preciseLoads = 0;
    u64 misses = 0, approximable = 0, approximated = 0;
};
Phase1Totals sumProbes(const std::vector<Phase1Probe> &probes,
                       const std::vector<bool> &isLva,
                       const std::vector<Phase1Probe> &precise);
void reportPhase1(Report &report, const Phase1Totals &t);

/** Minimum of 4 and the host's hardware threads. */
u32 benchJobs();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
