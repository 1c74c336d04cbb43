#include "eval/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>

#include "eval/stat_report.hh"
#include "sim/machine_config.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

namespace lva {

namespace {

std::unique_ptr<ThreadPool>
makePool(u32 jobs)
{
    return jobs > 1 ? std::make_unique<ThreadPool>(jobs) : nullptr;
}

/** "1"/"" truthiness for the boolean env knobs ("0" and unset = off). */
bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::string(v) != "0";
}

/** Load one machine-config file; exits(2) with the parse error. */
std::shared_ptr<const MachineConfig>
loadMachineOrDie(const std::string &path)
{
    try {
        return std::make_shared<MachineConfig>(machineFromFile(path));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/**
 * JSON rendering of a double that survives our restricted parser:
 * non-finite values (NaN placeholders, infinite confidence windows)
 * travel as quoted strings because bare nan/inf are not JSON.
 */
std::string
numJson(double v)
{
    return std::isfinite(v) ? jsonDouble(v) : jsonQuote(jsonDouble(v));
}

double
numFromJson(const JsonValue &v)
{
    if (v.type == JsonValue::Type::String)
        return std::strtod(v.text.c_str(), nullptr);
    return v.asDouble();
}

StatType
statTypeFromName(const std::string &name)
{
    if (name == "counter")
        return StatType::Counter;
    if (name == "gauge")
        return StatType::Gauge;
    if (name == "histogram")
        return StatType::Histogram;
    throw std::runtime_error("unknown stat type '" + name + "'");
}

/** Fold the sweep-runtime gauges into a completed point's snapshot. */
void
applySweepRuntime(EvalResult &r, u32 attempts)
{
    for (const EvalMetricDef &d : sweepRuntimeDefs()) {
        const double v = std::string(d.path) == "eval.retries.attempts"
                             ? static_cast<double>(attempts)
                             : static_cast<double>(attempts - 1);
        r.stats.setGauge(d.path, v, d.desc, d.unit);
    }
}

/** The honest placeholder a failed point leaves in the result row. */
EvalResult
failedPlaceholder()
{
    EvalResult r;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    r.preciseMpki = r.mpki = r.normMpki = nan;
    r.preciseFetches = r.fetches = r.normFetches = nan;
    r.outputError = r.coverage = nan;
    r.instrVariation = r.instructions = nan;
    r.failed = true;
    applyEvalDerived(r.stats, r); // "eval.*" gauges render as nan
    return r;
}

} // namespace

EvalResult
failedPointPlaceholder()
{
    return failedPlaceholder();
}

SweepOptions
sweepOptionsFromEnv(const std::string &driver)
{
    return sweepOptionsFromCli(driver, 0, nullptr);
}

SweepOptions
sweepOptionsFromCli(const std::string &driver, int argc, char **argv)
{
    SweepOptions opts;
    opts.driver = driver;
    opts.checkpoint = envFlag("LVA_CHECKPOINT");
    opts.resume = envFlag("LVA_RESUME");
    opts.maxAttempts =
        static_cast<u32>(envKnobU64("LVA_RETRIES", 0, 0, 99)) + 1;
    // String-valued config path; validated by the parser it feeds.
    // lva-audit: allow(knob-unvalidated)
    const char *machine = std::getenv("LVA_MACHINE");
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto operand = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs an operand\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--checkpoint") {
            opts.checkpoint = true;
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--retries") {
            // LVA_RETRIES's bounds.
            opts.maxAttempts =
                static_cast<u32>(flagU64(arg.c_str(), operand(), 0, 99)) + 1;
        } else if (arg == "--machine") {
            opts.machine = loadMachineOrDie(operand());
        } else {
            std::fprintf(stderr,
                         "usage: %s [--checkpoint] [--resume] "
                         "[--retries N] [--machine FILE]\n"
                         "  --checkpoint   record completed points in "
                         "a resumable manifest\n"
                         "  --resume       skip points already in the "
                         "manifest (implies --checkpoint)\n"
                         "  --retries N    re-attempt a failed point "
                         "up to N (0..99) times\n"
                         "  --machine FILE run on the lva-machine-v1 "
                         "topology in FILE (docs/topology.md; also "
                         "LVA_MACHINE)\n",
                         driver.c_str());
            std::exit(2);
        }
    }
    // The knob's file is parsed only when no --machine replaced it.
    if (!opts.machine && machine != nullptr && *machine != '\0')
        opts.machine = loadMachineOrDie(machine);
    return opts;
}

const MachineConfig &
sweepMachine(const SweepOptions &opts)
{
    return opts.machine ? *opts.machine : defaultMachine();
}

ApproxMemory::Config
machineBaseLva(const SweepOptions &opts)
{
    // Without a machine this must stay the exact historical object so
    // converted drivers keep byte-identical checkpoints and exports
    // (defaultMachine().phase1Lva() is equal, but equality is a test
    // pin while this identity is by construction).
    return opts.machine ? opts.machine->phase1Lva()
                        : Evaluator::baselineLva();
}

int
reportSweepFailures(const std::vector<PointFailure> &failures,
                    std::size_t total)
{
    for (const PointFailure &f : failures) {
        const char *what = f.label.empty()
                               ? (f.workload.empty() ? "task"
                                                     : f.workload.c_str())
                               : f.label.c_str();
        lva_warn("sweep point %llu (%s) failed after %u attempt(s): %s",
                 static_cast<unsigned long long>(f.index), what,
                 f.attempts, f.error.c_str());
    }
    if (failures.empty())
        return 0;
    lva_warn("%zu of %zu sweep points failed; exported results are "
             "partial (exit 3, see DESIGN.md section 13)",
             failures.size(), total);
    return 3;
}

int
reportSweepFailures(const SweepOutcome &outcome)
{
    return reportSweepFailures(outcome.failures,
                               outcome.results.size());
}

std::string
configKey(const ApproxMemory::Config &cfg)
{
    // Digest input for the checkpoint manifest: renders EVERY Config
    // field. When a field is added to ApproxMemory::Config (or its
    // nested configs) it MUST be appended here, or resumed manifests
    // will alias distinct configurations and restore wrong results.
    auto n = [](u64 v) { return std::to_string(v); };
    auto b = [](bool v) { return std::string(v ? "1" : "0"); };
    const ApproximatorConfig &a = cfg.approx;
    const GhbPrefetcherConfig &p = cfg.prefetch;
    auto approx = [&](const ApproximatorConfig &a) {
        return n(a.tableEntries) + "," + n(a.tableAssoc) + "," +
               n(a.confidenceBits) + "," +
               jsonDouble(a.confidenceWindow) + "," +
               b(a.confidenceForInts) + "," + b(a.confidenceDisabled) +
               "," + n(a.ghbEntries) + "," + n(a.lhbEntries) + "," +
               n(a.tagBits) + "," + n(a.valueDelay) + "," +
               n(a.approxDegree) + "," + estimatorName(a.estimator) +
               "," + b(a.proportionalConfidence) + "," +
               n(a.mantissaDropBits);
    };
    std::string k;
    k += "threads=" + n(cfg.threads);
    k += ";cache=" + n(cfg.cache.sizeBytes) + "/" + n(cfg.cache.assoc) +
         "/" + n(cfg.cache.blockBytes);
    k += ";mode=" + std::string(memModeName(cfg.mode));
    k += ";approx=" + approx(a);
    k += ";prefetch=" + n(p.ghbEntries) + "," + n(p.indexEntries) +
         "," + n(p.degree) + "," + n(p.blockBytes) + "," +
         n(p.maxChainWalk);
    // Appended only when present so every homogeneous (pre-machine)
    // config keeps its historical key and manifest digest.
    if (!cfg.threadApprox.empty()) {
        k += ";threadApprox=";
        for (std::size_t i = 0; i < cfg.threadApprox.size(); ++i) {
            if (i > 0)
                k += "|";
            k += approx(cfg.threadApprox[i]);
        }
    }
    return k;
}

std::string
sweepPointDigest(const SweepPoint &point)
{
    std::string data;
    data += point.label;
    data.push_back('\0');
    data += point.workload;
    data.push_back('\0');
    data += configKey(point.config);
    return hexU64(fnv1a64(data));
}

std::string
sweepContextKey(const Evaluator &eval)
{
    return std::string(manifestSchema()) + ";stats=" +
           statsJsonSchema() + ";seeds=" + std::to_string(eval.seeds()) +
           ";scale=" + jsonDouble(eval.scale());
}

std::string
sweepContextKey(const Evaluator &eval, const SweepOptions &opts)
{
    std::string key = sweepContextKey(eval);
    if (opts.machine)
        key += ";machine=" +
               hexU64(fnv1a64(renderMachineJson(*opts.machine)));
    return key;
}

const std::vector<EvalMetricDef> &
sweepRuntimeDefs()
{
    static const std::vector<EvalMetricDef> defs = {
        {"eval.failures.transient",
         "failed attempts recovered by retry before success",
         "attempts"},
        {"eval.retries.attempts",
         "evaluation attempts this point consumed (1 = first try)",
         "attempts"},
    };
    return defs;
}

SweepRunner::SweepRunner(Evaluator &eval, u32 jobs)
    : eval_(&eval),
      jobs_(jobs ? jobs : ThreadPool::defaultJobs()),
      pool_(makePool(jobs_))
{
}

SweepRunner::SweepRunner(u32 jobs)
    : eval_(nullptr),
      jobs_(jobs ? jobs : ThreadPool::defaultJobs()),
      pool_(makePool(jobs_))
{
}

void
SweepRunner::backoff(u32 attempt)
{
    constexpr u64 kBaseMs = 10;
    constexpr u64 kCapMs = 1000;
    const u32 shift = attempt > 20 ? 20 : attempt - 1;
    const u64 ms = std::min(kBaseMs << shift, kCapMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::vector<u64>
SweepRunner::allIndices(u64 count)
{
    std::vector<u64> indices(count);
    for (u64 i = 0; i < count; ++i)
        indices[i] = i;
    return indices;
}

SweepOutcome
SweepRunner::runChecked(const std::vector<SweepPoint> &points,
                        const SweepOptions &opts)
{
    lva_assert(eval_ != nullptr,
               "SweepRunner::runChecked needs an Evaluator; use the "
               "Evaluator constructor");
    SweepOptions eff = opts;
    if (eff.resume) // resuming without recording would lose progress
        eff.checkpoint = true;
    if (eff.checkpoint && eff.driver.empty()) {
        lva_warn("sweep: checkpoint/resume requested without a driver "
                 "name; disabled");
        eff.checkpoint = eff.resume = false;
    }

    const u64 n = points.size();
    std::vector<std::string> digests(n);
    for (u64 i = 0; i < n; ++i)
        digests[i] = sweepPointDigest(points[i]);

    std::unique_ptr<CheckpointManifest> manifest;
    if (eff.checkpoint) {
        const std::string path =
            resultsPath("checkpoints/" + eff.driver + ".jsonl");
        const std::filesystem::path p(path);
        if (p.has_parent_path())
            std::filesystem::create_directories(p.parent_path());
        manifest = std::make_unique<CheckpointManifest>(
            path, eff.driver, sweepContextKey(*eval_, eff), eff.resume);
    }

    SweepOutcome out;
    out.results.resize(n);
    std::vector<u64> pending;
    pending.reserve(n);
    for (u64 i = 0; i < n; ++i) {
        const std::string *payload =
            manifest && eff.resume ? manifest->find(digests[i]) : nullptr;
        if (payload) {
            try {
                out.results[i] = decodeEvalResult(parseJson(*payload));
                ++out.resumed;
                continue;
            } catch (const std::exception &e) {
                lva_warn("manifest record for point %llu unusable "
                         "(%s); re-running it",
                         static_cast<unsigned long long>(i), e.what());
            }
        }
        pending.push_back(i);
    }
    if (out.resumed > 0)
        lva_inform("%s: resumed %llu of %llu points from %s",
                   eff.driver.c_str(),
                   static_cast<unsigned long long>(out.resumed),
                   static_cast<unsigned long long>(n),
                   manifest->path().c_str());

    // The whole per-point story — isolation, retry, runtime gauges,
    // durable checkpoint append — runs inside the worker task, so
    // completed points hit the manifest in completion order and
    // survive a kill even while the collector is blocked elsewhere.
    Evaluator &eval = *eval_;
    auto work = [&](u64 i) {
        const SweepPoint &p = points[i];
        Tried<EvalResult> tried = attemptTask<EvalResult>(
            eff, i,
            [&eval, &p] { return eval.evaluate(p.workload, p.config); });
        if (tried.value) {
            applySweepRuntime(*tried.value, tried.attempts);
            if (manifest)
                manifest->append(digests[i],
                                 encodeEvalResult(*tried.value));
        } else {
            tried.failure->label = p.label;
            tried.failure->workload = p.workload;
        }
        return tried;
    };

    // Golden tasks ahead of the points (see runChecked in sweep.hh):
    // submitted workload-major, a workload's first points would
    // otherwise park on its single-flight build while workers idle.
    std::vector<std::future<void>> goldens;
    JoinAll<void> join_goldens{goldens};
    if (pool_ && eval.goldenCacheCounters().capacity == 0) {
        std::set<std::string> queued;
        for (const u64 i : pending) {
            const SweepPoint &p = points[i];
            ApproxMemory::Config precise =
                Evaluator::preciseBaseFor(p.config);
            if (!queued.insert(p.workload + '|' + configKey(precise))
                     .second)
                continue;
            goldens.push_back(pool_->submit(
                [&eval, name = p.workload, precise = std::move(precise)] {
                    try {
                        ScopedFailureIsolation isolate;
                        (void)eval.evaluatePrecise(name, precise);
                    } catch (...) {
                        // The point's own evaluate() rebuilds it.
                    }
                }));
        }
    }

    collect(pending, work, [&](u64 i, Tried<EvalResult> &&tried) {
        if (tried.failure) {
            out.results[i] = failedPlaceholder();
            out.failures.push_back(std::move(*tried.failure));
        } else {
            out.results[i] = std::move(*tried.value);
        }
    });
    return out;
}

std::string
encodeEvalResult(const EvalResult &r)
{
    // One line of JSON (the manifest format is line-oriented). Doubles
    // travel as %.17g and u64 counters as exact integers so a decoded
    // result re-renders byte-identically through the stats export.
    std::string out = "{\"scalars\":{";
    out += "\"preciseMpki\":" + numJson(r.preciseMpki);
    out += ",\"mpki\":" + numJson(r.mpki);
    out += ",\"normMpki\":" + numJson(r.normMpki);
    out += ",\"preciseFetches\":" + numJson(r.preciseFetches);
    out += ",\"fetches\":" + numJson(r.fetches);
    out += ",\"normFetches\":" + numJson(r.normFetches);
    out += ",\"outputError\":" + numJson(r.outputError);
    out += ",\"coverage\":" + numJson(r.coverage);
    out += ",\"instrVariation\":" + numJson(r.instrVariation);
    out += ",\"instructions\":" + numJson(r.instructions);
    out += "},\"stats\":[";
    bool first = true;
    for (const SnapEntry &e : r.stats.entries) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"path\":" + jsonQuote(e.path);
        out += ",\"type\":\"" + std::string(statTypeName(e.type)) + "\"";
        if (!e.desc.empty())
            out += ",\"desc\":" + jsonQuote(e.desc);
        if (!e.unit.empty())
            out += ",\"unit\":" + jsonQuote(e.unit);
        switch (e.type) {
          case StatType::Counter:
            out += ",\"count\":" + std::to_string(e.count);
            break;
          case StatType::Gauge:
            out += ",\"gauge\":" + numJson(e.gauge);
            break;
          case StatType::Histogram:
            out += ",\"lo\":" + numJson(e.histLo);
            out += ",\"hi\":" + numJson(e.histHi);
            out += ",\"total\":" + std::to_string(e.histTotal);
            out += ",\"underflow\":" + std::to_string(e.histUnderflow);
            out += ",\"overflow\":" + std::to_string(e.histOverflow);
            out += ",\"buckets\":[";
            for (std::size_t b = 0; b < e.histBuckets.size(); ++b) {
                if (b > 0)
                    out += ",";
                out += std::to_string(e.histBuckets[b]);
            }
            out += "]";
            break;
        }
        out += "}";
    }
    out += "]}";
    return out;
}

EvalResult
decodeEvalResult(const JsonValue &payload)
{
    EvalResult r;
    const JsonValue &scalars = payload.at("scalars");
    r.preciseMpki = numFromJson(scalars.at("preciseMpki"));
    r.mpki = numFromJson(scalars.at("mpki"));
    r.normMpki = numFromJson(scalars.at("normMpki"));
    r.preciseFetches = numFromJson(scalars.at("preciseFetches"));
    r.fetches = numFromJson(scalars.at("fetches"));
    r.normFetches = numFromJson(scalars.at("normFetches"));
    r.outputError = numFromJson(scalars.at("outputError"));
    r.coverage = numFromJson(scalars.at("coverage"));
    r.instrVariation = numFromJson(scalars.at("instrVariation"));
    r.instructions = numFromJson(scalars.at("instructions"));
    const JsonValue &stats = payload.at("stats");
    if (!stats.isArray())
        throw std::runtime_error("eval payload: 'stats' is not an array");
    r.stats.entries.reserve(stats.items.size());
    for (const JsonValue &item : stats.items) {
        SnapEntry e;
        e.path = item.at("path").asString();
        e.type = statTypeFromName(item.at("type").asString());
        if (const JsonValue *desc = item.find("desc"))
            e.desc = desc->asString();
        if (const JsonValue *unit = item.find("unit"))
            e.unit = unit->asString();
        switch (e.type) {
          case StatType::Counter:
            e.count = item.at("count").asU64();
            break;
          case StatType::Gauge:
            e.gauge = numFromJson(item.at("gauge"));
            break;
          case StatType::Histogram: {
            e.histLo = numFromJson(item.at("lo"));
            e.histHi = numFromJson(item.at("hi"));
            e.histTotal = item.at("total").asU64();
            e.histUnderflow = item.at("underflow").asU64();
            e.histOverflow = item.at("overflow").asU64();
            const JsonValue &buckets = item.at("buckets");
            if (!buckets.isArray())
                throw std::runtime_error(
                    "eval payload: 'buckets' is not an array");
            e.histBuckets.reserve(buckets.items.size());
            for (const JsonValue &bucket : buckets.items)
                e.histBuckets.push_back(bucket.asU64());
            break;
          }
        }
        r.stats.entries.push_back(std::move(e));
    }
    return r;
}

namespace {

/**
 * Completed points only: a failed point's placeholder snapshot would
 * export NaN gauges as real data, so failures are listed in the
 * structured "failures" section instead.
 */
std::vector<NamedSnapshot>
namedSnapshots(const std::vector<SweepPoint> &points,
               const SweepOutcome &outcome)
{
    lva_assert(points.size() == outcome.results.size(),
               "point/result count mismatch: %zu vs %zu",
               points.size(), outcome.results.size());
    std::vector<NamedSnapshot> snaps;
    snaps.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (outcome.results[i].failed)
            continue;
        snaps.push_back({points[i].label, points[i].workload,
                         outcome.results[i].stats});
    }
    return snaps;
}

} // namespace

std::string
renderSweepStats(const std::string &driver,
                 const std::vector<SweepPoint> &points,
                 const SweepOutcome &outcome)
{
    return renderStatsJson(driver, namedSnapshots(points, outcome),
                           outcome.failures);
}

std::string
exportSweepStats(const std::string &driver,
                 const std::vector<SweepPoint> &points,
                 const SweepOutcome &outcome)
{
    return writeStatsJson(driver, namedSnapshots(points, outcome),
                          outcome.failures);
}

} // namespace lva
