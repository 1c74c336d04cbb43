/**
 * @file
 * Hot-path loads/sec driver: the repo's end-to-end perf trajectory.
 *
 * Replays a fixed, precomputed synthetic access stream (8 load sites,
 * strided walks over working sets ~4x the pinned L1, seeded
 * random-walk values, a sprinkle of precise loads) through
 * ApproxMemory and reports steady-state loads per second for each
 * scenario.  The stream is generated outside the timed region so the
 * numbers measure the memory system — L1 lookup, context hash,
 * estimate, train — and not the driver.
 *
 * Output lands in results/hotpath_loads.json (schema
 * "lva-hotpath-v1"; see docs/performance.md) and scripts/run_all.sh
 * copies it to the repo-root BENCH_hotpath.json, so every PR extends
 * the trajectory.  Wall-clock numbers vary by host, but each
 * scenario's "value_digest" is a deterministic fold of every value
 * the memory system returned, so refactors can diff digests against a
 * baseline run.
 *
 * prefetch_scalar runs the same stream through the GHB prefetcher
 * baseline. Its values are the precise ones, so its digest also folds
 * the L1 fill count and the prefetcher's counters. lvp_scalar runs it
 * through the idealized load value predictor (the Fig. 4 baseline) on
 * lva_scalar's approximator configuration; its values are precise
 * too, so its digest also folds the predictor's counters.
 *
 * A fifth scenario, fs_replay, covers phase 2: fluidanimate is
 * recorded once at a small fixed scale and its precise baseline is
 * replayed through the full-system timing model. Its "loads" are trace
 * events, and its digest folds the replay's cycles, instructions, L2
 * accesses and flit hops.
 *
 * LVA_HOTPATH_LOADS scales the timed loop of the four phase-1
 * scenarios (default 4,000,000 loads per scenario; CI uses a small
 * value for a schema smoke test). LVA_HOTPATH_REPS repeats each
 * scenario (default 3) and reports the fastest repetition — the
 * standard noise-robust estimator on busy hosts; every repetition must
 * produce the identical value_digest.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/logging.hh"

#include "core/approx_memory.hh"
#include "cpu/trace.hh"
#include "sim/full_system.hh"
#include "util/bench_timer.hh"
#include "util/checkpoint.hh"
#include "util/env_knob.hh"
#include "util/random.hh"
#include "util/results_dir.hh"
#include "workloads/workload.hh"

namespace lva {
namespace {

/** One prebuilt access: everything ApproxMemory::load consumes. */
struct Access
{
    ThreadId tid;
    LoadSiteId pc;
    Addr addr;
    Value precise;
    bool approximable;
};

/** Length of the replayed stream (power of two for cheap wrap). */
constexpr u32 kStreamLen = 1u << 16;

constexpr u64 kDefaultLoads = 4'000'000;
constexpr u64 kWarmupLoads = 1u << 18;

u64
timedLoads()
{
    return envKnobU64("LVA_HOTPATH_LOADS", kDefaultLoads, 1,
                      u64(1) << 40);
}

u32
repetitions()
{
    return static_cast<u32>(envKnobU64("LVA_HOTPATH_REPS", 3, 1, 64));
}

/**
 * Build the fixed stream: per site, a strided walk with occasional
 * seeded jumps over a 128 KiB region (the pinned L1 is 32 KiB, so
 * steady state sees a realistic hit/miss mix), values random-walking
 * so AVERAGE estimates are close but never exact.
 */
std::vector<Access>
buildStream(u32 threads)
{
    constexpr u32 kSites = 8;
    constexpr Addr kRegionBytes = 128 * 1024;
    constexpr Addr kStride = 72; // > one line, not line-aligned

    Rng rng(0x0407'0a7bULL);
    std::vector<Addr> offset(kSites, 0);
    std::vector<double> walk(kSites, 100.0);

    std::vector<Access> stream;
    stream.reserve(kStreamLen);
    for (u32 i = 0; i < kStreamLen; ++i) {
        const u32 site = static_cast<u32>(rng.below(kSites));
        Access a;
        a.tid = static_cast<ThreadId>(site % threads);
        a.pc = 0x400000 + 4 * site;
        if (rng.below(32) == 0) // occasional pointer-chase jump
            offset[site] = rng.below(kRegionBytes);
        a.addr = 0x1000'0000 + static_cast<Addr>(site) * 0x40000 +
                 offset[site];
        offset[site] = (offset[site] + kStride) % kRegionBytes;

        walk[site] +=
            (static_cast<double>(rng.below(2001)) - 1000.0) / 997.0;
        a.precise = site % 2 == 0
                        ? Value::fromDouble(walk[site])
                        : Value::fromInt(static_cast<i64>(walk[site]));
        a.approximable = rng.below(16) != 0; // 1/16 precise loads
        stream.push_back(a);
    }
    return stream;
}

/** Cheap deterministic word fold (FNV-style, word at a time). */
inline u64
foldWord(u64 digest, u64 word)
{
    return (digest ^ word) * 0x100000001b3ULL;
}

struct ScenarioResult
{
    std::string name;
    u64 loads = 0;
    double seconds = 0.0;
    std::string valueDigest;

    double
    loadsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(loads) / seconds
                             : 0.0;
    }
};

/**
 * Fold repetition @p r of a scenario into @p out: every repetition
 * must produce the same digest, and the fastest one is reported.
 */
void
recordRepetition(ScenarioResult &out, u32 r, u64 digest, double secs)
{
    const std::string hex = hexU64(digest);
    if (r == 0)
        out.valueDigest = hex;
    else
        lva_assert(hex == out.valueDigest,
                   "%s: digest drift across repetitions (%s vs %s)",
                   out.name.c_str(), hex.c_str(),
                   out.valueDigest.c_str());
    if (r == 0 || secs < out.seconds)
        out.seconds = secs;
}

/**
 * Replay @p n loads, one load() call each, and
 * fold every returned value into the digest.
 */
u64
replayScalar(MemoryBackend &mem, const std::vector<Access> &stream,
             u64 n, u64 digest)
{
    const u32 mask = kStreamLen - 1;
    for (u64 i = 0; i < n; ++i) {
        const Access &a = stream[static_cast<u32>(i) & mask];
        const Value v = mem.load(a.tid, a.pc, a.addr, a.precise,
                                 a.approximable);
        digest = foldWord(digest, v.bits());
    }
    return digest;
}

/**
 * Fold what a prefetch run does besides returning values: the L1
 * fills and every lane's prefetcher counters. Prefetch mode returns
 * precise values, so its value fold alone would repeat
 * precise_scalar's digest.
 */
u64
foldPrefetchCounters(const ApproxMemory &mem, u64 digest)
{
    digest = foldWord(digest, mem.metrics().fetches);
    for (ThreadId t = 0; t < mem.config().threads; ++t) {
        const PrefetcherStats &s = mem.prefetcherFor(t).stats();
        digest = foldWord(digest, s.misses.value());
        digest = foldWord(digest, s.issued.value());
        digest = foldWord(digest, s.deltaPredicts.value());
        digest = foldWord(digest, s.nextLine.value());
    }
    return digest;
}

/**
 * As foldPrefetchCounters, for the idealized LVP: an oracle-correct
 * prediction returns the precise value, so only the predictor's
 * counters tell an LVP run from a precise one.
 */
u64
foldLvpCounters(const ApproxMemory &mem, u64 digest)
{
    for (ThreadId t = 0; t < mem.config().threads; ++t) {
        const LvpStats &s = mem.lvpFor(t).stats();
        digest = foldWord(digest, s.lookups.value());
        digest = foldWord(digest, s.correct.value());
        digest = foldWord(digest, s.incorrect.value());
        digest = foldWord(digest, s.cold.value());
    }
    return digest;
}

ScenarioResult
runScenario(const std::string &name, const ApproxMemory::Config &cfg,
            const std::vector<Access> &stream, u64 n, u32 reps)
{
    ScenarioResult out;
    out.name = name;
    out.loads = n;

    for (u32 r = 0; r < reps; ++r) {
        // Fresh memory system per repetition: identical initial
        // state, so every repetition must produce the same digest.
        ApproxMemory mem(cfg);
        MemoryBackend &backend = mem; // the workload-facing boundary
        replayScalar(backend, stream, kWarmupLoads, 0);

        BenchTimer timer("hotpath_loads/" + name);
        u64 digest =
            replayScalar(backend, stream, n, 0xcbf29ce484222325ULL);
        const double secs = timer.seconds();
        mem.finish();
        if (cfg.mode == MemMode::Prefetch)
            digest = foldPrefetchCounters(mem, digest);
        else if (cfg.mode == MemMode::Lvp)
            digest = foldLvpCounters(mem, digest);

        recordRepetition(out, r, digest, secs);
    }
    return out;
}

/** Working-set scale of the fs_replay recording (~2.4M events). */
constexpr double kFsScale = 0.25;

/** Fold every double's bit pattern, so any timing drift shows. */
inline u64
foldDouble(u64 digest, double v)
{
    u64 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return foldWord(digest, bits);
}

/**
 * Record fluidanimate once (outside the timed region), then replay the
 * precise baseline @p reps times, timing run() alone.
 */
ScenarioResult
runFsReplay(u32 reps)
{
    WorkloadParams params;
    params.scale = kFsScale;
    auto workload = makeWorkload("fluidanimate", params);
    workload->generate();
    TraceRecorder recorder(params.threads);
    workload->run(recorder);

    ScenarioResult out;
    out.name = "fs_replay";
    out.loads = recorder.totalEvents();
    for (u32 r = 0; r < reps; ++r) {
        FullSystemSim sim(FullSystemConfig::baseline());
        BenchTimer timer("hotpath_loads/fs_replay");
        const FullSystemResult res = sim.run(recorder.traces());
        const double secs = timer.seconds();

        u64 digest = foldDouble(0xcbf29ce484222325ULL, res.cycles);
        digest = foldWord(digest, res.instructions);
        digest = foldWord(digest, res.l2Accesses);
        digest = foldWord(digest, res.flitHops);
        recordRepetition(out, r, digest, secs);
    }
    return out;
}

std::string
renderJson(const std::vector<ScenarioResult> &scenarios, u64 n,
           u32 reps)
{
    std::string out;
    char buf[160];
    out += "{\n";
    out += "  \"schema\": \"lva-hotpath-v1\",\n";
    out += "  \"driver\": \"hotpath_loads\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"warmup_loads\": %llu,\n  \"timed_loads\": "
                  "%llu,\n  \"reps\": %u,\n",
                  static_cast<unsigned long long>(kWarmupLoads),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned>(reps));
    out += buf;
    out += "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ScenarioResult &s = scenarios[i];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"loads\": %llu, "
                      "\"seconds\": %.17g, \"loads_per_sec\": %.17g, "
                      "\"value_digest\": \"%s\"}%s\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.loads),
                      s.seconds, s.loadsPerSec(),
                      s.valueDigest.c_str(),
                      i + 1 < scenarios.size() ? "," : "");
        out += buf;
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace
} // namespace lva

int
main()
{
    using namespace lva;

    BenchTimer timer("hotpath_loads");
    const u64 n = timedLoads();
    const u32 reps = repetitions();
    const std::vector<Access> stream = buildStream(4);

    ApproxMemory::Config precise;
    precise.mode = MemMode::Precise;

    ApproxMemory::Config lva; // full mechanism, every feature hot
    lva.mode = MemMode::Lva;
    lva.approx.ghbEntries = 2;
    lva.approx.valueDelay = 4;
    lva.approx.approxDegree = 2;

    ApproxMemory::Config prefetch; // GHB baseline, Fig. 8 tables
    prefetch.mode = MemMode::Prefetch;

    ApproxMemory::Config lvp = lva; // idealized LVP, Fig. 4 baseline
    lvp.mode = MemMode::Lvp;

    std::vector<ScenarioResult> scenarios;
    scenarios.push_back(
        runScenario("precise_scalar", precise, stream, n, reps));
    scenarios.push_back(
        runScenario("lva_scalar", lva, stream, n, reps));
    scenarios.push_back(
        runScenario("prefetch_scalar", prefetch, stream, n, reps));
    scenarios.push_back(
        runScenario("lvp_scalar", lvp, stream, n, reps));
    scenarios.push_back(runFsReplay(reps));

    std::printf("\n%-18s %14s %12s  %s\n", "scenario", "loads/sec",
                "seconds", "value_digest");
    for (const ScenarioResult &s : scenarios)
        std::printf("%-18s %14.0f %12.3f  %s\n", s.name.c_str(),
                    s.loadsPerSec(), s.seconds,
                    s.valueDigest.c_str());

    const std::string path = resultsPath("hotpath_loads.json");
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << renderJson(scenarios, n, reps);
    file.close();
    std::printf("\nwrote %s\n", path.c_str());
    return file.good() ? 0 : 1;
}
