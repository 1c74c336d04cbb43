#include "eval/evaluator.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "util/env_knob.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace lva {

namespace {

u32
seedsFromEnv()
{
    // paper: all measurements averaged from 5 runs
    return static_cast<u32>(envKnobU64("LVA_SEEDS", 5, 1, 64));
}

} // namespace

double
scaleFromEnv()
{
    return envKnobF64("LVA_SCALE", 1.0, 1e-6, 4.0);
}

const std::vector<EvalMetricDef> &
evalMetricDefs()
{
    static const std::vector<EvalMetricDef> defs = {
        {"eval.preciseMpki", "baseline effective MPKI", "misses/kinst"},
        {"eval.mpki", "configured effective MPKI", "misses/kinst"},
        {"eval.normMpki", "MPKI normalized to precise", "ratio"},
        {"eval.preciseFetches", "baseline L1 block fills", "blocks"},
        {"eval.fetches", "configured L1 block fills", "blocks"},
        {"eval.normFetches", "fetches normalized to precise", "ratio"},
        {"eval.outputError", "application output error", "fraction"},
        {"eval.coverage", "approximated / approximable loads",
         "fraction"},
        {"eval.instrVariation",
         "|instructions - precise| / precise", "fraction"},
        {"eval.instructions", "dynamic instructions (configured run)",
         "insts"},
    };
    return defs;
}

const std::vector<EvalMetricDef> &
workloadStaticDefs()
{
    static const std::vector<EvalMetricDef> defs = {
        {"workload.staticApproxLoads",
         "static (distinct) PCs of approximate loads", "sites"},
        {"workload.staticLoads", "all static load PCs", "sites"},
    };
    return defs;
}

void
applyEvalDerived(StatSnapshot &snap, const EvalResult &r)
{
    const double values[] = {
        r.preciseMpki,   r.mpki,        r.normMpki,
        r.preciseFetches, r.fetches,    r.normFetches,
        r.outputError,   r.coverage,    r.instrVariation,
        r.instructions,
    };
    const auto &defs = evalMetricDefs();
    lva_assert(defs.size() == sizeof(values) / sizeof(values[0]),
               "eval metric catalog out of sync");
    for (std::size_t i = 0; i < defs.size(); ++i)
        snap.setGauge(defs[i].path, values[i], defs[i].desc,
                      defs[i].unit);
}

Evaluator::Evaluator(u32 seeds, double scale)
    : seeds_(seeds ? seeds : seedsFromEnv()),
      scale_(scale > 0.0 ? scale : scaleFromEnv())
{
}

ApproxMemory::Config
Evaluator::baselineLva()
{
    ApproxMemory::Config cfg;
    cfg.mode = MemMode::Lva;
    cfg.cache = CacheConfig::pinL1();
    cfg.approx = ApproximatorConfig::baseline();
    return cfg;
}

ApproxMemory::Config
Evaluator::preciseConfig()
{
    ApproxMemory::Config cfg;
    cfg.mode = MemMode::Precise;
    cfg.cache = CacheConfig::pinL1();
    return cfg;
}

ApproxMemory::Config
Evaluator::preciseBaseFor(const ApproxMemory::Config &cfg)
{
    ApproxMemory::Config precise = preciseConfig();
    precise.threads = cfg.threads;
    precise.cache = cfg.cache;
    return precise;
}

namespace {

/**
 * Golden-cache key for one workload under one precise config: the
 * plain workload name for the canonical preciseConfig() geometry (so
 * every pre-machine key — and every test that asserts on it — stays
 * unchanged), a "@t<threads>.s<size>.a<assoc>.b<block>" variant suffix
 * for any other machine geometry.
 */
std::string
goldenKeyName(const std::string &name, const ApproxMemory::Config &precise)
{
    static const ApproxMemory::Config canonical =
        Evaluator::preciseConfig();
    if (precise.threads == canonical.threads &&
        precise.cache.sizeBytes == canonical.cache.sizeBytes &&
        precise.cache.assoc == canonical.cache.assoc &&
        precise.cache.blockBytes == canonical.cache.blockBytes)
        return name;
    return name + "@t" + std::to_string(precise.threads) + ".s" +
           std::to_string(precise.cache.sizeBytes) + ".a" +
           std::to_string(precise.cache.assoc) + ".b" +
           std::to_string(precise.cache.blockBytes);
}

} // namespace

std::size_t
goldenEvictionVictim(const std::vector<GoldenEvictionCandidate> &candidates)
{
    lva_assert(!candidates.empty(), "eviction with no candidates");

    // LRU order first; lastUse stamps are unique (a single use clock
    // issues them), so the order — and therefore the victim — is
    // deterministic.
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return candidates[a].lastUse < candidates[b].lastUse;
              });

    // Within the ceil(n/4) least-recently-used window, evict the
    // cheapest rebuild; strictly-lower cost only, so cost ties keep
    // the older entry.
    const std::size_t window = (candidates.size() + 3) / 4;
    std::size_t best = order[0];
    for (std::size_t i = 1; i < window; ++i) {
        const std::size_t idx = order[i];
        if (candidates[idx].cost < candidates[best].cost)
            best = idx;
    }
    return best;
}

void
Evaluator::enforceCapacityLocked()
{
    if (capacity_ == 0)
        return;
    for (;;) {
        // Only Ready slots are candidates: a Building slot has a
        // waiter about to need it, an Empty one holds no golden.
        std::vector<std::pair<std::string, u64>> keys;
        std::vector<GoldenEvictionCandidate> candidates;
        for (const auto &kv : goldens_) {
            if (kv.second->state == GoldenSlot::State::Ready) {
                keys.push_back(kv.first);
                candidates.push_back(
                    {kv.second->lastUse, kv.second->cost});
            }
        }
        if (candidates.size() <= capacity_)
            return;
        // Erasing the map entry only drops the map's reference;
        // readers that acquired the golden before this eviction keep
        // it alive through their own shared_ptr.
        goldens_.erase(keys[goldenEvictionVictim(candidates)]);
        ++counters_.evictions;
    }
}

void
Evaluator::setGoldenCacheCapacity(u64 entries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = entries;
    enforceCapacityLocked();
}

GoldenCacheCounters
Evaluator::goldenCacheCounters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    GoldenCacheCounters c = counters_;
    c.capacity = capacity_;
    c.size = 0;
    for (const auto &kv : goldens_)
        if (kv.second->state == GoldenSlot::State::Ready)
            ++c.size;
    return c;
}

std::vector<std::pair<std::string, u64>>
Evaluator::goldenResidentKeys()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, u64>> keys;
    for (const auto &kv : goldens_)
        if (kv.second->state == GoldenSlot::State::Ready)
            keys.push_back(kv.first);
    return keys;
}

std::shared_ptr<const Evaluator::Golden>
Evaluator::golden(const std::string &name, WorkloadFactory factory,
                  u64 seed, const ApproxMemory::Config &precise)
{
    const auto key = std::make_pair(goldenKeyName(name, precise), seed);
    std::shared_ptr<GoldenSlot> slot;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            auto &entry = goldens_[key];
            if (!entry)
                entry = std::make_shared<GoldenSlot>();
            slot = entry;
            if (slot->state == GoldenSlot::State::Ready) {
                slot->lastUse = ++useClock_;
                ++counters_.hits;
                return {slot, &slot->golden};
            }
            if (slot->state == GoldenSlot::State::Empty) {
                // This caller becomes the single-flight builder.
                slot->state = GoldenSlot::State::Building;
                ++counters_.misses;
                break;
            }
            // Another caller is building this golden; coalesce onto
            // its run instead of duplicating the precise work.  On
            // wake the slot is Ready, or Empty again (failed build) —
            // and possibly already evicted from the map — so restart
            // the lookup from scratch.
            ++counters_.coalesced;
            cv_.wait(lock, [&] {
                return slot->state != GoldenSlot::State::Building;
            });
        }
    }

    // Build outside the lock: the precise run is the expensive part,
    // and concurrent builds of *different* goldens must proceed.
    Golden g;
    try {
        // An exception here (including an injected one) steps the
        // slot back to Empty, so a retried point rebuilds the
        // baseline instead of latching a broken slot forever.
        faultPoint("eval.golden." + name);

        WorkloadParams params;
        params.seed = seed;
        params.scale = scale_;
        params.threads = precise.threads;

        g.workload = factory(params);
        g.workload->generate();
        ApproxMemory mem(precise);
        g.workload->run(mem);
        g.metrics = mem.metrics();
        g.stats = mem.snapshot();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        slot->state = GoldenSlot::State::Empty;
        cv_.notify_all();
        throw;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    slot->golden = std::move(g);
    slot->state = GoldenSlot::State::Ready;
    slot->lastUse = ++useClock_;
    slot->cost = slot->golden.metrics.instructions;
    ++counters_.builds;
    enforceCapacityLocked();
    cv_.notify_all();
    return {slot, &slot->golden};
}

EvalResult
Evaluator::evaluate(const std::string &name,
                    const ApproxMemory::Config &cfg)
{
    faultPoint("eval.evaluate." + name);

    EvalResult avg;
    double sum_precise_mpki = 0.0, sum_mpki = 0.0;
    double sum_norm_mpki = 0.0;
    double sum_precise_fetches = 0.0, sum_fetches = 0.0;
    double sum_norm_fetches = 0.0;
    double sum_error = 0.0, sum_coverage = 0.0, sum_var = 0.0;
    double sum_instr = 0.0;

    // Loop invariants: resolve the name->factory mapping and build
    // the params template once, not once per seed.
    const WorkloadFactory factory = findWorkloadFactory(name);
    const ApproxMemory::Config precise = preciseBaseFor(cfg);
    WorkloadParams params;
    params.scale = scale_;
    params.threads = cfg.threads;

    for (u32 s = 0; s < seeds_; ++s) {
        const u64 seed = 1 + s;
        // Holding the shared_ptr keeps this golden valid for the
        // whole seed body even if the cache evicts it concurrently.
        const std::shared_ptr<const Golden> base =
            golden(name, factory, seed, precise);

        params.seed = seed;

        auto w = factory(params);
        w->generate();
        ApproxMemory mem(cfg);
        w->run(mem);
        const MemMetrics m = mem.metrics();
        // Seed order is fixed, so the merged snapshot (counters sum,
        // gauges last-seed-wins) is deterministic regardless of how
        // sweep points are scheduled across threads.
        avg.stats.merge(mem.snapshot());

        const double base_mpki = base->metrics.mpki();
        const double base_fetches =
            static_cast<double>(base->metrics.fetches);
        const double my_mpki = m.mpki();
        const double my_fetches = static_cast<double>(m.fetches);

        sum_precise_mpki += base_mpki;
        sum_mpki += my_mpki;
        // Guard benchmarks with vanishing baseline MPKI (swaptions).
        sum_norm_mpki +=
            base_mpki > 1e-9 ? my_mpki / base_mpki : 1.0;
        sum_precise_fetches += base_fetches;
        sum_fetches += my_fetches;
        sum_norm_fetches +=
            base_fetches > 0.5 ? my_fetches / base_fetches : 1.0;
        sum_error += w->outputErrorVs(*base->workload);
        sum_coverage += m.coverage();
        const double base_instr =
            static_cast<double>(base->metrics.instructions);
        sum_var += base_instr > 0.0
                       ? std::fabs(static_cast<double>(m.instructions) -
                                   base_instr) / base_instr
                       : 0.0;
        sum_instr += static_cast<double>(m.instructions);
    }

    const double n = static_cast<double>(seeds_);
    avg.preciseMpki = sum_precise_mpki / n;
    avg.mpki = sum_mpki / n;
    avg.normMpki = sum_norm_mpki / n;
    avg.preciseFetches = sum_precise_fetches / n;
    avg.fetches = sum_fetches / n;
    avg.normFetches = sum_norm_fetches / n;
    avg.outputError = sum_error / n;
    avg.coverage = sum_coverage / n;
    avg.instrVariation = sum_var / n;
    avg.instructions = sum_instr / n;
    applyEvalDerived(avg.stats, avg);
    return avg;
}

EvalResult
Evaluator::evaluatePrecise(const std::string &name)
{
    return evaluatePrecise(name, preciseConfig());
}

EvalResult
Evaluator::evaluatePrecise(const std::string &name,
                           const ApproxMemory::Config &precise)
{
    EvalResult avg;
    double sum_mpki = 0.0;
    double sum_instr = 0.0;
    double sum_fetches = 0.0;
    const WorkloadFactory factory = findWorkloadFactory(name);
    const ApproxMemory::Config base_cfg = preciseBaseFor(precise);
    for (u32 s = 0; s < seeds_; ++s) {
        const std::shared_ptr<const Golden> base =
            golden(name, factory, 1 + s, base_cfg);
        sum_mpki += base->metrics.mpki();
        sum_instr += static_cast<double>(base->metrics.instructions);
        sum_fetches += static_cast<double>(base->metrics.fetches);
        avg.stats.merge(base->stats);
    }
    const double n = static_cast<double>(seeds_);
    avg.preciseMpki = avg.mpki = sum_mpki / n;
    avg.preciseFetches = avg.fetches = sum_fetches / n;
    avg.instructions = sum_instr / n;
    avg.normMpki = 1.0;
    avg.normFetches = 1.0;
    applyEvalDerived(avg.stats, avg);
    return avg;
}

} // namespace lva
