#include "core/approx_memory.hh"

#include "util/logging.hh"

namespace lva {

const char *
memModeName(MemMode mode)
{
    switch (mode) {
      case MemMode::Precise:
        return "precise";
      case MemMode::Lva:
        return "LVA";
      case MemMode::Lvp:
        return "LVP";
      case MemMode::Prefetch:
        return "prefetch";
    }
    return "?";
}

LaneCounters::LaneCounters(StatRegistry &reg, const std::string &prefix)
    : instructions(reg.counter(
          StatRegistry::joinPath(prefix, "instructions"),
          "dynamic instructions (incl. memory ops)")),
      loads(reg.counter(StatRegistry::joinPath(prefix, "loads"),
                        "load instructions issued")),
      stores(reg.counter(StatRegistry::joinPath(prefix, "stores"),
                         "store instructions issued")),
      loadMisses(reg.counter(
          StatRegistry::joinPath(prefix, "loadMisses"),
          "raw L1 load misses")),
      effectiveMisses(reg.counter(
          StatRegistry::joinPath(prefix, "effectiveMisses"),
          "misses not hidden by approximation/LVP")),
      fetches(reg.counter(StatRegistry::joinPath(prefix, "fetches"),
                          "L1 block fills (demand + train + prefetch)")),
      approxLoads(reg.counter(
          StatRegistry::joinPath(prefix, "approxLoads"),
          "loads returning an approximate value")),
      approximableLoads(reg.counter(
          StatRegistry::joinPath(prefix, "approximableLoads"),
          "loads to annotated data"))
{
}

MemMetrics
LaneCounters::value() const
{
    MemMetrics m;
    m.instructions = instructions.value();
    m.loads = loads.value();
    m.stores = stores.value();
    m.loadMisses = loadMisses.value();
    m.effectiveMisses = effectiveMisses.value();
    m.fetches = fetches.value();
    m.approxLoads = approxLoads.value();
    m.approximableLoads = approximableLoads.value();
    return m;
}

ApproxMemory::ApproxMemory(const Config &config)
    : MemoryBackend(BackendKind::Approx), config_(config)
{
    lva_assert(config.threads > 0, "need at least one thread");
    lva_assert(config.threadApprox.empty() ||
                   config.threadApprox.size() == config.threads,
               "threadApprox must carry one entry per thread");
    lanes_.resize(config.threads);
    for (u32 t = 0; t < config.threads; ++t) {
        Lane &lane = lanes_[t];
        const std::string tp = "thread" + std::to_string(t);
        const ApproximatorConfig &variant =
            config.threadApprox.empty() ? config.approx
                                        : config.threadApprox[t];
        lane.cache = std::make_unique<Cache>(config.cache, registry_,
                                             tp + ".l1");
        lane.mem = std::make_unique<LaneCounters>(registry_, tp + ".mem");
        switch (config.mode) {
          case MemMode::Lva:
            lane.lva = std::make_unique<LoadValueApproximator>(
                variant, registry_, tp + ".lva");
            break;
          case MemMode::Lvp:
            lane.lvp = std::make_unique<IdealizedLvp>(
                variant, registry_, tp + ".lvp");
            break;
          case MemMode::Prefetch:
            lane.prefetcher = std::make_unique<GhbPrefetcher>(
                config.prefetch, registry_, tp + ".prefetch");
            break;
          case MemMode::Precise:
            break;
        }
    }
}

ApproxMemory::Lane &
ApproxMemory::laneFor(ThreadId tid)
{
    lva_assert(tid < lanes_.size(), "thread %u out of range", tid);
    return lanes_[tid];
}

const ApproxMemory::Lane &
ApproxMemory::laneFor(ThreadId tid) const
{
    lva_assert(tid < lanes_.size(), "thread %u out of range", tid);
    return lanes_[tid];
}

// lva-hot-path: begin (per-load fast path; see docs/performance.md)

Value
ApproxMemory::loadDirect(ThreadId tid, LoadSiteId pc, Addr addr,
                         const Value &precise, bool approximable,
                         bool dependent)
{
    (void)dependent; // functional simulation: timing-only property
    Lane &lane = laneFor(tid);
    LaneCounters &m = *lane.mem;
    m.instructions.inc();
    m.loads.inc();
    if (approximable)
        m.approximableLoads.inc();

    const bool hit = lane.cache->access(addr, /*is_write=*/false);
    if (hit) {
        if (approximable) {
            if (lane.lva)
                lane.lva->onHit(pc, precise);
            else if (lane.lvp)
                lane.lvp->onHit(pc, precise);
        }
        return precise;
    }

    m.loadMisses.inc();

    // --- LVA: the approximator may hide the miss and cancel the fetch.
    if (lane.lva && approximable) {
        const MissResponse resp = lane.lva->onMiss(pc, precise);
        if (resp.fetch) {
            lane.cache->fill(addr);
            m.fetches.inc();
        }
        if (resp.approximated) {
            m.approxLoads.inc();
            // Approximated values count as cache hits for effective
            // MPKI (paper section V-A).
            return resp.value;
        }
        m.effectiveMisses.inc();
        return precise;
    }

    // --- Idealized LVP: always fetches; oracle hides correct ones.
    if (lane.lvp && approximable) {
        const bool correct = lane.lvp->onMiss(pc, precise);
        lane.cache->fill(addr);
        m.fetches.inc();
        if (correct) {
            m.approxLoads.inc();
        } else {
            m.effectiveMisses.inc();
        }
        // LVP output is always precise (mispredictions roll back).
        return precise;
    }

    // --- Prefetcher: demand fetch plus pattern-driven extra fetches.
    // Unlike LVA, prefetching applies to all loads, annotated or not
    // (paper section VI-D).
    if (lane.prefetcher) {
        m.effectiveMisses.inc();
        lane.cache->fill(addr);
        m.fetches.inc();
        for (const Addr pf : lane.prefetcher->onMiss(pc, addr)) {
            if (!lane.cache->probe(pf)) {
                lane.cache->fill(pf);
                m.fetches.inc();
            }
        }
        return precise;
    }

    // --- Precise baseline (or non-annotated load under LVA/LVP).
    m.effectiveMisses.inc();
    lane.cache->fill(addr);
    m.fetches.inc();
    return precise;
}

/**
 * The sealed dispatcher lives in this translation unit, next to
 * loadDirect, so the compiler inlines the ApproxMemory fast path into
 * it: the common per-load flow is one direct (non-virtual) call from
 * the workload, with no indirect branch. Generic backends take the
 * historical virtual route.
 */
Value
MemoryBackend::load(ThreadId tid, LoadSiteId pc, Addr addr,
                    const Value &precise, bool approximable,
                    bool dependent)
{
    switch (kind()) {
      case BackendKind::Approx:
        return static_cast<ApproxMemory *>(this)->loadDirect(
            tid, pc, addr, precise, approximable, dependent);
      case BackendKind::Null:
        return precise;
      case BackendKind::Generic:
        break;
    }
    return loadVirtual(tid, pc, addr, precise, approximable, dependent);
}

// lva-hot-path: end

void
ApproxMemory::store(ThreadId tid, LoadSiteId pc, Addr addr)
{
    (void)pc;
    Lane &lane = laneFor(tid);
    LaneCounters &m = *lane.mem;
    m.instructions.inc();
    m.stores.inc();

    // Write-allocate, write-back; store misses are off the critical
    // path (paper section V-A) and never approximated, but they do
    // fetch blocks.
    if (!lane.cache->access(addr, /*is_write=*/true)) {
        lane.cache->fill(addr, /*is_write=*/true);
        m.fetches.inc();
    }
}

void
ApproxMemory::tickInstructions(ThreadId tid, u64 n)
{
    laneFor(tid).mem->instructions.inc(n);
}

void
ApproxMemory::finish()
{
    for (auto &lane : lanes_) {
        if (lane.lva)
            lane.lva->drainPending();
        if (lane.lvp)
            lane.lvp->drainPending();
    }
}

MemMetrics
ApproxMemory::metrics() const
{
    MemMetrics total;
    for (const auto &lane : lanes_) {
        const MemMetrics m = lane.mem->value();
        total.instructions += m.instructions;
        total.loads += m.loads;
        total.stores += m.stores;
        total.loadMisses += m.loadMisses;
        total.effectiveMisses += m.effectiveMisses;
        total.fetches += m.fetches;
        total.approxLoads += m.approxLoads;
        total.approximableLoads += m.approximableLoads;
    }
    return total;
}

const Cache &
ApproxMemory::cacheFor(ThreadId tid) const
{
    return *laneFor(tid).cache;
}

const LoadValueApproximator &
ApproxMemory::approximatorFor(ThreadId tid) const
{
    const Lane &lane = laneFor(tid);
    lva_assert(lane.lva != nullptr, "thread %u has no approximator", tid);
    return *lane.lva;
}

const IdealizedLvp &
ApproxMemory::lvpFor(ThreadId tid) const
{
    const Lane &lane = laneFor(tid);
    lva_assert(lane.lvp != nullptr, "thread %u has no LVP", tid);
    return *lane.lvp;
}

const GhbPrefetcher &
ApproxMemory::prefetcherFor(ThreadId tid) const
{
    const Lane &lane = laneFor(tid);
    lva_assert(lane.prefetcher != nullptr,
               "thread %u has no prefetcher", tid);
    return *lane.prefetcher;
}

} // namespace lva
