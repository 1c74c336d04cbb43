#include "sim/full_system.hh"

#include <algorithm>
#include <bit>

#include "util/fixed_ring.hh"
#include "util/logging.hh"

namespace lva {

/** Per-core replay context; stats live under "core<N>.*". */
struct FullSystemSim::CoreCtx
{
    CoreCtx(const FullSystemConfig &config, u32 index, StatRegistry &reg,
            const std::string &prefix)
        : core(config.core), l1(config.l1, reg, prefix + ".l1"),
          demandMisses(reg.counter(prefix + ".demandMisses",
                                   "misses the core had to wait for")),
          approxMisses(reg.counter(prefix + ".approxMisses",
                                   "misses hidden by approximation")),
          l1Misses(reg.counter(prefix + ".loadMisses",
                               "raw L1 load misses")),
          fetchesSkipped(reg.counter(
              prefix + ".fetchesSkipped",
              "block fetches cancelled by the degree counter")),
          missLatency(reg.histogram(
              prefix + ".missLatency", 0.0, 400.0, 20,
              "effective L1 miss latency seen by the core", "cycles")),
          background(maxBackground)
    {
        if (config.lvaEnabled) {
            const ApproximatorConfig &variant =
                config.coreApprox.empty() ? config.approx
                                          : config.coreApprox.at(index);
            lva = std::make_unique<LoadValueApproximator>(
                variant, reg, prefix + ".lva");
        }
    }

    OoOCore core;
    Cache l1;
    std::unique_ptr<LoadValueApproximator> lva;
    /** Next trace event (its record, value and wide cursors and the
     *  PC table) and the end. */
    ThreadTrace::const_iterator cursor;
    ThreadTrace::const_iterator traceEnd;
    /** The event at cursor, decoded when its batch starts. */
    TraceEvent ev;
    Counter &demandMisses;
    Counter &approxMisses;
    Counter &l1Misses;
    Counter &fetchesSkipped;
    Histogram &missLatency;

    /** Remaining instructions of the current event's instrBefore
     *  batch; large batches are executed in scheduler-quantum chunks
     *  so cores interleave finely with each other's accesses. */
    u32 pendingInstr = 0;
    bool batchStarted = false;

    /** Completion time of the most recent load on this core; a load
     *  marked dependsOnPrev cannot issue before this (its address is
     *  produced by that load). */
    double lastLoadReady = 0.0;

    /** Outstanding background fills (store buffer + training-fetch
     *  MSHRs): completions of requests the core did not wait for. */
    static constexpr u32 maxBackground = 16;
    FixedRing<double> background;

    /** Apply backpressure before issuing a new background request. */
    void
    reserveBackgroundSlot()
    {
        while (!background.empty() &&
               background.front() <= core.now())
            background.pop();
        if (background.full()) {
            // Store buffer / MSHRs full: the core stalls until the
            // oldest background request completes.
            core.advanceTo(background.front());
            background.pop();
        }
    }
};

FullSystemSim::SysGauges::SysGauges(StatRegistry &reg)
    : cycles(reg.gauge("system.cycles",
                       "makespan over all cores", "cycles")),
      instructions(reg.gauge("system.instructions",
                             "instructions retired", "insts")),
      ipc(reg.gauge("system.ipc",
                    "aggregate instructions per cycle", "insts/cycle")),
      avgL1MissLatency(reg.gauge(
          "system.avgL1MissLatency",
          "average effective L1 miss latency", "cycles")),
      nocQueueWait(reg.gauge("system.nocQueueWait",
                             "total NoC link queueing", "cycles")),
      memQueueWait(reg.gauge("system.memQueueWait",
                             "total DRAM-port queueing", "cycles")),
      bankQueueWait(reg.gauge("system.bankQueueWait",
                              "total L2-bank-port queueing", "cycles")),
      energyL1(reg.gauge("energy.l1", "L1 dynamic energy", "nJ")),
      energyL2(reg.gauge("energy.l2", "L2 dynamic energy", "nJ")),
      energyDram(reg.gauge("energy.dram", "DRAM dynamic energy", "nJ")),
      energyNoc(reg.gauge("energy.noc", "NoC dynamic energy", "nJ")),
      energyApprox(reg.gauge("energy.approximator",
                             "approximator table energy", "nJ")),
      energyTotal(reg.gauge("energy.total",
                            "total dynamic energy", "nJ"))
{
}

FullSystemSim::FullSystemSim(const FullSystemConfig &config)
    : config_(config),
      blockShift_(static_cast<u32>(std::countr_zero(config.l1.blockBytes))),
      directory_(static_cast<std::size_t>(config.cores) *
                 config.l1.numSets() * config.l1.assoc),
      bankPorts_(config.l2Banks, SlottedResource(8.0, 8.0)),
      memPorts_(config.l2Banks,
                SlottedResource(4.0 * config.memOccupancy,
                                4.0 * config.memOccupancy)),
      events_(registry_, "energy.events"),
      gauges_(registry_),
      l2Fetches_(registry_.counter("l2.fetches",
                                   "blocks L2 pulled from memory"))
{
    lva_assert(std::has_single_bit(config.l1.blockBytes),
               "block size %u not a power of two", config.l1.blockBytes);
    lva_assert(config.cores == config.mesh.nodes(),
               "one core per mesh node expected");
    lva_assert(config.l2Banks == config.mesh.nodes(),
               "one L2 bank per mesh node expected");
    lva_assert(config.coreApprox.empty() ||
                   config.coreApprox.size() == config.cores,
               "coreApprox must carry one entry per core");
    for (u32 c = 0; c < config.cores; ++c)
        cores_.push_back(std::make_unique<CoreCtx>(
            config, c, registry_, "core" + std::to_string(c)));
    // Distributed L2: one physically separate bank per mesh node,
    // each caching its address-interleaved slice.
    CacheConfig bank_cfg = config.l2;
    bank_cfg.sizeBytes = config.l2.sizeBytes / config.l2Banks;
    for (u32 b = 0; b < config.l2Banks; ++b)
        l2Bank_.push_back(std::make_unique<Cache>(
            bank_cfg, registry_, "l2.bank" + std::to_string(b)));
    mesh_ = std::make_unique<Mesh>(config.mesh);
    if (config.heteroNoc)
        slowMesh_ = std::make_unique<Mesh>(config.slowMesh);
}

FullSystemSim::~FullSystemSim() = default;

void
FullSystemSim::evictFromL1(u32 core, Addr block, double now)
{
    // Writeback traffic only for a dirty owner; a clean Exclusive
    // copy (MESI) is dropped silently.
    const Directory::Entry *entry = directory_.find(block);
    if (entry != nullptr && entry->owner == core && entry->dirty) {
        const BankAddr home = bankAddr(block);
        mesh_->deliver(core, home.bank, MessageBytes::data, now);
        events_.l2Accesses.inc(); // writeback into the L2 bank
        l2Bank_[home.bank]->insert(home.local, true);
    }
    directory_.removeSharer(block, core);
}

double
FullSystemSim::fetchBlock(u32 core, Addr block, bool is_write,
                          double now, bool background)
{
    const auto [bank, local] = bankAddr(block);
    Cache &l2 = *l2Bank_[bank];

    // Background fills may ride the heterogeneous (slow, low-energy)
    // NoC plane; everything else keeps the fast plane.
    Mesh &net =
        (background && slowMesh_) ? *slowMesh_ : *mesh_;

    // 1. Request to the home bank.
    double t = net.deliver(core, bank, MessageBytes::control, now);

    // 2. L2 bank port + array access.
    const double start =
        bankPorts_[bank].acquire(t, config_.l2Occupancy);
    bankQueueWait_ += start - t;
    t = start + config_.l2Latency;
    events_.l2Accesses.inc();

    const Directory::Entry *entry = directory_.find(block);

    if (is_write) {
        // GetM: invalidate every other copy. The requesting core's
        // store retires from the store buffer, so invalidation
        // latency is off the critical path; the traffic is modelled.
        if (entry != nullptr) {
            for (u32 s = 0; s < config_.cores; ++s) {
                if (s == core || (entry->sharers & (1u << s)) == 0)
                    continue;
                net.deliver(bank, s, MessageBytes::control, t);
                cores_[s]->l1.invalidate(block);
                directory_.stats().invalidationsSent.inc();
            }
        }
    } else if (entry != nullptr && entry->owner != Directory::noOwner &&
               entry->owner != core) {
        // GetS with a remote E/M owner: forward from the owner's L1;
        // dirty (M) data is also written back into the bank as the
        // owner downgrades to S. Clean (E) forwards carry no
        // writeback.
        const u32 owner = entry->owner;
        const bool was_dirty = entry->dirty;
        double fwd =
            net.deliver(bank, owner, MessageBytes::control, t);
        fwd += config_.l1Latency;
        events_.l1Accesses.inc(); // owner L1 read-out
        directory_.stats().forwards.inc();
        directory_.downgrade(block);
        if (was_dirty) {
            net.deliver(owner, bank, MessageBytes::data, fwd);
            events_.l2Accesses.inc();
        }
        const double arrive =
            net.deliver(owner, core, MessageBytes::data, fwd);
        // The data lands in the (inclusive) L2 bank; insert()
        // refreshes recency if it is already resident.
        l2.insert(local, was_dirty);
        CoreCtx &ctx = *cores_[core];
        const Addr victim = ctx.l1.insert(block, false);
        if (victim != invalidAddr)
            evictFromL1(core, victim, arrive);
        directory_.addSharer(block, core);
        return arrive + config_.l1Latency;
    }

    // 3. L2 lookup; miss goes to memory.
    const bool l2_hit = l2.access(local);
    if (!l2_hit) {
        const double mem_start =
            memPorts_[bank].acquire(t, config_.memOccupancy);
        memQueueWait_ += mem_start - t;
        t = mem_start + config_.memLatency;
        events_.dramAccesses.inc();
        const Addr local_victim = l2.insert(local);
        l2Fetches_.inc();
        if (local_victim != invalidAddr) {
            // Inclusive L2: recall the victim from any L1 holding it.
            const Addr l2_victim = globalAddr(local_victim, bank);
            const Directory::Entry *v = directory_.find(l2_victim);
            if (v != nullptr) {
                for (u32 s = 0; s < config_.cores; ++s) {
                    if ((v->sharers & (1u << s)) == 0)
                        continue;
                    net.deliver(bank, s, MessageBytes::control, t);
                    cores_[s]->l1.invalidate(l2_victim);
                }
                directory_.clear(l2_victim);
            }
        }
    }

    // 4. Data response to the requesting core.
    const double arrive =
        net.deliver(bank, core, MessageBytes::data, t);

    // 5. L1 fill + directory update. Under MESI a read fill with no
    // other sharers grants the E state, enabling later silent
    // upgrades; MSI (the paper's protocol) grants only S.
    CoreCtx &ctx = *cores_[core];
    const Addr victim = ctx.l1.insert(block, is_write);
    if (victim != invalidAddr)
        evictFromL1(core, victim, arrive);
    const Directory::Entry *after = directory_.find(block);
    if (is_write) {
        directory_.setOwner(block, core, /*dirty=*/true);
    } else if (config_.protocol == CoherenceProtocol::Mesi &&
               (after == nullptr || after->sharers == 0)) {
        directory_.setOwner(block, core, /*dirty=*/false);
    } else {
        directory_.addSharer(block, core);
    }

    return arrive + config_.l1Latency;
}

FullSystemResult
FullSystemSim::run(const std::vector<ThreadTrace> &traces)
{
    lva_assert(traces.size() == cores_.size(),
               "trace count %zu != core count %zu", traces.size(),
               cores_.size());
    for (u32 c = 0; c < cores_.size(); ++c) {
        cores_[c]->cursor = traces[c].begin();
        cores_[c]->traceEnd = traces[c].end();
    }

    // Replay: always advance the core whose local clock is earliest,
    // so cross-core contention and coherence interleave plausibly.
    // lva-hot-path: begin
    while (true) {
        CoreCtx *next = nullptr;
        u32 next_id = 0;
        for (u32 c = 0; c < cores_.size(); ++c) {
            CoreCtx &ctx = *cores_[c];
            if (ctx.cursor == ctx.traceEnd)
                continue;
            if (next == nullptr || ctx.core.now() < next->core.now()) {
                next = &ctx;
                next_id = c;
            }
        }
        if (next == nullptr)
            break;

        // Execute the event's leading instruction batch in bounded
        // chunks, yielding to other cores between chunks so their
        // coherence actions interleave at realistic granularity.
        constexpr u32 quantum = 64;
        if (!next->batchStarted) {
            next->ev = *next->cursor;
            next->pendingInstr = next->ev.instrBefore;
            next->batchStarted = true;
        }
        if (next->pendingInstr > 0) {
            const u32 chunk = next->pendingInstr < quantum
                                  ? next->pendingInstr
                                  : quantum;
            next->core.executeInstructions(chunk);
            next->pendingInstr -= chunk;
            continue; // rescheduled by min-clock
        }
        ++next->cursor;
        next->batchStarted = false;
        const TraceEvent &ev = next->ev;

        // Address dependency: a pointer-chasing load cannot issue
        // before the load that produced its address has completed.
        if (ev.isLoad && ev.dependsOnPrev)
            next->core.advanceTo(next->lastLoadReady);

        const Addr block = next->l1.blockAlign(ev.addr);
        events_.l1Accesses.inc();

        if (ev.isLoad) {
            const bool hit = next->l1.access(ev.addr, false);
            if (hit) {
                if (ev.approximable && next->lva) {
                    // A GHB push only — no table access is charged
                    // (the table is consulted on misses alone).
                    next->lva->onHit(ev.pc, ev.value);
                }
                next->core.loadHit();
                next->lastLoadReady =
                    next->core.now() + config_.l1Latency;
                continue;
            }
            next->l1Misses.inc();

            if (ev.approximable && next->lva) {
                const MissResponse resp =
                    next->lva->onMiss(ev.pc, ev.value);
                events_.approxLookups.inc();
                if (resp.fetch) {
                    if (resp.approximated)
                        next->reserveBackgroundSlot();
                    const double issue = next->core.now();
                    const double done = fetchBlock(
                        next_id, block, false, issue,
                        /*background=*/resp.approximated);
                    events_.approxTrains.inc();
                    if (resp.approximated) {
                        // Training fetch off the critical path,
                        // possibly over the deprioritized path.
                        next->background.push(
                            done + config_.backgroundFetchExtraLatency);
                        next->approxMisses.inc();
                        next->missLatency.sample(1.0);
                        next->core.loadHit(); // miss hidden
                        next->lastLoadReady =
                            next->core.now() + config_.l1Latency;
                    } else {
                        next->demandMisses.inc();
                        next->missLatency.sample(done - issue);
                        next->core.demandMiss(done);
                        next->lastLoadReady = done;
                    }
                } else {
                    // Fetch cancelled outright (approximation degree).
                    next->approxMisses.inc();
                    next->fetchesSkipped.inc();
                    next->missLatency.sample(1.0);
                    next->core.loadHit();
                    next->lastLoadReady =
                        next->core.now() + config_.l1Latency;
                }
                continue;
            }

            const double issue = next->core.now();
            const double done = fetchBlock(next_id, block, false, issue);
            next->demandMisses.inc();
            next->missLatency.sample(done - issue);
            next->core.demandMiss(done);
            next->lastLoadReady = done;
        } else {
            // Stores: retire via the store buffer. A hit may still
            // need an upgrade (invalidate other sharers); a miss
            // write-allocates in the background.
            const double now = next->core.now();
            const bool hit = next->l1.access(ev.addr, true);
            if (hit) {
                const Directory::Entry *entry = directory_.find(block);
                if (entry != nullptr && entry->owner == next_id) {
                    // Already E or M: a MESI E copy upgrades
                    // silently (no traffic); M stays M.
                    directory_.markDirty(block);
                } else {
                    // Upgrade: GetM without data transfer.
                    const u32 bank = bankAddr(block).bank;
                    mesh_->deliver(next_id, bank,
                                   MessageBytes::control, now);
                    if (entry != nullptr) {
                        for (u32 s = 0; s < cores_.size(); ++s) {
                            if (s == next_id ||
                                (entry->sharers & (1u << s)) == 0)
                                continue;
                            mesh_->deliver(bank, s,
                                           MessageBytes::control, now);
                            cores_[s]->l1.invalidate(block);
                            directory_.stats()
                                .invalidationsSent.inc();
                        }
                    }
                    directory_.setOwner(block, next_id);
                }
                next->core.storeAccess();
            } else {
                next->reserveBackgroundSlot();
                const double done =
                    fetchBlock(next_id, block, true, next->core.now(),
                               /*background=*/true);
                next->background.push(
                    done + config_.backgroundFetchExtraLatency);
                next->core.storeAccess();
            }
        }
    }
    // lva-hot-path: end

    // Drain and collect.
    FullSystemResult result;
    double makespan = 0.0;
    double miss_latency_sum = 0.0;
    u64 miss_count = 0;
    for (auto &ctx : cores_) {
        ctx->core.drainAll();
        makespan = std::max(makespan, ctx->core.now());
        result.instructions += ctx->core.instructionsRetired();
        result.l1Misses += ctx->l1Misses.value();
        result.demandMisses += ctx->demandMisses.value();
        result.approxMisses += ctx->approxMisses.value();
        result.fetchesSkipped += ctx->fetchesSkipped.value();
        miss_latency_sum +=
            ctx->core.missLatencySum() +
            1.0 * static_cast<double>(ctx->approxMisses.value());
        miss_count +=
            ctx->demandMisses.value() + ctx->approxMisses.value();
    }
    result.cycles = makespan;
    result.ipc = makespan > 0.0
                     ? static_cast<double>(result.instructions) / makespan
                     : 0.0;
    result.avgL1MissLatency =
        miss_count > 0
            ? miss_latency_sum / static_cast<double>(miss_count)
            : 0.0;
    result.l2Accesses = events_.l2Accesses.value();
    result.l2Fetches = l2Fetches_.value();
    result.dramAccesses = events_.dramAccesses.value();
    const u64 slow_hops =
        slowMesh_ ? slowMesh_->stats().flitHops.value() : 0;
    result.flitHops = mesh_->stats().flitHops.value() + slow_hops;
    result.nocQueueWait =
        mesh_->stats().queueWait +
        (slowMesh_ ? slowMesh_->stats().queueWait : 0.0);
    result.memQueueWait = memQueueWait_;
    result.bankQueueWait = bankQueueWait_;
    // The mesh keeps its own counters; fold the final hop totals into
    // the energy-event registry entries (run() executes once).
    events_.nocFlitHops.inc(mesh_->stats().flitHops.value());
    events_.nocFlitHopsSlow.inc(slow_hops);
    result.events = events_.value();
    result.energy = computeEnergy(result.events, config_.energy);

    gauges_.cycles.set(result.cycles);
    gauges_.instructions.set(static_cast<double>(result.instructions));
    gauges_.ipc.set(result.ipc);
    gauges_.avgL1MissLatency.set(result.avgL1MissLatency);
    gauges_.nocQueueWait.set(result.nocQueueWait);
    gauges_.memQueueWait.set(result.memQueueWait);
    gauges_.bankQueueWait.set(result.bankQueueWait);
    gauges_.energyL1.set(result.energy.l1);
    gauges_.energyL2.set(result.energy.l2);
    gauges_.energyDram.set(result.energy.dram);
    gauges_.energyNoc.set(result.energy.noc);
    gauges_.energyApprox.set(result.energy.approximator);
    gauges_.energyTotal.set(result.energy.total());
    result.stats = registry_.snapshot();
    return result;
}

} // namespace lva
