/**
 * @file
 * Full-system timing simulation of the Table II CMP: four OoO cores
 * with private L1s, a shared banked L2 with a directory MSI protocol,
 * a 2x2 mesh NoC, main memory, and optionally a load value
 * approximator beside each L1.
 *
 * Traces recorded from a precise functional run are replayed; the
 * simulator recomputes hits/misses, coherence traffic, approximation
 * decisions, per-access timing with contention, and dynamic energy.
 */

#ifndef LVA_SIM_FULL_SYSTEM_HH
#define LVA_SIM_FULL_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/approximator.hh"
#include "cpu/ooo_core.hh"
#include "cpu/trace.hh"
#include "energy/energy_model.hh"
#include "mem/cache.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/directory.hh"
#include "util/slotted_resource.hh"
#include "util/stat_registry.hh"

namespace lva {

/** Outputs of one full-system replay. */
struct FullSystemResult
{
    double cycles = 0.0;          ///< makespan over all cores
    u64 instructions = 0;
    double ipc = 0.0;

    u64 l1Misses = 0;             ///< raw L1 load misses
    u64 demandMisses = 0;         ///< misses the core had to wait for
    u64 approxMisses = 0;         ///< misses hidden by approximation
    u64 fetchesSkipped = 0;       ///< block fetches cancelled (degree)
    u64 l2Accesses = 0;
    u64 l2Fetches = 0;            ///< blocks L2 pulled from memory
    u64 dramAccesses = 0;
    u64 flitHops = 0;             ///< interconnect traffic
    double nocQueueWait = 0.0;    ///< total link queueing (diagnostic)
    double memQueueWait = 0.0;    ///< total DRAM-port queueing
    double bankQueueWait = 0.0;   ///< total L2-bank-port queueing

    /**
     * Average effective L1 miss latency as seen by the core:
     * approximated misses cost one cycle, demand misses their full
     * round trip.
     */
    double avgL1MissLatency = 0.0;

    EnergyEvents events{};
    EnergyBreakdown energy{};

    /** Full registry snapshot taken at the end of run(). */
    StatSnapshot stats{};

    /** L1-miss energy-delay product (paper Figure 11): the energy
     *  spent servicing L1 misses times the average effective miss
     *  latency. */
    double
    missEdp() const
    {
        return energy.missServicing() * avgL1MissLatency;
    }
};

/**
 * The timing simulator. Construct once per replay.
 */
class FullSystemSim
{
  public:
    explicit FullSystemSim(const FullSystemConfig &config);
    ~FullSystemSim();

    /** Replay @p traces (one per core) to completion. */
    FullSystemResult run(const std::vector<ThreadTrace> &traces);

    /**
     * The simulation's stat registry: "core<N>.*", "l2.bank<N>.*",
     * "energy.*" and "system.*". Gauges are populated by run().
     */
    const StatRegistry &registry() const { return registry_; }

  private:
    struct CoreCtx;

    /** End-of-run derived values, registered at construction. */
    struct SysGauges
    {
        SysGauges(StatRegistry &reg);

        Gauge &cycles;
        Gauge &instructions;
        Gauge &ipc;
        Gauge &avgL1MissLatency;
        Gauge &nocQueueWait;
        Gauge &memQueueWait;
        Gauge &bankQueueWait;
        Gauge &energyL1;
        Gauge &energyL2;
        Gauge &energyDram;
        Gauge &energyNoc;
        Gauge &energyApprox;
        Gauge &energyTotal;
    };

    /**
     * Service an L1 fill for @p core: the full GetS/GetM round trip.
     *
     * @param background the fill is off the critical path (training
     *        fetch or store write-allocate); with heteroNoc it rides
     *        the slow mesh plane
     * @return data-arrival cycle at the requesting core
     */
    double fetchBlock(u32 core, Addr block, bool is_write, double now,
                      bool background = false);

    /** Handle eviction of @p block from @p core's L1. */
    void evictFromL1(u32 core, Addr block, double now);

    /** A block's home L2 bank and its alias within that bank. */
    struct BankAddr
    {
        u32 bank;
        Addr local;
    };

    /**
     * Home bank (address-interleaved) and bank-local alias of a
     * global block address: a bank sees every l2Banks-th block, so
     * compacting the block number keeps its set index bits dense
     * (otherwise 1/l2Banks of each bank's sets would be usable).
     */
    BankAddr
    bankAddr(Addr block) const
    {
        const u64 n = block >> blockShift_;
        return {static_cast<u32>(n % config_.l2Banks),
                (n / config_.l2Banks) << blockShift_};
    }

    /** Inverse of bankAddr(): the global address of @p local in
     *  @p bank. */
    Addr
    globalAddr(Addr local, u32 bank) const
    {
        return ((local >> blockShift_) * config_.l2Banks + bank)
               << blockShift_;
    }

    FullSystemConfig config_;
    u32 blockShift_; ///< log2 of the (power-of-two) block size
    StatRegistry registry_; ///< declared before every stats holder
    std::vector<std::unique_ptr<CoreCtx>> cores_;
    std::vector<std::unique_ptr<Cache>> l2Bank_;
    std::unique_ptr<Mesh> mesh_;
    std::unique_ptr<Mesh> slowMesh_; ///< heterogeneous plane, if any
    Directory directory_;
    std::vector<SlottedResource> bankPorts_;
    std::vector<SlottedResource> memPorts_;
    EnergyEventCounters events_;
    SysGauges gauges_;
    Counter &l2Fetches_;
    double memQueueWait_ = 0.0;
    double bankQueueWait_ = 0.0;
};

} // namespace lva

#endif // LVA_SIM_FULL_SYSTEM_HH
