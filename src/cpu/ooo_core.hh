/**
 * @file
 * ROB-occupancy timing model of a 4-wide out-of-order core.
 *
 * This is the FeS2 substitute for the paper's phase-2 evaluation. It
 * captures the first-order effect LVA exploits: a demand load miss only
 * stalls the core once the reorder buffer fills behind it, so miss
 * latency overlaps with up to robEntries instructions of useful work
 * (and with other misses — memory-level parallelism). Approximated
 * loads retire like hits; their training fetches occupy the memory
 * system but never block retirement.
 */

#ifndef LVA_CPU_OOO_CORE_HH
#define LVA_CPU_OOO_CORE_HH

#include <algorithm>
#include <bit>

#include "util/fixed_ring.hh"
#include "util/types.hh"

namespace lva {

/** Core microarchitecture parameters (paper Table II). */
struct CoreConfig
{
    u32 width = 4;      ///< issue/retire width (instructions per cycle)
    u32 robEntries = 32;///< reorder buffer capacity
};

/**
 * Per-core replay state: virtual time plus the outstanding demand-miss
 * window that models ROB occupancy.
 *
 * Every outstanding miss holds a ROB entry, so at most robEntries are
 * in flight and the window is a fixed ring of that size.
 */
class OoOCore
{
  public:
    explicit OoOCore(const CoreConfig &config)
        : config_(config),
          invWidth_(std::has_single_bit(config.width)
                        ? 1.0 / static_cast<double>(config.width)
                        : 0.0),
          outstanding_(std::max<u32>(config.robEntries, 1))
    {}

    // lva-hot-path: begin

    /** Current core time in cycles. */
    double now() const { return now_; }

    /** Retire @p n ordinary instructions (bandwidth-limited). */
    void
    executeInstructions(u64 n)
    {
        while (n > 0) {
            drainCompleted();
            if (!outstanding_.empty()) {
                const PendingMiss &oldest = outstanding_.front();
                // The missing load occupies one ROB entry, so only
                // robEntries - 1 younger instructions fit behind it.
                const u64 limit =
                    oldest.instrIndex + config_.robEntries - 1;
                if (instrCount_ >= limit) {
                    // ROB full behind the oldest miss: stall until
                    // its data arrives.
                    if (now_ < oldest.completion)
                        now_ = oldest.completion;
                    outstanding_.pop();
                    continue;
                }
                const u64 room = limit - instrCount_;
                const u64 take = n < room ? n : room;
                advance(take);
                n -= take;
                continue;
            }
            advance(n);
            n = 0;
        }
    }

    /** An L1 load hit (or an approximated load): retires like any
     *  single instruction. */
    void
    loadHit()
    {
        executeInstructions(1);
    }

    /**
     * A demand load miss issued now, completing at @p completion.
     * The core continues past it until the ROB fills.
     */
    void
    demandMiss(double completion)
    {
        executeInstructions(1);
        outstanding_.push(PendingMiss{instrCount_, completion});
        ++demandMisses_;
        const double latency = completion - now_;
        missLatencySum_ += latency > 0.0 ? latency : 0.0;
    }

    /** A store: retires without stalling (store buffer). */
    void
    storeAccess()
    {
        executeInstructions(1);
    }

    /** Force the core clock forward (external backpressure, e.g. a
     *  full store buffer). */
    void
    advanceTo(double t)
    {
        if (t > now_)
            now_ = t;
    }

    /** Wait for all outstanding misses (end of trace). */
    void
    drainAll()
    {
        while (!outstanding_.empty()) {
            if (now_ < outstanding_.front().completion)
                now_ = outstanding_.front().completion;
            outstanding_.pop();
        }
    }

    u64 instructionsRetired() const { return instrCount_; }
    u64 demandMisses() const { return demandMisses_; }
    double missLatencySum() const { return missLatencySum_; }

  private:
    struct PendingMiss
    {
        u64 instrIndex;    ///< retirement index of the missing load
        double completion; ///< cycle at which its data arrives
    };

    void
    advance(u64 instructions)
    {
        instrCount_ += instructions;
        // For a power-of-two width 1/width is exact, so the product
        // equals the quotient bit for bit; other widths divide.
        const double n = static_cast<double>(instructions);
        now_ += invWidth_ != 0.0
                    ? n * invWidth_
                    : n / static_cast<double>(config_.width);
    }

    void
    drainCompleted()
    {
        while (!outstanding_.empty() &&
               outstanding_.front().completion <= now_) {
            outstanding_.pop();
        }
    }
    // lva-hot-path: end

    CoreConfig config_;
    double invWidth_; ///< 1/width for power-of-two widths, else 0
    double now_ = 0.0;
    u64 instrCount_ = 0;
    FixedRing<PendingMiss> outstanding_;
    u64 demandMisses_ = 0;
    double missLatencySum_ = 0.0;
};

} // namespace lva

#endif // LVA_CPU_OOO_CORE_HH
