/**
 * @file
 * The interface through which workloads issue simulated memory traffic.
 *
 * Workload kernels keep their data in host containers but report every
 * modelled access here, tagged with a logical thread, a static load site
 * (the PC) and, for approximable loads, the precise value. The backend
 * may return a different (approximated) value, which the kernel must
 * consume — exactly what the paper's Pin tool does when it clobbers load
 * return values.
 *
 * Dispatch is sealed on the load path (the per-access hot path): every
 * backend carries a BackendKind tag and the one non-virtual load()
 * entry point switches on it, routing the overwhelmingly common kinds
 * (ApproxMemory, NullBackend) to direct calls that the compiler can
 * inline, while anything else falls through to the loadVirtual()
 * virtual as before. The virtual boundary remains at the run level
 * (Workload::run takes MemoryBackend&); only the per-load indirect
 * branch is gone. Every load goes through load() on its own, as the
 * paper's Pin tool clobbers one load value at a time.
 */

#ifndef LVA_CORE_MEMORY_BACKEND_HH
#define LVA_CORE_MEMORY_BACKEND_HH

#include "util/types.hh"
#include "util/value.hh"

namespace lva {

/** Sealed-dispatch tag: which concrete backend this is. */
enum class BackendKind : u8 {
    Generic, ///< anything else: dispatch via the loadVirtual() virtual
    Approx,  ///< ApproxMemory (phase-1 functional memory system)
    Null,    ///< NullBackend (golden runs: precise, no bookkeeping)
};

/**
 * Abstract memory-system backend.
 *
 * Implementations: ApproxMemory (phase-1 functional simulation with
 * per-thread private L1 caches and approximators), TraceRecorder
 * (phase-2 trace capture for the full-system timing model).
 * Subclasses implement loadVirtual(); callers use load().
 */
class MemoryBackend
{
  public:
    explicit MemoryBackend(BackendKind kind = BackendKind::Generic)
        : kind_(kind)
    {}

    virtual ~MemoryBackend() = default;

    BackendKind kind() const { return kind_; }

    /**
     * A load instruction (sealed dispatch; defined in
     * approx_memory.cc so the ApproxMemory fast path inlines).
     *
     * @param tid         issuing logical thread
     * @param pc          static load site
     * @param addr        virtual address accessed
     * @param precise     the value stored at @p addr in this run
     * @param approximable whether the programmer annotated this load
     * @param dependent   true when this load's address depends on the
     *                    value of the immediately preceding load on
     *                    this thread (pointer chasing); the timing
     *                    model serializes such pairs, which is exactly
     *                    the latency LVA hides when the producer is
     *                    approximated
     * @return the value the core receives (possibly approximated)
     */
    Value load(ThreadId tid, LoadSiteId pc, Addr addr,
               const Value &precise, bool approximable,
               bool dependent = false);

    /**
     * A load of non-annotated data whose value the model never needs
     * (cache-traffic accounting only).
     */
    void
    touchLoad(ThreadId tid, LoadSiteId pc, Addr addr)
    {
        load(tid, pc, addr, Value::fromInt(0), false);
    }

    /** A store instruction (write-allocate; value not modelled). */
    virtual void store(ThreadId tid, LoadSiteId pc, Addr addr) = 0;

    /** Account @p n non-memory instructions on thread @p tid. */
    virtual void tickInstructions(ThreadId tid, u64 n) = 0;

    /** End-of-run hook (drain value-delayed trainings, etc.). */
    virtual void finish() {}

  protected:
    /** Generic (BackendKind::Generic) implementation of one load. */
    virtual Value loadVirtual(ThreadId tid, LoadSiteId pc, Addr addr,
                              const Value &precise, bool approximable,
                              bool dependent) = 0;

  private:
    BackendKind kind_;
};

/**
 * Backend that models nothing: loads return the precise value and no
 * statistics are kept. Used to execute reference (golden) runs at full
 * host speed. load() short-circuits on BackendKind::Null before any
 * virtual dispatch.
 */
class NullBackend : public MemoryBackend
{
  public:
    NullBackend() : MemoryBackend(BackendKind::Null) {}

    void store(ThreadId, LoadSiteId, Addr) override {}
    void tickInstructions(ThreadId, u64) override {}

  protected:
    Value
    loadVirtual(ThreadId, LoadSiteId, Addr, const Value &precise, bool,
                bool) override
    {
        return precise;
    }
};

} // namespace lva

#endif // LVA_CORE_MEMORY_BACKEND_HH
