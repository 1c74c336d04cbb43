/**
 * @file
 * Typed data regions bridging host containers and the simulated
 * memory system.
 *
 * A Region<T> owns its elements in a host vector and a deterministic
 * virtual address range. Reads issued through load() travel through the
 * MemoryBackend, which may return an approximated value (the EnerJ-style
 * annotation is the `approximable` flag given at initialization). Writes
 * update the host data and issue a simulated store.
 */

#ifndef LVA_WORKLOADS_REGION_HH
#define LVA_WORKLOADS_REGION_HH

#include <type_traits>
#include <vector>

#include "core/memory_backend.hh"
#include "util/arena.hh"
#include "util/logging.hh"
#include "util/types.hh"
#include "util/value.hh"

namespace lva {

namespace detail {

template <typename T>
constexpr ValueKind
kindOf()
{
    if constexpr (std::is_same_v<T, float>)
        return ValueKind::Float32;
    else if constexpr (std::is_same_v<T, double>)
        return ValueKind::Float64;
    else if constexpr (std::is_integral_v<T>)
        return ValueKind::Int64;
    else
        static_assert(!sizeof(T), "unsupported region element type");
}

template <typename T>
Value
toValue(T v)
{
    if constexpr (std::is_same_v<T, float>)
        return Value::fromFloat(v);
    else if constexpr (std::is_same_v<T, double>)
        return Value::fromDouble(v);
    else
        return Value::fromInt(static_cast<i64>(v));
}

template <typename T>
T
fromValue(const Value &v)
{
    if constexpr (std::is_same_v<T, float>)
        return v.asFloat();
    else if constexpr (std::is_same_v<T, double>)
        return static_cast<T>(v.asDouble());
    else
        return static_cast<T>(v.asInt());
}

} // namespace detail

/**
 * An array of T living at a deterministic simulated address range.
 */
template <typename T>
class Region
{
  public:
    Region() = default;

    /** Allocate @p n elements from @p arena. */
    void
    init(VirtualArena &arena, std::size_t n, bool approximable,
         T fill = T{})
    {
        data_.assign(n, fill);
        base_ = arena.allocate(n * sizeof(T));
        approximable_ = approximable;
    }

    std::size_t size() const { return data_.size(); }
    bool approximable() const { return approximable_; }
    Addr base() const { return base_; }

    Addr
    addrOf(std::size_t i) const
    {
        return base_ + i * sizeof(T);
    }

    /** Direct host access for input generation / golden readout. */
    T &raw(std::size_t i) { return data_[boundsCheck(i)]; }
    const T &raw(std::size_t i) const { return data_[boundsCheck(i)]; }
    const std::vector<T> &rawAll() const { return data_; }

    /**
     * A modelled load: issues the access to @p mem and returns the
     * (possibly approximated) value the core would consume.
     */
    T
    load(MemoryBackend &mem, ThreadId tid, LoadSiteId pc,
         std::size_t i, bool dependent = false) const
    {
        const T precise = data_[boundsCheck(i)];
        const Value got = mem.load(tid, pc, addrOf(i),
                                   detail::toValue<T>(precise),
                                   approximable_, dependent);
        return detail::fromValue<T>(got);
    }

    /**
     * A modelled load that is always precise, regardless of the region
     * annotation. The paper annotates data "for only small regions of
     * code" (section IV): the same array may be loaded approximately in
     * the hot cost loop and precisely elsewhere (e.g. during binning).
     */
    T
    loadPrecise(MemoryBackend &mem, ThreadId tid, LoadSiteId pc,
                std::size_t i, bool dependent = false) const
    {
        const T precise = data_[boundsCheck(i)];
        mem.load(tid, pc, addrOf(i), detail::toValue<T>(precise), false,
                 dependent);
        return precise;
    }

    /** A modelled store: updates host data and simulates the write. */
    void
    store(MemoryBackend &mem, ThreadId tid, LoadSiteId pc, std::size_t i,
          T v)
    {
        data_[boundsCheck(i)] = v;
        mem.store(tid, pc, addrOf(i));
    }

  private:
    std::size_t
    boundsCheck(std::size_t i) const
    {
        lva_assert(i < data_.size(), "region index %zu out of %zu", i,
                   data_.size());
        return i;
    }

    std::vector<T> data_;
    Addr base_ = invalidAddr;
    bool approximable_ = false;
};

} // namespace lva

#endif // LVA_WORKLOADS_REGION_HH
