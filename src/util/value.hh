/**
 * @file
 * Tagged scalar value as seen by the load value approximator.
 *
 * The approximator operates on the data returned by load instructions,
 * which in the evaluated workloads is either integer pixel/coordinate data
 * or single/double-precision floating point. Value carries the bit pattern
 * together with its type so that history buffers, hashing, windowed
 * confidence comparison and the AVERAGE computation function can all be
 * expressed uniformly.
 */

#ifndef LVA_UTIL_VALUE_HH
#define LVA_UTIL_VALUE_HH

#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "util/logging.hh"
#include "util/types.hh"

namespace lva {

/** Scalar type of an approximable datum. */
enum class ValueKind : u8 {
    Int64,   ///< signed integer data (pixels, coordinates)
    Float32, ///< single-precision floating point
    Float64, ///< double-precision floating point
};

/** Human-readable name of a ValueKind. */
const char *valueKindName(ValueKind kind);

/**
 * A typed scalar value.
 *
 * Stored as a 64-bit pattern plus a kind tag; conversions are explicit.
 */
class Value
{
  public:
    Value() : bits_(0), kind_(ValueKind::Int64) {}

    static Value
    fromInt(i64 v)
    {
        Value out;
        out.kind_ = ValueKind::Int64;
        std::memcpy(&out.bits_, &v, sizeof(v));
        return out;
    }

    static Value
    fromFloat(float v)
    {
        Value out;
        out.kind_ = ValueKind::Float32;
        u32 b32;
        std::memcpy(&b32, &v, sizeof(v));
        out.bits_ = b32;
        return out;
    }

    static Value
    fromDouble(double v)
    {
        Value out;
        out.kind_ = ValueKind::Float64;
        std::memcpy(&out.bits_, &v, sizeof(v));
        return out;
    }

    /** Rebuild a value from its kind() and bits(). */
    static Value
    fromBits(ValueKind kind, u64 bits)
    {
        Value out;
        out.kind_ = kind;
        out.bits_ = bits;
        return out;
    }

    /** Build a Value of @p kind from a real number (rounding for Int64). */
    static Value ofKind(ValueKind kind, double v);

    ValueKind kind() const { return kind_; }

    /** Raw 64-bit pattern (Float32 occupies the low 32 bits). */
    u64 bits() const { return bits_; }

    i64
    asInt() const
    {
        i64 v;
        std::memcpy(&v, &bits_, sizeof(v));
        return v;
    }

    float
    asFloat() const
    {
        const u32 b32 = static_cast<u32>(bits_);
        float v;
        std::memcpy(&v, &b32, sizeof(v));
        return v;
    }

    double
    asDouble() const
    {
        double v;
        std::memcpy(&v, &bits_, sizeof(v));
        return v;
    }

    /** Numeric value as a double regardless of kind. */
    double toReal() const;

    /**
     * Bit pattern used for context hashing, with @p mantissa_drop low
     * mantissa bits zeroed for floating-point kinds (paper section VII-B:
     * truncating the mantissa improves floating-point value locality).
     * Integer values are returned unchanged.
     */
    u64 hashBits(u32 mantissa_drop) const;

    /** Exact bit-pattern equality (also requires matching kinds). */
    bool
    exactlyEquals(const Value &other) const
    {
        return kind_ == other.kind_ && bits_ == other.bits_;
    }

    std::string toString() const;

  private:
    u64 bits_;
    ValueKind kind_;
};

/**
 * Relative error |approx - actual| / |actual|.
 *
 * When actual == 0 the error is 0 if approx is also 0 and +infinity
 * otherwise; NaN inputs yield +infinity.
 */
double relativeError(double approx, double actual);

/**
 * Relaxed confidence window test (paper section III-B): is @p approx within
 * +/- @p window (fraction, e.g. 0.10) of @p actual? A window of 0 demands
 * bitwise-exact equality, matching traditional value prediction.
 */
bool withinWindow(const Value &approx, const Value &actual, double window);

/**
 * Indexed-accessor estimator kernels: the single implementation of the
 * computation functions f, shared by the std::span overloads below and
 * by the approximator's in-place SoA ring iteration. @p at maps
 * [0, n) to values oldest-first. Floating-point summation order is
 * part of the exported-bytes contract (DESIGN.md section 10), so every
 * caller must present the same oldest-first order; funnelling both the
 * span and ring paths through one kernel keeps them bit-identical by
 * construction.
 */
template <typename At>
Value
averageAt(u32 n, At at)
{
    lva_assert(n > 0, "averageOf on empty history");
    double sum = 0.0;
    ValueKind kind = ValueKind::Int64;
    for (u32 i = 0; i < n; ++i) {
        const Value v = at(i);
        if (i == 0)
            kind = v.kind();
        sum += v.toReal();
    }
    return Value::ofKind(kind, sum / static_cast<double>(n));
}

/** LAST kernel: most recent value. */
template <typename At>
Value
lastAt(u32 n, At at)
{
    lva_assert(n > 0, "lastOf on empty history");
    return at(n - 1);
}

/** STRIDE kernel: newest value plus the mean successive delta. */
template <typename At>
Value
strideAt(u32 n, At at)
{
    lva_assert(n > 0, "strideOf on empty history");
    if (n == 1)
        return at(0);
    const Value front = at(0);
    const double first = front.toReal();
    const double last = at(n - 1).toReal();
    const double mean_delta =
        (last - first) / static_cast<double>(n - 1);
    return Value::ofKind(front.kind(), last + mean_delta);
}

/**
 * The AVERAGE computation function f over a local history buffer
 * (paper Table II). Integer averages round to nearest.
 *
 * @pre values is non-empty and all entries share one kind.
 */
Value averageOf(std::span<const Value> values);

/** Most recent value (LAST computation function, design-space ablation). */
Value lastOf(std::span<const Value> values);

/**
 * Stride extrapolation (STRIDE computation function, ablation): newest
 * value plus the mean successive delta.
 */
Value strideOf(std::span<const Value> values);

} // namespace lva

#endif // LVA_UTIL_VALUE_HH
