#include "util/env_knob.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace lva {
namespace {

/** Shared "is there a value to parse at all" gate. */
const char *
knobValue(const char *name)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return nullptr;
    return env;
}

/** Strict decimal parse of @p text into [@p lo, @p hi]. */
bool
parseU64(const char *text, u64 lo, u64 hi, u64 &out)
{
    // Leading signs and whitespace are rejected up front: strtoull
    // happily wraps "-1" to 2^64-1, which is exactly the silent
    // coercion this helper exists to kill.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return false;
    out = static_cast<u64>(v);
    return true;
}

/** Strict strtod parse of @p text into [@p lo, @p hi] (NaN fails). */
bool
parseF64(const char *text, double lo, double hi, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= lo) || !(v <= hi))
        return false;
    out = v;
    return true;
}

} // namespace

u64
envKnobU64(const char *name, u64 fallback, u64 lo, u64 hi)
{
    const char *env = knobValue(name);
    if (env == nullptr)
        return fallback;
    u64 v = 0;
    if (!parseU64(env, lo, hi, v)) {
        lva_warn("ignoring bad %s='%s' (want a decimal in [%llu, %llu])",
                 name, env, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
        return fallback;
    }
    return v;
}

double
envKnobF64(const char *name, double fallback, double lo, double hi)
{
    const char *env = knobValue(name);
    if (env == nullptr)
        return fallback;
    double v = 0.0;
    if (!parseF64(env, lo, hi, v)) {
        lva_warn("ignoring bad %s='%s' (want a number in [%g, %g])",
                 name, env, lo, hi);
        return fallback;
    }
    return v;
}

u64
flagU64(const char *flag, const char *text, u64 lo, u64 hi)
{
    u64 v = 0;
    if (parseU64(text, lo, hi, v))
        return v;
    std::fprintf(stderr,
                 "error: bad value '%s' for %s (want an integer in "
                 "[%llu, %llu])\n",
                 text, flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    std::exit(2);
}

double
flagF64(const char *flag, const char *text, double lo, double hi)
{
    double v = 0.0;
    if (parseF64(text, lo, hi, v))
        return v;
    std::fprintf(stderr,
                 "error: bad value '%s' for %s (want a number in "
                 "[%g, %g])\n",
                 text, flag, lo, hi);
    std::exit(2);
}

} // namespace lva
