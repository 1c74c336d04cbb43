/**
 * @file
 * Shared strict parsing for LVA_* environment knobs and numeric
 * command-line operands.
 *
 * Every numeric knob used to hand-roll its own getenv + strtol (or
 * worse, atoi), so "LVA_FLEET_SIZE=2x" silently became 2 and
 * "LVA_SERVE_QUEUE=-1" wrapped to a huge queue.  These helpers give
 * all knobs the discipline PR 4 gave LVA_JOBS: a strict decimal (or
 * decimal-float) parse that rejects trailing junk, signs and
 * out-of-range values with a warning, falling back to the documented
 * default instead of coercing.
 *
 * tools/lva_audit's knob-unvalidated rule enforces that production
 * code reads LVA_* knobs through these helpers (string-valued knobs
 * carry an explicit `lva-audit: allow(knob-unvalidated)` annotation
 * instead).
 *
 * flagU64() / flagF64() apply the same parse to a command-line
 * operand, but a bad operand is a usage error: it exits 2 instead of
 * falling back, because the user asked for that value explicitly.
 */

#ifndef LVA_UTIL_ENV_KNOB_HH
#define LVA_UTIL_ENV_KNOB_HH

#include "util/types.hh"

namespace lva {

/**
 * Read an unsigned integer knob.
 *
 * Unset or empty returns @p fallback silently.  A set value must be
 * pure decimal digits (no sign, no hex, no trailing characters) and
 * lie in [@p lo, @p hi]; anything else warns once per call and
 * returns @p fallback.
 */
u64 envKnobU64(const char *name, u64 fallback, u64 lo, u64 hi);

/**
 * Read a floating-point knob.  Same contract as envKnobU64: strict
 * strtod parse (no trailing characters), range-checked against
 * [@p lo, @p hi], warn + fallback on anything malformed.
 */
double envKnobF64(const char *name, double fallback, double lo,
                  double hi);

/**
 * The operand @p text of command-line flag @p flag as an unsigned
 * integer in [@p lo, @p hi], parsed as envKnobU64 parses a knob.
 * Anything else prints one error line and exits 2.
 */
u64 flagU64(const char *flag, const char *text, u64 lo, u64 hi);

/** As flagU64() for a floating-point operand in [@p lo, @p hi]. */
double flagF64(const char *flag, const char *text, double lo,
               double hi);

} // namespace lva

#endif // LVA_UTIL_ENV_KNOB_HH
