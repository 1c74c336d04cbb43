#include "workloads/blackscholes.hh"

#include <cmath>

#include "util/logging.hh"

namespace lva {

namespace {

/** Cumulative normal distribution (Abramowitz & Stegun 26.2.17), as in
 *  the PARSEC kernel. */
float
cndf(float x)
{
    const bool negative = x < 0.0f;
    const float ax = std::fabs(x);
    const float k = 1.0f / (1.0f + 0.2316419f * ax);
    const float pdf =
        0.39894228040143267f * std::exp(-0.5f * ax * ax);
    const float poly =
        k * (0.319381530f +
             k * (-0.356563782f +
                  k * (1.781477937f +
                       k * (-1.821255978f + k * 1.330274429f))));
    const float cnd = 1.0f - pdf * poly;
    return negative ? 1.0f - cnd : cnd;
}

/** Non-memory instructions per option evaluation (CNDF + arithmetic),
 *  calibrated so precise MPKI lands near Table I. */
constexpr u64 instrPerOption = 1600;

} // namespace

BlackscholesWorkload::BlackscholesWorkload(const WorkloadParams &params)
    : Workload(params)
{
    siteSpot_ = declareSite("spot", true);
    siteStrike_ = declareSite("strike", true);
    siteRate_ = declareSite("rate", true);
    siteVol_ = declareSite("volatility", true);
    siteTime_ = declareSite("otime", true);
    siteType_ = declareSite("otype", false);
    siteStore_ = declareSite("price_out", false);
}

float
BlackscholesWorkload::price(float spot, float strike, float rate,
                            float vol, float time, bool is_call)
{
    // Guard against approximation-induced degenerate inputs: the real
    // kernel would produce NaN; clamping mimics a tolerant consumer.
    if (spot <= 0.0f)
        spot = 0.01f;
    if (strike <= 0.0f)
        strike = 0.01f;
    if (vol <= 1e-4f)
        vol = 1e-4f;
    if (time <= 1e-4f)
        time = 1e-4f;

    const float sqrt_t = std::sqrt(time);
    const float d1 =
        (std::log(spot / strike) + (rate + 0.5f * vol * vol) * time) /
        (vol * sqrt_t);
    const float d2 = d1 - vol * sqrt_t;
    const float discounted = strike * std::exp(-rate * time);
    if (is_call)
        return spot * cndf(d1) - discounted * cndf(d2);
    return discounted * cndf(-d2) - spot * cndf(-d1);
}

void
BlackscholesWorkload::generate()
{
    numOptions_ = params_.scaled(8192, 64);
    passes_ = 6;

    spot_.init(arena_, numOptions_, true);
    strike_.init(arena_, numOptions_, true);
    rate_.init(arena_, numOptions_, true);
    vol_.init(arena_, numOptions_, true);
    time_.init(arena_, numOptions_, true);
    type_.init(arena_, numOptions_, false);
    out_.init(arena_, numOptions_, false);

    Rng rng(mix64(params_.seed) ^ 0xb1ac5UL);

    // Redundant input pools, mirroring the simlarge distribution the
    // paper describes: the spot price takes 4 values, two of which
    // cover over 98% of the portfolio.
    const float spot_pool[4] = {42.00f, 57.50f, 100.00f, 17.50f};
    const double spot_cdf[4] = {0.60, 0.98, 0.995, 1.0};
    const float strike_pool[6] = {40.0f, 45.0f, 55.0f, 60.0f, 100.0f,
                                  20.0f};
    const float rate_pool[2] = {0.0275f, 0.1000f};
    const float vol_pool[4] = {0.10f, 0.20f, 0.30f, 0.40f};
    const float time_pool[4] = {0.25f, 0.50f, 0.75f, 1.00f};

    for (u64 i = 0; i < numOptions_; ++i) {
        const double u = rng.uniform();
        u32 s = 0;
        while (s < 3 && u > spot_cdf[s])
            ++s;
        spot_.raw(i) = spot_pool[s];
        strike_.raw(i) = strike_pool[rng.below(6)];
        rate_.raw(i) = rate_pool[rng.below(2)];
        vol_.raw(i) = vol_pool[rng.below(4)];
        time_.raw(i) = time_pool[rng.below(4)];
        type_.raw(i) = rng.chance(0.5) ? 1 : 0;
    }
}

void
BlackscholesWorkload::run(MemoryBackend &mem)
{
    lva_assert(numOptions_ > 0, "generate() must run first");

    for (u32 pass = 0; pass < passes_; ++pass) {
        for (u64 i = 0; i < numOptions_; ++i) {
            const ThreadId tid = threadOf(i);
            // The six per-option loads, in the order every export
            // pins: spot, strike, rate, vol, time, then the option
            // type, loaded precisely (it steers control flow).
            const float spot = spot_.load(mem, tid, siteSpot_, i);
            const float strike = strike_.load(mem, tid, siteStrike_, i);
            const float rate = rate_.load(mem, tid, siteRate_, i);
            const float vol = vol_.load(mem, tid, siteVol_, i);
            const float otime = time_.load(mem, tid, siteTime_, i);
            const bool is_call =
                type_.loadPrecise(mem, tid, siteType_, i) != 0;

            const float p =
                price(spot, strike, rate, vol, otime, is_call);
            out_.store(mem, tid, siteStore_, i, p);
            mem.tickInstructions(tid, instrPerOption);
        }
    }
    mem.finish();

    prices_ = out_.rawAll();
}

double
BlackscholesWorkload::outputErrorVs(const Workload &golden) const
{
    const auto &ref = dynamic_cast<const BlackscholesWorkload &>(golden);
    lva_assert(ref.prices_.size() == prices_.size(),
               "golden run has different option count");
    lva_assert(!prices_.empty(), "run() must complete first");

    // Percentage of prices with relative error above 1%.
    u64 bad = 0;
    for (std::size_t i = 0; i < prices_.size(); ++i) {
        if (relativeError(prices_[i], ref.prices_[i]) > 0.01)
            ++bad;
    }
    return static_cast<double>(bad) / static_cast<double>(prices_.size());
}

} // namespace lva
