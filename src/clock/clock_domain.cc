#include "clock_domain.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/log.hh"

namespace mcd {

namespace {

constexpr int logBins = 128;        //!< top 7 mantissa bits
constexpr int firstUpperBin = 53;   //!< 1 + 53/128 is just below sqrt 2
constexpr int trigSteps = 256;      //!< sin/cos table steps per turn
constexpr double twoPi = 2.0 * 3.14159265358979323846;

/**
 * Tables behind fastNormalPair, each entry rounded once from a long
 * double evaluation. log: u = 2^e m with m in [1, 2), binned by the top
 * 7 bits of m. Bin k has center C_k, and the bins at and above sqrt 2
 * are taken as m/2 in [0.707, 1) with e + 1, so every u in
 * [0.707, 1) has ln u = ln(C_k/2) + ln(m/C_k) with no e*ln2 term to
 * cancel. The top bin's center is 2, so as u -> 1 the table term is 0
 * and ln u is the polynomial of an exact argument.
 */
struct JitterTables
{
    double center[logBins];
    double invCenter[logBins];
    double logCenter[logBins];  //!< ln(C_k / 2^shift[k])
    double shift[logBins];      //!< 1 for the upper bins, else 0
    double cosTab[trigSteps + 1];
    double sinTab[trigSteps + 1];

    JitterTables()
    {
        for (int k = 0; k < logBins; ++k) {
            double c = k == logBins - 1 ? 2.0 : 1.0 + (k + 0.5) / logBins;
            bool upper = k >= firstUpperBin;
            center[k] = c;
            invCenter[k] = 1.0 / c;
            shift[k] = upper ? 1.0 : 0.0;
            logCenter[k] = static_cast<double>(
                std::log(static_cast<long double>(upper ? c / 2 : c)));
        }
        const long double pi = 3.141592653589793238462643383279502884L;
        for (int n = 0; n <= trigSteps; ++n) {
            long double a = 2 * pi * n / trigSteps;
            cosTab[n] = static_cast<double>(std::cos(a));
            sinTab[n] = static_cast<double>(std::sin(a));
        }
    }
};

const JitterTables &
jitterTables()
{
    static const JitterTables t;
    return t;
}

/** ln u for u in [1e-300, 1): relative error at most 2^-50. */
inline double
fastLog(const JitterTables &t, double u)
{
    std::uint64_t b = std::bit_cast<std::uint64_t>(u);
    int e = static_cast<int>(b >> 52) - 1023;
    int k = static_cast<int>(b >> 45) & (logBins - 1);
    double m = std::bit_cast<double>(
        (b & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
    // m - C_k is exact (same binade); |r| <= 2^-8.
    double r = (m - t.center[k]) * t.invCenter[k];
    // ln(1 + r) to degree 7: the truncation is below 2^-59 |r|.
    double p = r + r * r * (-0.5 + r * (1.0 / 3 + r * (-0.25 + r * (
        0.2 + r * (-1.0 / 6 + r * (1.0 / 7))))));
    return (e + t.shift[k]) * 0.6931471805599453 + t.logCenter[k] + p;
}

/** fastNormalPair with the tables passed in (hoisted out of loops). */
inline NormalPair
fastPair(const JitterTables &t, double u1, double u2)
{
    double r = std::sqrt(-2.0 * fastLog(t, u1));
    // theta = 2 pi (n/256 + d): u2 * 256 and d are exact, |x| <= pi/256.
    double s = u2 * trigSteps;
    int n = static_cast<int>(s + 0.5);
    double x = (s - n) * (twoPi / trigSteps);
    double x2 = x * x;
    double sx = x + x * x2 * (-1.0 / 6 + x2 * (1.0 / 120 + x2 * (-1.0 / 5040)));
    double cx = 1.0 + x2 * (-0.5 + x2 * (1.0 / 24 + x2 * (-1.0 / 720)));
    return {r * (t.cosTab[n] * cx - t.sinTab[n] * sx),
            r * (t.sinTab[n] * cx + t.cosTab[n] * sx)};
}

} // namespace

NormalPair
fastNormalPair(double u1, double u2)
{
    return fastPair(jitterTables(), u1, u2);
}

ClockDomain::ClockDomain(Domain id, Hertz f, std::uint64_t seed,
                         double jitter_sigma_ps, bool randomize_phase)
    : domainId(id), freq(f), jitterSigma(jitter_sigma_ps),
      jitterHi(3.0 * jitter_sigma_ps), rng(seed)
{
    if (f <= 0.0)
        fatal("clock frequency must be positive");
    setPeriod(f);
    Tick phase = 0;
    if (randomize_phase)
        phase = static_cast<Tick>(rng.uniform() * period());
    curEdge = phase;
    nextEdge = scheduleAfter(curEdge);
}

void
ClockDomain::setPeriod(Hertz f)
{
    per = periodPs(f);
    quarterPer = per * 0.25;
    guard = jitterGuardScale * (jitterSigma + per);
}

void
ClockDomain::forceJitterFallback(bool on)
{
    forceFallback = on;
    if (on)
        fastJitter.fill(std::numeric_limits<double>::quiet_NaN());
}

/**
 * Draw the next block's uniforms, in Rng::normal's (u1, u2) order, and
 * turn each pair into its two fast jitter values (cos first, then the
 * sin spare), clamped at +-3 sigma as Rng::normalClamped does. A value
 * clamped with room to spare is the libm value exactly; one within the
 * guard band of the clamp is stored as NaN, which fails every guard
 * test and so takes the libm path.
 */
void
ClockDomain::refillJitter()
{
    for (int k = 0; k < jitterBlock / 2; ++k) {
        pairU1[k] = rng.uniform();
        pairU2[k] = rng.uniform();
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    if (forceFallback) {
        fastJitter.fill(nan);
    } else {
        const double band = jitterGuardScale * jitterSigma;
        auto clamp = [&](double j) {
            double over = std::abs(j) - jitterHi;
            if (over < 0.0)
                return j;
            if (over <= band)
                return nan;
            return j < 0.0 ? -jitterHi : jitterHi;
        };
        const JitterTables &t = jitterTables();
        for (int k = 0; k < jitterBlock / 2; ++k) {
            double u1 = std::max(pairU1[k], Rng::minNormalU1);
            NormalPair z = fastPair(t, u1, pairU2[k]);
            fastJitter[2 * k] = clamp(jitterSigma * z.c);
            fastJitter[2 * k + 1] = clamp(jitterSigma * z.s);
        }
    }
    jitterPos = 0;
}

/**
 * The libm jitter of block value @p i, operation for operation as
 * Rng::normalClamped(0.0, sigma, 3.0) computes it (the zero mean adds
 * nothing): the pair's cos value (sigma * r) * cos, or its sin spare
 * sigma * (r * sin).
 */
double
ClockDomain::exactJitter(int i) const
{
    double r = Rng::normalRadius(pairU1[i / 2]);
    double theta = Rng::normalAngle(pairU2[i / 2]);
    double v = i % 2 == 0 ? jitterSigma * r * std::cos(theta)
                          : jitterSigma * (r * std::sin(theta));
    if (v < -jitterHi)
        return -jitterHi;
    if (v > jitterHi)
        return jitterHi;
    return v;
}

Tick
ClockDomain::scheduleAfter(Tick from)
{
    if (!(jitterSigma > 0.0))
        return from + static_cast<Tick>(per);
    if (jitterPos == jitterBlock)
        refillJitter();
    int i = jitterPos++;

    // Only the truncation of max(p + j, p/4) reaches the Tick, and it
    // is monotone in j: a fast value farther than the guard band from
    // every integer and from p/4 truncates as the libm value does.
    double dt = per + fastJitter[i];
    if (dt - quarterPer > guard) {
        Tick t = static_cast<Tick>(dt);
        double frac = dt - static_cast<double>(t);
        if (frac > guard && frac < 1.0 - guard)
            return from + t;
    } else if (quarterPer - dt > guard) {
        return from + static_cast<Tick>(quarterPer);
    }

    // A clamped fast value is exact; anything else takes libm.
    double j = fastJitter[i];
    if (std::abs(j) != jitterHi) {
        ++fallbacks;
        j = exactJitter(i);
    }
    // Jitter must never push an edge to or before its predecessor.
    dt = per + j;
    if (dt < quarterPer)
        dt = quarterPer;
    return from + static_cast<Tick>(dt);
}

Tick
ClockDomain::advance()
{
    curEdge = nextEdge;
    ++edgeCount;
    nextEdge = scheduleAfter(curEdge);
    return curEdge;
}

void
ClockDomain::setFrequency(Hertz f)
{
    if (f <= 0.0)
        fatal("clock frequency must be positive");
    freq = f;
    setPeriod(f);
}

} // namespace mcd
