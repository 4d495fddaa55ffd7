/**
 * @file
 * Tests for clock domains and the DVFS operating-point table.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "clock/clock_domain.hh"
#include "clock/operating_points.hh"
#include "common/log.hh"
#include "common/random.hh"

namespace mcd {
namespace {

TEST(ClockDomain, EdgesAreStrictlyMonotone)
{
    ClockDomain c(Domain::Integer, 1e9, 42);
    Tick prev = c.now();
    for (int i = 0; i < 100000; ++i) {
        Tick t = c.advance();
        ASSERT_GT(t, prev);
        prev = t;
    }
}

TEST(ClockDomain, MeanPeriodMatchesFrequency)
{
    ClockDomain c(Domain::Integer, 1e9, 7);
    Tick start = c.now();
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        c.advance();
    double mean = static_cast<double>(c.now() - start) / n;
    EXPECT_NEAR(mean, 1000.0, 2.0);
}

TEST(ClockDomain, JitterSpreadMatchesSigma)
{
    ClockDomain c(Domain::Integer, 1e9, 11);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    Tick prev = c.now();
    for (int i = 0; i < n; ++i) {
        Tick t = c.advance();
        double d = static_cast<double>(t - prev) - 1000.0;
        sum += d;
        sq += d * d;
        prev = t;
    }
    double sigma = std::sqrt(sq / n - (sum / n) * (sum / n));
    EXPECT_NEAR(sigma, defaultJitterSigmaPs, 8.0);
}

TEST(ClockDomain, ZeroJitterIsExact)
{
    ClockDomain c(Domain::Integer, 1e9, 3, 0.0, false);
    Tick prev = c.now();
    for (int i = 0; i < 100; ++i) {
        Tick t = c.advance();
        EXPECT_EQ(t - prev, 1000u);
        prev = t;
    }
}

TEST(ClockDomain, FrequencyChangeAffectsLaterEdges)
{
    ClockDomain c(Domain::Integer, 1e9, 3, 0.0, false);
    c.advance();
    c.setFrequency(500e6);
    // The already-scheduled edge keeps the old period...
    Tick a = c.advance();
    // ...and the next one uses the new one.
    Tick b = c.advance();
    EXPECT_EQ(b - a, 2000u);
    EXPECT_DOUBLE_EQ(c.period(), 2000.0);
}

TEST(ClockDomain, RandomPhaseDiffersAcrossSeeds)
{
    ClockDomain a(Domain::Integer, 1e9, 1);
    ClockDomain b(Domain::Integer, 1e9, 2);
    EXPECT_NE(a.now(), b.now());
}

TEST(ClockDomain, CycleCounting)
{
    ClockDomain c(Domain::FloatingPoint, 1e9, 5);
    EXPECT_EQ(c.cycles(), 0u);
    for (int i = 0; i < 17; ++i)
        c.advance();
    EXPECT_EQ(c.cycles(), 17u);
}

TEST(ClockDomain, RejectsNonPositiveFrequency)
{
    EXPECT_THROW(ClockDomain(Domain::Integer, 0.0, 1), FatalError);
    ClockDomain c(Domain::Integer, 1e9, 1);
    EXPECT_THROW(c.setFrequency(-1.0), FatalError);
}

TEST(ClockDomain, VoltageAccessors)
{
    ClockDomain c(Domain::Integer, 1e9, 1);
    c.setVoltage(0.9);
    EXPECT_DOUBLE_EQ(c.voltage(), 0.9);
}

// -------------------------------------------------------------------
// Fast jitter: differential tests against the libm edge generator.
// -------------------------------------------------------------------

/**
 * The edge generator as it was before the guarded fast jitter path:
 * libm Box-Muller through Rng::normalClamped on every edge. The oracle
 * of the differential tests below.
 */
class ReferenceClock
{
  public:
    ReferenceClock(Hertz f, std::uint64_t seed, double jitter_sigma_ps,
                   bool randomize_phase)
        : freq(f), jitterSigma(jitter_sigma_ps), rng(seed)
    {
        Tick phase = 0;
        if (randomize_phase)
            phase = static_cast<Tick>(rng.uniform() * periodPs(freq));
        nextEdge = scheduleAfter(phase);
    }

    Tick
    advance()
    {
        Tick t = nextEdge;
        nextEdge = scheduleAfter(t);
        return t;
    }

    Tick peekNextEdge() const { return nextEdge; }
    void setFrequency(Hertz f) { freq = f; }

  private:
    Hertz freq;
    double jitterSigma;
    Rng rng;
    Tick nextEdge = 0;

    Tick
    scheduleAfter(Tick from)
    {
        double p = periodPs(freq);
        double j = jitterSigma > 0.0
            ? rng.normalClamped(0.0, jitterSigma, 3.0)
            : 0.0;
        // Jitter must never push an edge to or before its predecessor.
        double dt = p + j;
        if (dt < p * 0.25)
            dt = p * 0.25;
        return from + static_cast<Tick>(dt);
    }
};

/**
 * Walk every DVFS table frequency in a scrambled order, @p edges_per
 * edges each, on a ClockDomain and the reference; returns the number
 * of edges compared. Frequency changes land mid-stream, between two
 * edges, as DVFS makes them.
 */
std::uint64_t
compareWithReference(ClockDomain &c, ReferenceClock &ref, int edges_per)
{
    DvfsTable table;
    std::uint64_t compared = 0;
    EXPECT_EQ(c.peekNextEdge(), ref.peekNextEdge());
    for (int i = 0; i < table.numPoints(); ++i) {
        Hertz f = table.point((i * 13 + 5) % table.numPoints()).frequency;
        c.setFrequency(f);
        ref.setFrequency(f);
        for (int e = 0; e < edges_per; ++e) {
            Tick want = ref.advance();
            Tick got = c.advance();
            if (got != want) {
                ADD_FAILURE() << "edge " << compared << " at " << f
                              << " Hz: " << got << " != " << want;
                return compared;
            }
            ++compared;
        }
    }
    EXPECT_EQ(c.peekNextEdge(), ref.peekNextEdge());
    return compared;
}

TEST(FastJitter, EdgesMatchLibmGenerator)
{
    // 4 sigmas x 32 table frequencies x 80k edges: 10.24M edges.
    std::uint64_t total = 0;
    for (double sigma : {0.0, 1.0, 110.0, 330.0}) {
        std::uint64_t seed = 1000 + static_cast<std::uint64_t>(sigma);
        ClockDomain c(Domain::Integer, 1e9, seed, sigma, true);
        ReferenceClock ref(1e9, seed, sigma, true);
        std::uint64_t n = compareWithReference(c, ref, 80000);
        total += n;
        // The guard band sends almost no edge to libm.
        double rate = static_cast<double>(c.jitterFallbacks()) /
            static_cast<double>(n);
        EXPECT_LT(rate, 1e-3) << "sigma " << sigma;
    }
    EXPECT_GE(total, 10000000u);
}

TEST(FastJitter, ForcedFallbackMatchesLibmGenerator)
{
    // Every edge through the libm path: the fallback alone must
    // reproduce the reference, including the sin spares.
    for (double sigma : {1.0, 110.0, 330.0}) {
        std::uint64_t seed = 77 + static_cast<std::uint64_t>(sigma);
        ClockDomain c(Domain::LoadStore, 1e9, seed, sigma, true);
        ReferenceClock ref(1e9, seed, sigma, true);
        c.forceJitterFallback(true);
        std::uint64_t n = compareWithReference(c, ref, 8000);
        EXPECT_EQ(c.jitterFallbacks(), n) << "sigma " << sigma;
    }
}

TEST(FastJitter, ZeroSigmaDrawsNothing)
{
    ClockDomain c(Domain::Integer, 1e9, 5, 0.0, true);
    for (int i = 0; i < 1000; ++i)
        c.advance();
    EXPECT_EQ(c.jitterFallbacks(), 0u);
}

/** |fast - libm| of both pair members against fastNormalBound * r. */
double
worstBoundRatio(double u1, double u2)
{
    // The libm form, as Rng::normal evaluates it.
    double r = Rng::normalRadius(u1);
    double theta = Rng::normalAngle(u2);
    NormalPair z = fastNormalPair(u1, u2);
    double bound = fastNormalBound * r;
    if (bound == 0.0)
        return 0.0;
    return std::max(std::abs(z.c - r * std::cos(theta)),
                    std::abs(z.s - r * std::sin(theta))) / bound;
}

TEST(FastJitter, NormalPairWithinBound)
{
    const double ulp = 0x1p-53;
    std::vector<double> u1s = {1e-300, ulp, 2 * ulp, 0.5 - ulp / 2, 0.5,
                               0.5 + ulp, std::sqrt(0.5), 0.70703125,
                               0.75, 0.99609375 - ulp, 0.99609375,
                               0.999, 1.0 - 64 * ulp, 1.0 - 2 * ulp,
                               1.0 - ulp};
    // Every log bin edge and center of [0.5, 1), and its neighbors.
    for (int k = 0; k <= 128; ++k) {
        double edge = 0.5 + k / 256.0;
        for (double u : {edge - ulp, edge, edge + ulp, edge + ulp / 512})
            if (u > 0.0 && u < 1.0)
                u1s.push_back(u);
    }
    std::vector<double> u2s = {0.0, ulp, 0.25, 0.5, 0.75, 1.0 - ulp};
    for (int n = 0; n <= 512; ++n) {
        double step = n / 512.0;
        for (double u : {step - ulp, step, step + ulp})
            if (u >= 0.0 && u < 1.0)
                u2s.push_back(u);
    }
    double worst = 0.0;
    for (double u1 : u1s)
        for (double u2 : u2s)
            worst = std::max(worst, worstBoundRatio(u1, u2));

    Rng rng(99);
    for (int i = 0; i < 1000000; ++i) {
        double u1 = rng.uniform();
        double u2 = rng.uniform();
        if (u1 < 1e-300)
            u1 = 1e-300;
        // Also sweep u1 toward 1, where ln u1 is small.
        worst = std::max(worst, worstBoundRatio(u1, u2));
        worst = std::max(worst, worstBoundRatio(1.0 - u1 * 0x1p-20, u2));
    }
    EXPECT_LE(worst, 1.0);
}

TEST(FastJitter, GuardBandCoversBoundTenfold)
{
    // Largest |j_fast - j_libm| an edge can see: r <= sqrt(-2 ln 1e-300)
    // before the clamp, plus one rounding of p + j on each side.
    const double rMax = std::sqrt(-2.0 * std::log(1e-300));
    DvfsTable table;
    for (double sigma : {1.0, 110.0, 330.0}) {
        for (int i = 0; i < table.numPoints(); ++i) {
            double p = periodPs(table.point(i).frequency);
            double worst = sigma * fastNormalBound * rMax +
                2 * 0x1p-52 * (p + 3 * sigma);
            EXPECT_GE(jitterGuardScale * (sigma + p), 10 * worst);
        }
    }
}

TEST(ClockDomain, PeriodIsCachedAcrossFrequencyChanges)
{
    ClockDomain c(Domain::Integer, 1e9, 1);
    EXPECT_EQ(c.period(), periodPs(1e9));
    DvfsTable table;
    for (int i = 0; i < table.numPoints(); ++i) {
        c.setFrequency(table.point(i).frequency);
        EXPECT_EQ(c.period(), periodPs(table.point(i).frequency));
    }
}

// -------------------------------------------------------------------
// DvfsTable.
// -------------------------------------------------------------------

TEST(DvfsTable, PaperDefaults)
{
    DvfsTable t;
    EXPECT_EQ(t.numPoints(), 32);
    EXPECT_DOUBLE_EQ(t.slowest().frequency, 250e6);
    EXPECT_DOUBLE_EQ(t.fastest().frequency, 1e9);
    EXPECT_DOUBLE_EQ(t.slowest().voltage, 0.65);
    EXPECT_DOUBLE_EQ(t.fastest().voltage, 1.2);
}

TEST(DvfsTable, PointsAreLinearAndIncreasing)
{
    DvfsTable t;
    for (int i = 1; i < t.numPoints(); ++i) {
        EXPECT_GT(t.point(i).frequency, t.point(i - 1).frequency);
        EXPECT_GT(t.point(i).voltage, t.point(i - 1).voltage);
    }
    double fstep = t.point(1).frequency - t.point(0).frequency;
    double vstep = t.point(1).voltage - t.point(0).voltage;
    EXPECT_NEAR(fstep, 750e6 / 31, 1.0);
    EXPECT_NEAR(vstep, 0.55 / 31, 1e-9);
}

class DvfsTablePoints : public ::testing::TestWithParam<int>
{};

TEST_P(DvfsTablePoints, VoltageMapConsistency)
{
    DvfsTable t;
    const OperatingPoint &p = t.point(GetParam());
    EXPECT_NEAR(t.voltageFor(p.frequency), p.voltage, 1e-9);
    EXPECT_NEAR(t.frequencyFor(p.voltage), p.frequency, 1.0);
    EXPECT_EQ(t.indexNearest(p.frequency), GetParam());
    EXPECT_EQ(t.indexAtLeast(p.frequency), GetParam());
}

INSTANTIATE_TEST_SUITE_P(All32, DvfsTablePoints, ::testing::Range(0, 32));

TEST(DvfsTable, VoltageClamping)
{
    DvfsTable t;
    EXPECT_DOUBLE_EQ(t.voltageFor(100e6), 0.65);
    EXPECT_DOUBLE_EQ(t.voltageFor(2e9), 1.2);
    EXPECT_DOUBLE_EQ(t.frequencyFor(0.1), 250e6);
    EXPECT_DOUBLE_EQ(t.frequencyFor(2.0), 1e9);
}

TEST(DvfsTable, IndexAtLeastRounding)
{
    DvfsTable t;
    // A frequency between two points must round up.
    Hertz f = (t.point(3).frequency + t.point(4).frequency) / 2;
    EXPECT_EQ(t.indexAtLeast(f), 4);
    EXPECT_EQ(t.indexAtLeast(2e9), 31);
    EXPECT_EQ(t.indexAtLeast(0.0), 0);
}

TEST(DvfsTable, CustomTableValidation)
{
    EXPECT_THROW(DvfsTable(1e9, 1e9, 0.5, 1.0, 4), FatalError);
    EXPECT_THROW(DvfsTable(1e8, 1e9, 0.5, 1.0, 1), FatalError);
    DvfsTable t(1e8, 1e9, 0.5, 1.0, 10);
    EXPECT_EQ(t.numPoints(), 10);
}

} // namespace
} // namespace mcd
