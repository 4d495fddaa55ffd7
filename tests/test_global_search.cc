/**
 * @file
 * Tests for the predicted global-frequency search: against the plain
 * binary search that simulates every visited point, on synthetic
 * degradation tables and on real benchmarks, plus the single-clock
 * scaling relation the prediction rests on.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clock/operating_points.hh"
#include "core/experiment.hh"
#include "core/global_search.hh"
#include "core/processor.hh"
#include "obs/host_prof.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

/** The reference: measure every point the binary search visits. */
struct ReferencePick
{
    int index = -1;
    int calls = 0;
    bool tie = false;   //!< a later visit matched the best distance
};

ReferencePick
referenceSearch(int n, double target,
                const std::function<double(int)> &degradationAt)
{
    ReferencePick ref;
    double bestDist = 1e300;
    int lo = 0;
    int hi = n - 1;
    while (lo <= hi) {
        int mid = (lo + hi) / 2;
        double deg = degradationAt(mid);
        ++ref.calls;
        double dist = std::fabs(deg - target);
        if (dist < bestDist) {
            bestDist = dist;
            ref.index = mid;
        } else if (dist == bestDist) {
            ref.tie = true;
        }
        if (deg > target)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return ref;
}

/**
 * A synthetic table in dyadic arithmetic, so every sum, band and
 * error below is exact: point i predicts (n - 1 - i) / 8, and its
 * measured degradation errs by errs[i] bands.
 */
struct SyntheticTable
{
    static constexpr int n = 32;
    static constexpr double band = 0.0625;
    std::vector<double> predicted;
    std::vector<double> actual;

    explicit SyntheticTable(const std::function<double(int)> &errs)
    {
        for (int i = 0; i < n; ++i) {
            predicted.push_back((n - 1 - i) * 0.125);
            actual.push_back(predicted[i] +
                             errs(i) * band * (1.0 + predicted[i]));
        }
    }

    /** At, between and outside every point, predicted and actual. */
    std::vector<double>
    targets() const
    {
        std::vector<double> t = {-1.0, actual.back() - 0.03125,
                                 actual.front() + 0.5, 100.0};
        for (int i = 0; i < n; ++i) {
            t.push_back(actual[i]);
            t.push_back(predicted[i]);
            if (i + 1 < n) {
                t.push_back((actual[i] + actual[i + 1]) / 2);
                t.push_back((predicted[i] + predicted[i + 1]) / 2);
            }
        }
        return t;
    }
};

/** Run both searches on @p table at @p target; return the pick. */
GlobalPick
checkAgainstReference(const SyntheticTable &table, double target,
                      ReferencePick &ref)
{
    ref = referenceSearch(SyntheticTable::n, target,
                          [&](int i) { return table.actual[i]; });
    std::vector<int> calls(SyntheticTable::n, 0);
    GlobalPick pick = searchGlobalPoint(
        table.predicted, target, SyntheticTable::band, [&](int i) {
            ++calls[i];
            return table.actual[i];
        });
    EXPECT_EQ(pick.index, ref.index) << "target " << target;
    int total = 0;
    for (int c : calls) {
        EXPECT_LE(c, 1) << "a point was measured twice";
        total += c;
    }
    EXPECT_EQ(total, pick.measured);
    if (pick.index >= 0) {
        EXPECT_EQ(calls[pick.index], 1) << "the pick was not measured";
    }
    return pick;
}

TEST(GlobalSearchOracle, ErrorsWithinTheBandPickTheReferencePoint)
{
    const std::vector<std::pair<const char *, std::function<double(int)>>>
        patterns = {
            {"exact", [](int) { return 0.0; }},
            {"+band", [](int) { return 1.0; }},
            {"-band", [](int) { return -1.0; }},
            {"alternating", [](int i) { return i % 2 ? 1.0 : -1.0; }},
            {"mixed", [](int i) { return ((i * 7) % 9 - 4) / 4.0; }},
        };
    int cases = 0;
    int ties = 0;
    int measured = 0;
    int referenceCalls = 0;
    for (const auto &[name, errs] : patterns) {
        SCOPED_TRACE(name);
        SyntheticTable table(errs);
        for (double target : table.targets()) {
            ReferencePick ref;
            GlobalPick pick = checkAgainstReference(table, target, ref);
            // An error exactly at the band's edge is within it.
            EXPECT_FALSE(pick.fellBack) << "target " << target;
            EXPECT_LE(pick.measured, ref.calls) << "target " << target;
            ++cases;
            ties += ref.tie;
            measured += pick.measured;
            referenceCalls += ref.calls;
        }
    }
    // The targets midway between two points make equal distances,
    // which both searches settle on the first point visited.
    EXPECT_GT(ties, 0);
    EXPECT_LT(2 * measured, referenceCalls)
        << measured << " measurements over " << cases << " cases";
}

TEST(GlobalSearchOracle, AnErrorBeyondTheBandFallsBackToTheFullSearch)
{
    // Every point errs by a quarter band past the edge: the first
    // measured point trips the fallback, and the exact walk decides.
    for (double sign : {1.0, -1.0}) {
        SyntheticTable table([&](int) { return sign * 1.25; });
        for (double target : table.targets()) {
            ReferencePick ref;
            GlobalPick pick = checkAgainstReference(table, target, ref);
            EXPECT_TRUE(pick.fellBack) << "target " << target;
            EXPECT_GE(pick.measured, ref.calls) << "target " << target;
        }
    }
    // One stray point, aimed at its own prediction: the search visits
    // it, measures it, falls back, and the pick still matches.
    for (int stray = 0; stray < SyntheticTable::n; ++stray) {
        SyntheticTable table(
            [&](int i) { return i == stray ? 3.0 : 0.0; });
        ReferencePick ref;
        GlobalPick pick =
            checkAgainstReference(table, table.predicted[stray], ref);
        EXPECT_TRUE(pick.fellBack) << "stray " << stray;
    }
}

TEST(GlobalSearchOracle, SinglePointTable)
{
    GlobalPick pick = searchGlobalPoint({0.0}, 0.05, globalBandDetailed,
                                        [](int) { return 0.0; });
    EXPECT_EQ(pick.index, 0);
    EXPECT_EQ(pick.measured, 1);
}

const char *const sampledSpec = "detailed=1000,ff=9000,warmup=250";

/** A global-leg probe's configuration at @p f. */
SimConfig
probeConfig(std::uint64_t seed, bool sampled, Hertz f)
{
    SimConfig sc;
    sc.clocking = ClockingStyle::SingleClock;
    sc.seed = seed;
    if (sampled)
        sc.sampling = SamplingParams::fromSpec(sampledSpec);
    sc.mem.dramScalesWithClock = true;
    sc.domainFrequency = {f, f, f, f};
    return sc;
}

/**
 * The global leg of a real matrix against the reference search on the
 * same target: the benchmarks whose predictions erred most in a
 * 16-benchmark sweep, in full detail and sampled. The leg's probes
 * are counted from its host-profiler spans.
 */
TEST(GlobalSearchOracle, MatrixGlobalLegMatchesTheReferenceSearch)
{
    const DvfsTable table;
    obs::HostProfiler &prof = obs::HostProfiler::instance();
    int legs = 0;
    std::uint64_t probes = 0;
    for (const char *bench : {"swim", "tsp", "gcc", "power"}) {
        for (std::uint64_t seed : {1ull, 1000ull}) {
            for (bool sampled : {false, true}) {
                SCOPED_TRACE(std::string(bench) + " seed " +
                             std::to_string(seed) +
                             (sampled ? " sampled" : " full"));
                ExperimentConfig ec;
                ec.seed = seed;
                if (sampled)
                    ec.sampling = SamplingParams::fromSpec(sampledSpec);
                ec.legs = {LegSpec::scheduleReplay("dyn5", 0.05),
                           LegSpec::globalSearch("global", "dyn5")};
                prof.reset(true);
                BenchmarkResults r =
                    ExperimentRunner(ec).runBenchmark(bench);
                const obs::HostProfiler::Snapshot snap = prof.snapshot();
                prof.reset(false);
                ASSERT_FALSE(r.anyFailed());

                const Program prog = workloads::build(bench, ec.scale);
                std::vector<std::optional<RunResult>> runs(
                    table.numPoints());
                auto degradationAt = [&](int i) {
                    if (!runs[i]) {
                        runs[i] = McdProcessor(
                            probeConfig(seed, sampled,
                                        table.point(i).frequency),
                            prog).run();
                    }
                    return r.perfDegradation(*runs[i]);
                };
                const double target = r.perfDegradation(r.leg("dyn5"));
                ReferencePick ref = referenceSearch(table.numPoints(),
                                                    target, degradationAt);
                EXPECT_EQ(r.globalFrequency,
                          table.point(ref.index).frequency);
                EXPECT_EQ(r.leg("global").execTime,
                          runs[ref.index]->execTime);
                EXPECT_EQ(r.leg("global").totalEnergy,
                          runs[ref.index]->totalEnergy);

                // The same search over the same measurements: no
                // prediction missed its band, and the leg simulated
                // what the search measured.
                std::vector<double> predicted;
                for (int i = 0; i < table.numPoints(); ++i)
                    predicted.push_back(1e9 / table.point(i).frequency -
                                        1.0);
                GlobalPick pick = searchGlobalPoint(
                    predicted, target,
                    sampled ? globalBandSampled : globalBandDetailed,
                    degradationAt);
                EXPECT_EQ(pick.index, ref.index);
                EXPECT_FALSE(pick.fellBack);
                const auto probe = snap.phases.find("probe");
                ASSERT_NE(probe, snap.phases.end());
                EXPECT_EQ(probe->second.count,
                          static_cast<std::uint64_t>(pick.measured));
                EXPECT_LE(pick.measured, ref.calls);
                probes += probe->second.count;
                ++legs;
            }
        }
    }
    std::printf("global legs: %d, probes: %llu, reference: ~5 each\n",
                legs, static_cast<unsigned long long>(probes));
}

/**
 * With no jitter and whole-picosecond periods, a single-clock run
 * with memory latency in core cycles is the same cycle sequence at
 * any frequency: 250 MHz commits the same instructions in exactly
 * four times the 1 GHz time, and energy scales as V².
 */
TEST(SingleClockRelation, QuarterClockIsFourTimesSlowerAtVSquaredEnergy)
{
    const DvfsTable table;
    const double vRatio = table.voltageFor(250e6) / table.voltageFor(1e9);
    for (const char *bench : {"adpcm", "mcf", "art", "swim", "gcc"}) {
        SCOPED_TRACE(bench);
        const Program prog = workloads::build(bench, ExperimentConfig{}.scale);
        auto run = [&](Hertz f) {
            SimConfig sc = probeConfig(1, false, f);
            sc.jitterSigmaPs = 0.0;
            return McdProcessor(sc, prog).run();
        };
        const RunResult fast = run(1e9);
        const RunResult slow = run(250e6);
        EXPECT_EQ(slow.committed, fast.committed);
        EXPECT_EQ(slow.execTime, 4 * fast.execTime);
        // Measured 0.293403 on every benchmark against 0.2934028.
        EXPECT_NEAR(slow.totalEnergy / fast.totalEnergy, vRatio * vRatio,
                    1e-5);
    }
}

} // namespace
} // namespace mcd
