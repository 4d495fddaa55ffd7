/**
 * @file
 * Tests for the shaker algorithm and frequency histograms, the stable
 * radix sort that orders its passes, and the split of the offline
 * tool into a target-independent shake and a per-target clustering.
 */

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/shaker.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "core/processor.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

constexpr Hertz fmax = 1e9;
constexpr Hertz fmin = 250e6;

/** Build a graph by hand. */
IntervalGraph
makeGraph(Tick interval_end)
{
    IntervalGraph g;
    g.intervalStart = 0;
    g.intervalEnd = interval_end;
    return g;
}

std::int32_t
addEvent(IntervalGraph &g, Domain d, Tick start, Tick end,
         double power = 1.0)
{
    DagEvent ev;
    ev.domain = d;
    ev.start = start;
    ev.end = end;
    ev.scalable = static_cast<double>(end - start);
    ev.outBound = g.intervalEnd;
    ev.power = power;
    ev.basePower = power;
    return g.addEvent(ev);
}

/** Bucket the hand-added edges, then shake. */
ShakeResult
shakeGraph(IntervalGraph &g, const ShakerConfig &cfg)
{
    g.buildAdjacency();
    return shake(g, cfg, fmax, fmin);
}

TEST(HistogramBins, MappingIsConsistent)
{
    EXPECT_EQ(histogramBin(fmin, fmin, fmax), 0);
    EXPECT_EQ(histogramBin(fmax, fmin, fmax), DomainHistogram::bins - 1);
    EXPECT_EQ(histogramBin(0.0, fmin, fmax), 0);
    EXPECT_EQ(histogramBin(2e9, fmin, fmax), DomainHistogram::bins - 1);
}

class BinSweep : public ::testing::TestWithParam<int>
{};

TEST_P(BinSweep, CenterFrequencyMapsBack)
{
    int b = GetParam();
    Hertz f = histogramBinFreq(b, fmin, fmax);
    EXPECT_EQ(histogramBin(f, fmin, fmax), b);
    EXPECT_GE(f, fmin);
    EXPECT_LE(f, fmax);
}

INSTANTIATE_TEST_SUITE_P(Every16th, BinSweep,
                         ::testing::Range(0, DomainHistogram::bins, 16));

TEST(Shaker, LoneEventStretchesToQuarterFrequency)
{
    IntervalGraph g = makeGraph(100000);
    addEvent(g, Domain::Integer, 0, 1000);
    ShakerConfig cfg;
    ShakeResult r = shakeGraph(g, cfg);
    EXPECT_NEAR(g.stretch[0], 4.0, 0.01);
    // All work lands in the lowest bin.
    EXPECT_GT(r.histogram[1].work[0], 0.0);
    EXPECT_NEAR(r.histogram[1].total(), 1000.0, 1.0);
}

TEST(Shaker, TightChainCannotStretch)
{
    IntervalGraph g = makeGraph(3000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    auto b = addEvent(g, Domain::Integer, 1000, 2000);
    auto c = addEvent(g, Domain::Integer, 2000, 3000);
    g.addEdge(a, b);
    g.addEdge(b, c);
    ShakerConfig cfg;
    shakeGraph(g, cfg);
    EXPECT_DOUBLE_EQ(g.stretch[a], 1.0);
    EXPECT_DOUBLE_EQ(g.stretch[b], 1.0);
    EXPECT_DOUBLE_EQ(g.stretch[c], 1.0);
}

TEST(Shaker, ChainWithTailSlackDistributes)
{
    // Three-event chain ending well before the interval end: the
    // shaker should absorb the tail slack into stretches.
    IntervalGraph g = makeGraph(12000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    auto b = addEvent(g, Domain::Integer, 1000, 2000);
    auto c = addEvent(g, Domain::Integer, 2000, 3000);
    g.addEdge(a, b);
    g.addEdge(b, c);
    ShakerConfig cfg;
    ShakeResult r = shakeGraph(g, cfg);
    // 9000 ps of slack over 3 events allows full 4x stretch of all.
    EXPECT_NEAR(g.stretch[a], 4.0, 0.05);
    EXPECT_NEAR(g.stretch[b], 4.0, 0.05);
    EXPECT_NEAR(g.stretch[c], 4.0, 0.05);
    EXPECT_GT(r.slackConsumed, 8500.0);
}

TEST(Shaker, EdgeLagIsNotSlack)
{
    IntervalGraph g = makeGraph(20000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    auto b = addEvent(g, Domain::Integer, 11000, 12000);
    // The 10 ns gap is a fixed (front-end refill) latency, not slack;
    // b is pinned at its dispatch slot like a real post-mispredict
    // instruction (occupancy ceilings do this in full graphs).
    g.addEdge(a, b, 10000);
    g.startCeiling[b] = 11000;
    ShakerConfig cfg;
    shakeGraph(g, cfg);
    EXPECT_DOUBLE_EQ(g.stretch[a], 1.0);
    // b still has the interval tail to stretch into.
    EXPECT_GT(g.stretch[b], 3.0);
}

TEST(Shaker, EndCeilingBoundsDeferral)
{
    IntervalGraph g = makeGraph(100000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    g.outBound[a] = 2000;
    ShakerConfig cfg;
    shakeGraph(g, cfg);
    EXPECT_LE(g.end[a], 2000u);
    EXPECT_NEAR(g.stretch[a], 2.0, 0.01);
}

TEST(Shaker, StartCeilingBoundsLateness)
{
    IntervalGraph g = makeGraph(100000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    auto b = addEvent(g, Domain::Integer, 1000, 2000);
    g.addEdge(a, b);
    g.startCeiling[a] = 0;       // may not move later at all
    g.outBound[a] = 1500;
    ShakerConfig cfg;
    shakeGraph(g, cfg);
    EXPECT_EQ(g.start[a], 0u);
    EXPECT_LE(g.end[a], 1500u);
}

TEST(Shaker, FixedPortionDoesNotScale)
{
    // 100 ns event, 80 ns of which is DRAM time: only 20 ns scales.
    IntervalGraph g = makeGraph(1'000'000);
    auto a = addEvent(g, Domain::LoadStore, 0, 100000);
    g.fixed[a] = 80000;
    g.scalable[a] -= 80000;
    ShakerConfig cfg;
    ShakeResult r = shakeGraph(g, cfg);
    // Stretch 4x applies to the scalable 20 ns -> event of 160 ns.
    EXPECT_NEAR(static_cast<double>(g.end[a] - g.start[a]),
                160000.0, 500.0);
    // Histogram counts only the scalable work.
    EXPECT_NEAR(r.histogram[3].total(), 20000.0, 1.0);
}

TEST(Shaker, HighPowerEventsScaleFirst)
{
    // Two independent events, one hot and one cool, with only enough
    // shared slack for roughly one of them: the hot one must win.
    IntervalGraph g = makeGraph(4000);
    auto hot = addEvent(g, Domain::Integer, 0, 1000, 2.0);
    auto cool = addEvent(g, Domain::Integer, 0, 1000, 1.0);
    auto sinkH = addEvent(g, Domain::Integer, 3500, 4000, 0.1);
    auto sinkC = addEvent(g, Domain::Integer, 3500, 4000, 0.1);
    g.addEdge(hot, sinkH);
    g.addEdge(cool, sinkC);
    g.startCeiling[sinkH] = 3500;
    g.startCeiling[sinkC] = 3500;
    g.outBound[sinkH] = 4000;
    g.outBound[sinkC] = 4000;
    ShakerConfig cfg;
    cfg.maxPasses = 1;      // single backward+forward pair
    shakeGraph(g, cfg);
    EXPECT_GT(g.stretch[hot], g.stretch[cool]);
}

TEST(Shaker, EmptyGraphIsFine)
{
    IntervalGraph g = makeGraph(1000);
    ShakerConfig cfg;
    ShakeResult r = shakeGraph(g, cfg);
    EXPECT_EQ(r.passesRun, 0);
    EXPECT_DOUBLE_EQ(r.histogram[1].total(), 0.0);
}

TEST(Shaker, UnbucketedEdgesAreABug)
{
    // Edges added after the last buildAdjacency() (or an event added
    // after it) would be invisible to the passes; shake() refuses.
    IntervalGraph g = makeGraph(10000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    g.buildAdjacency();
    auto b = addEvent(g, Domain::Integer, 2000, 3000);
    ShakerConfig cfg;
    EXPECT_THROW(shake(g, cfg, fmax, fmin), PanicError);
    g.buildAdjacency();
    g.addEdge(a, b);
    EXPECT_THROW(shake(g, cfg, fmax, fmin), PanicError);
    // An edge naming no event is caught when it is bucketed.
    g.addEdge(a, 7);
    EXPECT_THROW(g.buildAdjacency(), PanicError);
}

TEST(Shaker, TerminatesWithinConfiguredPasses)
{
    Program p = workloads::build("gcc", 1);
    SimConfig cfg;
    cfg.collectTrace = true;
    cfg.maxInstructions = 15000;
    McdProcessor proc(cfg, p);
    proc.run();
    DepGraphConfig gc;
    auto gs = buildIntervalGraphs(proc.trace().trace(), gc);
    ShakerConfig sc;
    for (IntervalGraph &g : gs) {
        ShakeResult r = shake(g, sc, fmax, fmin);
        EXPECT_LE(r.passesRun, sc.maxPasses);
        for (double stretch : g.stretch) {
            EXPECT_GE(stretch, 1.0 - 1e-9);
            EXPECT_LE(stretch, 4.0 + 1e-9);
        }
    }
}

TEST(Shaker, HistogramConservesScalableWork)
{
    Program p = workloads::build("epic", 1);
    SimConfig cfg;
    cfg.collectTrace = true;
    cfg.maxInstructions = 15000;
    McdProcessor proc(cfg, p);
    proc.run();
    DepGraphConfig gc;
    auto gs = buildIntervalGraphs(proc.trace().trace(), gc);
    ShakerConfig sc;
    for (IntervalGraph &g : gs) {
        double scalable = 0.0;
        for (double work : g.scalable)
            scalable += work;
        ShakeResult r = shake(g, sc, fmax, fmin);
        double total = 0.0;
        for (int d = 0; d < numDomains; ++d)
            total += r.histogram[d].total();
        EXPECT_NEAR(total, scalable, scalable * 1e-9 + 1.0);
    }
}

// ------------------------------------------------- stable radix sort

/** The permutation std::stable_sort produces on @p items. */
std::vector<KeyedIndex>
stableSorted(std::vector<KeyedIndex> items, bool descending)
{
    std::stable_sort(items.begin(), items.end(),
                     [descending](const KeyedIndex &a,
                                  const KeyedIndex &b) {
                         return descending ? a.key > b.key
                                           : a.key < b.key;
                     });
    return items;
}

void
expectSameOrder(const std::vector<KeyedIndex> &got,
                const std::vector<KeyedIndex> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].idx, want[i].idx) << "position " << i;
        ASSERT_EQ(got[i].key, want[i].key) << "position " << i;
    }
}

TEST(StableRadixSort, TrivialInputs)
{
    std::vector<KeyedIndex> scratch;
    for (bool desc : {false, true}) {
        std::vector<KeyedIndex> none;
        stableRadixSort(none, desc, scratch);
        EXPECT_TRUE(none.empty());

        std::vector<KeyedIndex> one{{42, 7}};
        stableRadixSort(one, desc, scratch);
        EXPECT_EQ(one[0].idx, 7);

        // All keys equal: the input order is already the answer.
        std::vector<KeyedIndex> same{{5, 3}, {5, 1}, {5, 2}, {5, 0}};
        std::vector<KeyedIndex> want = same;
        stableRadixSort(same, desc, scratch);
        expectSameOrder(same, want);
    }
}

TEST(StableRadixSort, MatchesStableSortPermutation)
{
    // Seeded property test over four key shapes: heavy ties (a
    // handful of distinct keys), dense picosecond-like keys, keys
    // wider than 2^33 over a span wider than 2^33, and the full 64-bit
    // range. Indices are a shuffled permutation, so ties check
    // stability against the input order rather than index values.
    Rng rng = streamRng(0x5eed, "radix-sort");
    std::vector<KeyedIndex> scratch;
    for (int trial = 0; trial < 160; ++trial) {
        const std::size_t n = 2 + rng.uniformInt(3000);
        const int shape = trial % 4;
        const std::uint64_t base = (1ULL << 40) + rng.uniformInt(1ULL << 40);
        std::vector<KeyedIndex> items(n);
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t key = 0;
            switch (shape) {
              case 0: key = base + rng.uniformInt(4); break;
              case 1: key = rng.uniformInt(50'000'000); break;
              case 2: key = base + rng.uniformInt(1ULL << 36); break;
              default: key = rng.next(); break;
            }
            items[i].key = key;
            items[i].idx = static_cast<std::int32_t>(i);
        }
        for (std::size_t i = n - 1; i > 0; --i)
            std::swap(items[i].idx, items[rng.uniformInt(i + 1)].idx);
        for (bool desc : {false, true}) {
            SCOPED_TRACE(::testing::Message() << "trial " << trial
                         << " shape " << shape << " n " << n
                         << (desc ? " descending" : " ascending"));
            std::vector<KeyedIndex> got = items;
            stableRadixSort(got, desc, scratch);
            expectSameOrder(got, stableSorted(items, desc));
        }
    }
}

// ------------------------------------------ shaker vs. its reference

/** One event of the reference shaker: the whole event as one struct,
 *  as the graph first stored it. */
struct RefEvent
{
    Domain domain = Domain::Integer;
    Tick start = 0;
    Tick end = 0;
    Tick origDuration = 0;
    Tick fixedPortion = 0;
    Tick floorStart = 0;
    Tick startCeiling = ~Tick(0);
    Tick endCeiling = ~Tick(0);
    double stretch = 1.0;
    double power = 0.0;
};

/** @p g's events, copied out of its columns into the reference's own
 *  structs. */
std::vector<RefEvent>
refEvents(const IntervalGraph &g)
{
    std::vector<RefEvent> events(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        RefEvent &ev = events[i];
        ev.domain = g.domain[i];
        ev.start = g.start[i];
        ev.end = g.end[i];
        ev.fixedPortion = static_cast<Tick>(g.fixed[i]);
        ev.origDuration = static_cast<Tick>(g.scalable[i]) + ev.fixedPortion;
        ev.floorStart = g.inBound[i];
        ev.startCeiling = g.startCeiling[i];
        ev.endCeiling = g.outBound[i];
        ev.stretch = g.stretch[i];
        ev.power = g.power[i];
    }
    return events;
}

/**
 * The shaker as first written: std::stable_sort over whole events and
 * per-node edge vectors. Kept as the oracle the optimized pass must
 * reproduce bit for bit. It shakes @p events (a copy of @p g's, see
 * refEvents()) and reads only the interval bounds and the adjacency
 * of @p g.
 */
ShakeResult
referenceShake(const IntervalGraph &g, std::vector<RefEvent> &events,
               const ShakerConfig &cfg, Hertz fmax, Hertz fmin)
{
    ShakeResult result;
    if (events.empty())
        return result;
    auto outSlack = [&](std::int32_t e) {
        const RefEvent &ev = events[e];
        Tick bound = std::min(g.intervalEnd, ev.endCeiling);
        for (const DagEdge &s : g.succ(e)) {
            Tick limit = events[s.to].start;
            limit = limit > static_cast<Tick>(s.lag)
                ? limit - static_cast<Tick>(s.lag) : 0;
            bound = std::min(bound, limit);
        }
        return bound <= ev.end ? 0.0
                               : static_cast<double>(bound - ev.end);
    };
    auto inSlack = [&](std::int32_t e) {
        const RefEvent &ev = events[e];
        Tick bound = std::max(g.intervalStart, ev.floorStart);
        for (const DagEdge &p : g.pred(e))
            bound = std::max(bound,
                             events[p.to].end + static_cast<Tick>(p.lag));
        return bound >= ev.start ? 0.0
                                 : static_cast<double>(ev.start - bound);
    };
    const double maxStretch = std::min(cfg.maxStretch, fmax / fmin);
    std::vector<double> basePower(events.size());
    double maxPower = 0.0;
    double minPower = 1e300;
    for (std::size_t i = 0; i < events.size(); ++i) {
        basePower[i] = events[i].power;
        maxPower = std::max(maxPower, basePower[i]);
        minPower = std::min(minPower, basePower[i]);
    }
    double threshold = maxPower * cfg.initialThresholdFactor;
    const double thresholdFloor =
        minPower / (maxStretch * maxStretch) * 0.5;
    std::vector<std::int32_t> order(events.size());
    std::iota(order.begin(), order.end(), 0);
    auto stretch = [&](RefEvent &ev, std::int32_t e, double &slack,
                       bool later) {
        double scalable =
            static_cast<double>(ev.origDuration - ev.fixedPortion);
        double add = std::min(slack, scalable * (maxStretch - ev.stretch));
        if (later)
            ev.end += static_cast<Tick>(add);
        else
            ev.start -= static_cast<Tick>(add);
        ev.stretch = (static_cast<double>(ev.end - ev.start) -
                      static_cast<double>(ev.fixedPortion)) / scalable;
        ev.power = basePower[e] / (ev.stretch * ev.stretch);
        slack -= add;
        result.slackConsumed += add;
    };
    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
        bool scaled = false;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::int32_t a, std::int32_t b) {
                             return events[a].end > events[b].end;
                         });
        for (std::int32_t e : order) {
            RefEvent &ev = events[e];
            double slack = outSlack(e);
            if (slack <= 0.0)
                continue;
            if (ev.power >= threshold && ev.stretch < maxStretch) {
                stretch(ev, e, slack, true);
                scaled = true;
            }
            if (slack > 0.0) {
                Tick shift = ev.startCeiling > ev.start
                    ? std::min(static_cast<Tick>(slack),
                               ev.startCeiling - ev.start)
                    : 0;
                ev.start += shift;
                ev.end += shift;
            }
        }
        threshold *= cfg.thresholdDecay;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::int32_t a, std::int32_t b) {
                             return events[a].start < events[b].start;
                         });
        for (std::int32_t e : order) {
            RefEvent &ev = events[e];
            double slack = inSlack(e);
            if (slack <= 0.0)
                continue;
            if (ev.power >= threshold && ev.stretch < maxStretch) {
                stretch(ev, e, slack, false);
                scaled = true;
            }
            if (slack > 0.0) {
                ev.start -= static_cast<Tick>(slack);
                ev.end -= static_cast<Tick>(slack);
            }
        }
        threshold *= cfg.thresholdDecay;
        result.passesRun = pass + 1;
        if (!scaled && threshold < thresholdFloor)
            break;
    }
    for (const RefEvent &ev : events) {
        int b = histogramBin(fmax / ev.stretch, fmin, fmax);
        result.histogram[domainIndex(ev.domain)].work[b] +=
            static_cast<double>(ev.origDuration - ev.fixedPortion);
    }
    return result;
}

std::vector<InstTrace>
traceOf(const char *bench, std::uint64_t max_insts = 0,
        std::uint64_t seed = 1)
{
    Program p = workloads::build(bench, 1);
    SimConfig cfg;
    cfg.collectTrace = true;
    cfg.maxInstructions = max_insts;
    cfg.seed = seed;
    McdProcessor proc(cfg, p);
    proc.run();
    return proc.takeTrace();
}

/** Expect @p got (and its shaken graph @p fast) to equal @p want
 *  (and the reference's events @p ref) bit for bit. */
void
expectSameShake(const ShakeResult &got, const IntervalGraph &fast,
                const ShakeResult &want, const std::vector<RefEvent> &ref)
{
    EXPECT_EQ(got.passesRun, want.passesRun);
    EXPECT_EQ(got.slackConsumed, want.slackConsumed);
    for (int d = 0; d < numDomains; ++d)
        for (int b = 0; b < DomainHistogram::bins; ++b)
            ASSERT_EQ(got.histogram[d].work[b], want.histogram[d].work[b])
                << "domain " << d << " bin " << b;
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        ASSERT_EQ(fast.start[i], ref[i].start) << i;
        ASSERT_EQ(fast.end[i], ref[i].end) << i;
        ASSERT_EQ(fast.stretch[i], ref[i].stretch) << i;
        ASSERT_EQ(fast.power[i], ref[i].power) << i;
    }
}

/** Shake @p g with the shaker and with the reference (on a copy of
 *  its events), and expect the same result bit for bit. */
ShakeResult
expectShakeMatchesReference(IntervalGraph &g, const ShakerConfig &sc)
{
    std::vector<RefEvent> ref = refEvents(g);
    ShakeResult want = referenceShake(g, ref, sc, fmax, fmin);
    ShakeResult got = shake(g, sc, fmax, fmin);
    expectSameShake(got, g, want, ref);
    return got;
}

/**
 * Stream @p trace's interval graphs under @p gc, and expect every
 * shake to match the reference. Returns each interval's event count.
 */
std::vector<std::size_t>
expectTraceShakesMatchReference(const std::vector<InstTrace> &trace,
                                const DepGraphConfig &gc)
{
    ShakerConfig sc;
    std::vector<std::size_t> sizes;
    bool capped = false;
    long walked = 0;
    long run = 0;
    IntervalGraphStream stream(trace, gc);
    IntervalGraph fast;
    while (stream.next(fast)) {
        SCOPED_TRACE(::testing::Message() << "interval " << sizes.size());
        sizes.push_back(fast.size());
        ShakeResult got = expectShakeMatchesReference(fast, sc);
        EXPECT_LE(got.passesWalked, got.passesRun);
        capped |= got.passesRun == sc.maxPasses;
        walked += got.passesWalked;
        run += got.passesRun;
    }
    // Where the reference runs into the cap, the fixed-point exit
    // must have spared some of those pairs.
    if (capped) {
        EXPECT_LT(walked, run);
    }
    return sizes;
}

std::vector<const char *>
allBenchmarks()
{
    std::vector<const char *> names;
    for (const WorkloadInfo &w : workloads::all())
        names.push_back(w.name);
    return names;
}

class ShakerOracle
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{};

TEST_P(ShakerOracle, MatchesReferenceBitForBit)
{
    const auto [bench, seed] = GetParam();
    std::vector<InstTrace> trace = traceOf(bench, 30000, seed);
    // 10K-cycle intervals: several per trace, at unit-test cost.
    DepGraphConfig gc;
    gc.intervalLength = 10'000'000;
    EXPECT_GT(expectTraceShakesMatchReference(trace, gc).size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ShakerOracle,
    ::testing::Combine(::testing::ValuesIn(allBenchmarks()),
                       ::testing::Values(1, 1000)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_seed" +
            std::to_string(std::get<1>(info.param));
    });

class ShakerOracleFullSize : public ::testing::TestWithParam<const char *>
{};

TEST_P(ShakerOracleFullSize, MatchesReferenceBitForBit)
{
    // The whole trace at the default 50K-cycle intervals: the
    // intervals that set the offline tool's peak memory (g721's
    // largest holds about 129K events, tsp's about 81K).
    std::vector<std::size_t> sizes = expectTraceShakesMatchReference(
        traceOf(GetParam(), 0, 1), DepGraphConfig{});
    ASSERT_FALSE(sizes.empty());
    EXPECT_GT(*std::max_element(sizes.begin(), sizes.end()), 50'000u);
}

INSTANTIATE_TEST_SUITE_P(PeakIntervals, ShakerOracleFullSize,
                         ::testing::Values("g721", "tsp"));

TEST(ShakerFixedPoint, SubPicosecondStretchStopsTheWalk)
{
    // An event 1 ps short of the stretch cap, where that 1 ps comes
    // out of the floating-point product scalable * (cap - stretch) a
    // hair below 1.0: the add truncates to 0 ticks, so nothing moves,
    // yet the stretch counts as scaling and the reference walks every
    // pair. Find such a scalable duration.
    ShakerConfig sc;
    Tick scalable = 0;
    for (Tick s = 2; s < 100000 && !scalable; ++s) {
        double stretch = static_cast<double>(4 * s - 1) /
            static_cast<double>(s);
        if (static_cast<double>(s) * (sc.maxStretch - stretch) < 1.0)
            scalable = s;
    }
    ASSERT_GT(scalable, 0u);

    // The event sits at 4 * scalable - 1 ps, with the interval's
    // slack beside it.
    IntervalGraph g = makeGraph(1'000'000);
    auto e = addEvent(g, Domain::Integer, 0, 4 * scalable - 1);
    g.scalable[e] = static_cast<double>(scalable);
    g.stretch[e] = static_cast<double>(4 * scalable - 1) /
        static_cast<double>(scalable);
    g.buildAdjacency();
    const IntervalGraph fresh = g;

    ShakeResult got = expectShakeMatchesReference(g, sc);
    EXPECT_EQ(got.passesRun, sc.maxPasses);
    EXPECT_LT(got.passesWalked, sc.maxPasses / 2);
    EXPECT_LT(g.stretch[e], sc.maxStretch);

    // A rising threshold (decay above 1) would block those stretches
    // in later pairs, so no fixed point may be taken for granted.
    sc.thresholdDecay = 1.1;
    sc.initialThresholdFactor = 0.001;
    g = fresh;
    got = expectShakeMatchesReference(g, sc);
    EXPECT_EQ(got.passesWalked, got.passesRun);
}

TEST(ShakerFixedPoint, SmallRandomGraphsMatchTheReference)
{
    // Seeded property test over tiny graphs, where thresholds, shifts
    // and stretch caps interact in more ways than real traces show:
    // powers below and above the threshold, events already near the
    // cap, tight ceilings, lagged edges, times on a coarse grid (ties
    // in the visiting order), and decays inside and outside the
    // bounds the fixed-point exit relies on.
    Rng rng = streamRng(0x5eed, "shaker-fixed-point");
    const double powers[] = {0.05, 0.3, 0.8, 1.0, 2.0};
    const double decays[] = {0.9, 0.5, 1.0, 0.0, 1.1};
    long walked = 0;
    long run = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial);
        ShakerConfig sc;
        sc.thresholdDecay = decays[trial % 5];
        sc.initialThresholdFactor = trial % 3 ? 0.99 : 0.3;
        const Tick len = 2000 + rng.uniformInt(20000);
        const Tick grain = trial % 2 ? 1 : 250;
        IntervalGraph g = makeGraph(len);
        const int n = 1 + static_cast<int>(rng.uniformInt(6));
        for (int i = 0; i < n; ++i) {
            Tick start = grain * rng.uniformInt(len / 2 / grain);
            Tick dur = grain * (1 + rng.uniformInt(len / 4 / grain));
            auto e = addEvent(g, static_cast<Domain>(1 + rng.uniformInt(3)),
                              start, start + dur,
                              powers[rng.uniformInt(5)]);
            if (rng.uniformInt(3) == 0) {
                // Already stretched: the scalable work is a fraction
                // of the observed duration, sometimes just short of
                // the cap.
                Tick work = std::max<Tick>(1, (dur + 1) / 4);
                double stretch = static_cast<double>(dur) /
                    static_cast<double>(work);
                if (stretch <= 4.0) {
                    g.scalable[e] = static_cast<double>(work);
                    g.stretch[e] = stretch;
                }
            }
            if (rng.uniformInt(4) == 0)
                g.startCeiling[e] = start + rng.uniformInt(len / 8);
            if (rng.uniformInt(4) == 0)
                g.outBound[e] = std::min(
                    len, start + dur + rng.uniformInt(len / 4));
        }
        for (int a = 0; a < n; ++a)
            for (int b = a + 1; b < n; ++b)
                if (rng.uniformInt(3) == 0)
                    g.addEdge(a, b, rng.uniformInt(2) ? 0 :
                              static_cast<std::int64_t>(
                                  rng.uniformInt(500)));
        g.buildAdjacency();
        ShakeResult got = expectShakeMatchesReference(g, sc);
        if (::testing::Test::HasFatalFailure())
            return;
        walked += got.passesWalked;
        run += got.passesRun;
    }
    EXPECT_LT(walked, run);
}

// ------------------------------------- shake once, cluster per target

void
expectSameAnalysis(const AnalysisResult &got, const AnalysisResult &want)
{
    EXPECT_EQ(got.intervals, want.intervals);
    EXPECT_EQ(got.eventsTotal, want.eventsTotal);
    EXPECT_EQ(got.slackConsumed, want.slackConsumed);
    const auto &ge = got.schedule.all();
    const auto &we = want.schedule.all();
    ASSERT_EQ(ge.size(), we.size());
    for (std::size_t i = 0; i < ge.size(); ++i) {
        EXPECT_EQ(ge[i].when, we[i].when) << "entry " << i;
        EXPECT_EQ(ge[i].domain, we[i].domain) << "entry " << i;
        EXPECT_EQ(ge[i].frequency, we[i].frequency) << "entry " << i;
    }
    for (int d = 0; d < numDomains; ++d) {
        ASSERT_EQ(got.plans[d].size(), want.plans[d].size());
        for (std::size_t i = 0; i < got.plans[d].size(); ++i) {
            EXPECT_EQ(got.plans[d][i].start, want.plans[d][i].start);
            EXPECT_EQ(got.plans[d][i].end, want.plans[d][i].end);
            EXPECT_EQ(got.plans[d][i].frequency,
                      want.plans[d][i].frequency);
        }
    }
}

/** The offline tool as one materialized pipeline: every interval's
 *  graph built up front, shaken, then clustered. */
AnalysisResult
materializedAnalysis(const std::vector<InstTrace> &trace,
                     const AnalyzerConfig &ac)
{
    AnalysisResult r;
    std::vector<IntervalGraph> graphs =
        buildIntervalGraphs(trace, ac.graph);
    std::vector<IntervalHistos> histos;
    for (IntervalGraph &g : graphs) {
        r.eventsTotal += g.size();
        ShakeResult sr = shake(g, ac.shaker, ac.clustering.fmax,
                               ac.clustering.fmin);
        r.slackConsumed += sr.slackConsumed;
        histos.push_back({g.intervalStart, g.intervalEnd, sr.histogram});
    }
    r.intervals = histos.size();
    ClusterResult cr = ClusterPhase(ac.clustering).run(histos);
    r.schedule = std::move(cr.schedule);
    r.plans = std::move(cr.plans);
    return r;
}

class ShakeOnce : public ::testing::TestWithParam<const char *>
{};

TEST_P(ShakeOnce, OneShakeClustersLikeAFreshAnalysisPerTarget)
{
    std::vector<InstTrace> trace = traceOf(GetParam());
    // One shake, reused read-only by every target.
    const ShakenTrace shaken = OfflineAnalyzer(OfflineAnalyzer::configFor(
        0.05, DvfsKind::XScale)).shakeTrace(trace);
    EXPECT_GT(shaken.intervals.size(), 1u);
    for (double d : {0.01, 0.05, 0.10}) {
        SCOPED_TRACE(::testing::Message() << "d = " << d);
        OfflineAnalyzer analyzer(
            OfflineAnalyzer::configFor(d, DvfsKind::XScale));
        AnalysisResult split = analyzer.cluster(shaken);
        expectSameAnalysis(split, analyzer.analyze(trace));
        expectSameAnalysis(split, materializedAnalysis(trace,
                                                       analyzer.cfg()));
        EXPECT_FALSE(split.schedule.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(AdpcmMcf, ShakeOnce,
                         ::testing::Values("adpcm", "mcf"));

/**
 * The offline tool's shake of @p bench as the experiment engine runs
 * it: the profiling run streams each interval as it closes, and each
 * is shaken on its own (here in order, on this thread).
 */
ShakenTrace
streamedShake(const char *bench, const OfflineAnalyzer &analyzer)
{
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, workloads::build(bench, 1));
    const DepGraphConfig &gc = analyzer.cfg().graph;
    ShakenTrace out;
    proc.streamTrace({gc.intervalLength, robLookahead(gc),
                      [&](IntervalRecords iv) {
                          EXPECT_EQ(iv.index, out.intervals.size());
                          IntervalGraph g = analyzer.buildInterval(
                              iv.records, iv.count, "interval");
                          out.append(analyzer.shakeInterval(g, "interval"));
                      }});
    proc.run();
    // Nothing of the trace is left behind.
    EXPECT_EQ(proc.trace().size(), 0u);
    return out;
}

class StreamedShake : public ::testing::TestWithParam<const char *>
{};

TEST_P(StreamedShake, MatchesTheWholeTraceShakeUnderEitherModel)
{
    const char *bench = GetParam();
    // The batch reference: every graph built from the whole trace,
    // then shaken in order. The shake reads no DVFS model, so one
    // reference serves both.
    const AnalyzerConfig ref = OfflineAnalyzer::configFor(0.05,
                                                          DvfsKind::XScale);
    std::vector<IntervalGraph> graphs =
        buildIntervalGraphs(traceOf(bench), ref.graph);
    std::vector<ShakeResult> want;
    std::size_t events = 0;
    double slack = 0.0;
    for (IntervalGraph &g : graphs) {
        events += g.size();
        want.push_back(shake(g, ref.shaker, ref.clustering.fmax,
                             ref.clustering.fmin));
        slack += want.back().slackConsumed;
    }

    for (DvfsKind model : {DvfsKind::XScale, DvfsKind::Transmeta}) {
        SCOPED_TRACE(dvfsKindName(model));
        const ShakenTrace got = streamedShake(
            bench, OfflineAnalyzer(OfflineAnalyzer::configFor(0.05, model)));
        ASSERT_EQ(got.intervals.size(), graphs.size());
        for (std::size_t k = 0; k < graphs.size(); ++k) {
            SCOPED_TRACE(::testing::Message() << "interval " << k);
            const IntervalHistos &h = got.intervals[k];
            EXPECT_EQ(h.start, graphs[k].intervalStart);
            EXPECT_EQ(h.end, graphs[k].intervalEnd);
            for (int d = 0; d < numDomains; ++d)
                for (int b = 0; b < DomainHistogram::bins; ++b)
                    ASSERT_EQ(h.hist[d].work[b], want[k].histogram[d].work[b])
                        << "domain " << d << " bin " << b;
        }
        EXPECT_EQ(got.eventsTotal, events);
        EXPECT_EQ(got.slackConsumed, slack);    // bit for bit
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, StreamedShake,
                         ::testing::ValuesIn(allBenchmarks()));

} // namespace
} // namespace mcd
