/**
 * @file
 * Tests for the shaker algorithm and frequency histograms, the stable
 * radix sort that orders its passes, and the split of the offline
 * tool into a target-independent shake and a per-target clustering.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/shaker.hh"
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
    ev.origDuration = end - start;
    ev.floorStart = 0;
    ev.power = power;
    ev.fu = FuClass::IntAlu;
    g.events.push_back(ev);
    g.out.emplace_back();
    g.in.emplace_back();
    return static_cast<std::int32_t>(g.events.size() - 1);
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
    ShakeResult r = shake(g, cfg, fmax, fmin);
    EXPECT_NEAR(g.events[0].stretch, 4.0, 0.01);
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
    shake(g, cfg, fmax, fmin);
    EXPECT_DOUBLE_EQ(g.events[a].stretch, 1.0);
    EXPECT_DOUBLE_EQ(g.events[b].stretch, 1.0);
    EXPECT_DOUBLE_EQ(g.events[c].stretch, 1.0);
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
    ShakeResult r = shake(g, cfg, fmax, fmin);
    // 9000 ps of slack over 3 events allows full 4x stretch of all.
    EXPECT_NEAR(g.events[a].stretch, 4.0, 0.05);
    EXPECT_NEAR(g.events[b].stretch, 4.0, 0.05);
    EXPECT_NEAR(g.events[c].stretch, 4.0, 0.05);
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
    g.events[b].startCeiling = 11000;
    ShakerConfig cfg;
    shake(g, cfg, fmax, fmin);
    EXPECT_DOUBLE_EQ(g.events[a].stretch, 1.0);
    // b still has the interval tail to stretch into.
    EXPECT_GT(g.events[b].stretch, 3.0);
}

TEST(Shaker, EndCeilingBoundsDeferral)
{
    IntervalGraph g = makeGraph(100000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    g.events[a].endCeiling = 2000;
    ShakerConfig cfg;
    shake(g, cfg, fmax, fmin);
    EXPECT_LE(g.events[a].end, 2000u);
    EXPECT_NEAR(g.events[a].stretch, 2.0, 0.01);
}

TEST(Shaker, StartCeilingBoundsLateness)
{
    IntervalGraph g = makeGraph(100000);
    auto a = addEvent(g, Domain::Integer, 0, 1000);
    auto b = addEvent(g, Domain::Integer, 1000, 2000);
    g.addEdge(a, b);
    g.events[a].startCeiling = 0;       // may not move later at all
    g.events[a].endCeiling = 1500;
    ShakerConfig cfg;
    shake(g, cfg, fmax, fmin);
    EXPECT_EQ(g.events[a].start, 0u);
    EXPECT_LE(g.events[a].end, 1500u);
}

TEST(Shaker, FixedPortionDoesNotScale)
{
    // 100 ns event, 80 ns of which is DRAM time: only 20 ns scales.
    IntervalGraph g = makeGraph(1'000'000);
    auto a = addEvent(g, Domain::LoadStore, 0, 100000);
    g.events[a].fixedPortion = 80000;
    ShakerConfig cfg;
    ShakeResult r = shake(g, cfg, fmax, fmin);
    // Stretch 4x applies to the scalable 20 ns -> event of 160 ns.
    EXPECT_NEAR(static_cast<double>(g.events[a].end - g.events[a].start),
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
    g.events[sinkH].startCeiling = 3500;
    g.events[sinkC].startCeiling = 3500;
    g.events[sinkH].endCeiling = 4000;
    g.events[sinkC].endCeiling = 4000;
    ShakerConfig cfg;
    cfg.maxPasses = 1;      // single backward+forward pair
    shake(g, cfg, fmax, fmin);
    EXPECT_GT(g.events[hot].stretch, g.events[cool].stretch);
}

TEST(Shaker, EmptyGraphIsFine)
{
    IntervalGraph g = makeGraph(1000);
    ShakerConfig cfg;
    ShakeResult r = shake(g, cfg, fmax, fmin);
    EXPECT_EQ(r.passesRun, 0);
    EXPECT_DOUBLE_EQ(r.histogram[1].total(), 0.0);
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
        for (const DagEvent &ev : g.events) {
            EXPECT_GE(ev.stretch, 1.0 - 1e-9);
            EXPECT_LE(ev.stretch, 4.0 + 1e-9);
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
        for (const DagEvent &ev : g.events)
            scalable += static_cast<double>(ev.origDuration -
                                            ev.fixedPortion);
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

/**
 * The shaker as first written: std::stable_sort over whole events and
 * per-node edge vectors. Kept as the oracle the optimized pass must
 * reproduce bit for bit.
 */
ShakeResult
referenceShake(IntervalGraph &g, const ShakerConfig &cfg, Hertz fmax,
               Hertz fmin)
{
    ShakeResult result;
    if (g.events.empty())
        return result;
    auto outSlack = [&](std::int32_t e) {
        const DagEvent &ev = g.events[e];
        Tick bound = std::min(g.intervalEnd, ev.endCeiling);
        for (const DagEdge &s : g.out[e]) {
            Tick limit = g.events[s.to].start;
            limit = limit > static_cast<Tick>(s.lag)
                ? limit - static_cast<Tick>(s.lag) : 0;
            bound = std::min(bound, limit);
        }
        return bound <= ev.end ? 0.0
                               : static_cast<double>(bound - ev.end);
    };
    auto inSlack = [&](std::int32_t e) {
        const DagEvent &ev = g.events[e];
        Tick bound = std::max(g.intervalStart, ev.floorStart);
        for (const DagEdge &p : g.in[e])
            bound = std::max(bound,
                             g.events[p.to].end + static_cast<Tick>(p.lag));
        return bound >= ev.start ? 0.0
                                 : static_cast<double>(ev.start - bound);
    };
    const double maxStretch = std::min(cfg.maxStretch, fmax / fmin);
    std::vector<double> basePower(g.size());
    double maxPower = 0.0;
    double minPower = 1e300;
    for (std::size_t i = 0; i < g.size(); ++i) {
        basePower[i] = g.events[i].power;
        maxPower = std::max(maxPower, basePower[i]);
        minPower = std::min(minPower, basePower[i]);
    }
    double threshold = maxPower * cfg.initialThresholdFactor;
    const double thresholdFloor =
        minPower / (maxStretch * maxStretch) * 0.5;
    std::vector<std::int32_t> order(g.size());
    std::iota(order.begin(), order.end(), 0);
    auto stretch = [&](DagEvent &ev, std::int32_t e, double &slack,
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
                             return g.events[a].end > g.events[b].end;
                         });
        for (std::int32_t e : order) {
            DagEvent &ev = g.events[e];
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
                             return g.events[a].start < g.events[b].start;
                         });
        for (std::int32_t e : order) {
            DagEvent &ev = g.events[e];
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
    for (const DagEvent &ev : g.events) {
        int b = histogramBin(fmax / ev.stretch, fmin, fmax);
        result.histogram[domainIndex(ev.domain)].work[b] +=
            static_cast<double>(ev.origDuration - ev.fixedPortion);
    }
    return result;
}

std::vector<InstTrace>
traceOf(const char *bench, std::uint64_t max_insts = 0)
{
    Program p = workloads::build(bench, 1);
    SimConfig cfg;
    cfg.collectTrace = true;
    cfg.maxInstructions = max_insts;
    McdProcessor proc(cfg, p);
    proc.run();
    return proc.takeTrace();
}

class ShakerOracle : public ::testing::TestWithParam<const char *>
{};

TEST_P(ShakerOracle, MatchesReferenceBitForBit)
{
    std::vector<InstTrace> trace = traceOf(GetParam(), 30000);
    ShakerConfig sc;
    // 10K-cycle intervals: several per trace, at unit-test cost.
    DepGraphConfig gc;
    gc.intervalLength = 10'000'000;
    std::size_t graphs = 0;
    IntervalGraphStream stream(trace, gc);
    IntervalGraph fast;
    while (stream.next(fast)) {
        SCOPED_TRACE(::testing::Message() << "interval " << graphs);
        ++graphs;
        IntervalGraph ref = fast;
        ShakeResult want = referenceShake(ref, sc, fmax, fmin);
        ShakeResult got = shake(fast, sc, fmax, fmin);
        EXPECT_EQ(got.passesRun, want.passesRun);
        EXPECT_EQ(got.slackConsumed, want.slackConsumed);
        for (int d = 0; d < numDomains; ++d)
            for (int b = 0; b < DomainHistogram::bins; ++b)
                ASSERT_EQ(got.histogram[d].work[b],
                          want.histogram[d].work[b])
                    << "domain " << d << " bin " << b;
        ASSERT_EQ(fast.size(), ref.size());
        for (std::size_t i = 0; i < fast.size(); ++i) {
            ASSERT_EQ(fast.events[i].start, ref.events[i].start) << i;
            ASSERT_EQ(fast.events[i].end, ref.events[i].end) << i;
            ASSERT_EQ(fast.events[i].stretch, ref.events[i].stretch) << i;
            ASSERT_EQ(fast.events[i].power, ref.events[i].power) << i;
        }
    }
    EXPECT_GT(graphs, 1u);
}

INSTANTIATE_TEST_SUITE_P(FourKinds, ShakerOracle,
                         ::testing::Values("adpcm", "mcf", "art", "gcc"));

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

} // namespace
} // namespace mcd
