/**
 * @file
 * Tests for the dependence-DAG builder: hand-made traces, real
 * workloads, and the CSR build against a per-node-vector reference
 * build, also on seq values no dense index could hold.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <unordered_map>

#include <gtest/gtest.h>

#include "analysis/dep_graph.hh"
#include "core/processor.hh"
#include "workloads/workloads.hh"

// While armed, every operator new larger than allocLimit throws
// instead of allocating, so a test can show that a build allocates
// nothing sized by the range of seq values (without ever trying to).
// The nothrow form goes through the same check, so every block the
// deletes below release came from malloc. Kept out of line, so the
// compiler sees no malloc/delete pairing at the call sites.
namespace {
std::atomic<bool> allocArmed{false};
constexpr std::size_t allocLimit = std::size_t{1} << 24;
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (allocArmed.load(std::memory_order_relaxed) && n > allocLimit)
        throw std::bad_alloc();
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return ::operator new(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mcd {
namespace {

std::vector<InstTrace>
traceOf(const Program &p, std::uint64_t max_insts = 0)
{
    SimConfig cfg;
    cfg.collectTrace = true;
    cfg.maxInstructions = max_insts;
    McdProcessor proc(cfg, p);
    proc.run();
    return proc.trace().trace();
}

/** A synthetic trace with controlled timestamps. */
InstTrace
mkInst(std::uint64_t seq, Opcode op, Tick dispatch, Tick issue,
       Tick done, std::uint64_t dep1 = 0)
{
    InstTrace t;
    t.seq = seq;
    t.op = op;
    t.dep1 = dep1;
    t.dispatchTime = dispatch;
    t.issueTime = issue;
    t.execDone = done;
    return t;
}

/** Expect two edge lists to hold the same (to, lag) multiset. */
void
expectSameEdges(std::span<const DagEdge> got, std::span<const DagEdge> want)
{
    auto sorted = [](std::span<const DagEdge> edges) {
        std::vector<std::pair<std::int32_t, std::int32_t>> v;
        for (const DagEdge &e : edges)
            v.emplace_back(e.to, e.lag);
        std::sort(v.begin(), v.end());
        return v;
    };
    EXPECT_EQ(sorted(got), sorted(want));
}

/** An event as the builder first wrote it: one struct per event. */
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
    FuClass fu = FuClass::None;
};

/** A graph as the builder first wrote it: an event array and
 *  per-node edge vectors. */
struct RefGraph
{
    Tick intervalStart = 0;
    Tick intervalEnd = 0;
    std::vector<RefEvent> events;
    std::vector<std::vector<DagEdge>> out;
    std::vector<std::vector<DagEdge>> in;

    void
    addEdge(std::int32_t from, std::int32_t to, std::int64_t lag = 0)
    {
        if (from < 0 || to < 0 || from == to)
            return;
        if (lag < 0)
            lag = 0;
        auto l32 = static_cast<std::int32_t>(
            std::min<std::int64_t>(lag, 0x7fffffff));
        out[from].push_back({to, l32});
        in[to].push_back({from, l32});
    }
};

/**
 * The DAG builder as first written: an unordered_map from seq to
 * events per interval, per-node edge vectors, and a map per domain
 * for the functional units. Kept as the oracle the CSR build must
 * match (same events; same edge multiset per node).
 */
std::vector<RefGraph>
referenceGraphs(const std::vector<InstTrace> &trace,
                const DepGraphConfig &cfg)
{
    struct InstEvents
    {
        std::int32_t execEvent = -1;
        std::int32_t memEvent = -1;
        bool isLoad = false;
    };
    std::vector<RefGraph> graphs;
    std::size_t pos = 0;
    while (pos < trace.size()) {
        RefGraph g;
        const Tick len = cfg.intervalLength;
        Tick k = trace[pos].dispatchTime / len;
        g.intervalStart = k * len;
        g.intervalEnd = (k + 1) * len;
        std::size_t first = pos;
        while (pos < trace.size() && trace[pos].dispatchTime / len == k)
            ++pos;
        std::unordered_map<std::uint64_t, InstEvents> bySeq;
        auto addEvent = [&](Domain d, Tick s, Tick e,
                            FuClass fu) -> std::int32_t {
            RefEvent ev;
            ev.domain = d;
            ev.start = s;
            ev.end = e > s ? e : s + 1;
            ev.origDuration = ev.end - ev.start;
            ev.floorStart = ev.start;
            ev.power = cfg.domainPower[domainIndex(d)];
            ev.fu = fu;
            g.events.push_back(ev);
            return static_cast<std::int32_t>(g.events.size() - 1);
        };
        for (std::size_t i = first; i < pos; ++i) {
            const InstTrace &t = trace[i];
            if (t.op == Opcode::NOP || t.op == Opcode::HALT)
                continue;
            InstEvents ie;
            Tick skew = cfg.completionSkew;
            if (t.isMem()) {
                ie.execEvent = addEvent(Domain::Integer, t.issueTime,
                                        t.execDone + skew,
                                        FuClass::IntAlu);
                ie.memEvent = addEvent(Domain::LoadStore, t.memIssue,
                                       t.memDone + skew,
                                       FuClass::MemPort);
                RefEvent &me = g.events[ie.memEvent];
                me.fixedPortion =
                    std::min(t.memFixed, me.origDuration - 1);
                ie.isLoad = t.isLoadOp();
            } else {
                ie.execEvent = addEvent(opInfo(t.op).execDomain,
                                        t.issueTime, t.execDone + skew,
                                        opInfo(t.op).fu);
            }
            g.events[ie.execEvent].floorStart = t.dispatchTime;
            std::size_t robPeer = i + static_cast<std::size_t>(
                cfg.core.robSize * cfg.occupancyMargin);
            if (robPeer < trace.size()) {
                Tick ceil = trace[robPeer].dispatchTime;
                g.events[ie.execEvent].endCeiling = ceil;
                if (ie.memEvent >= 0)
                    g.events[ie.memEvent].endCeiling = ceil;
            }
            bySeq.emplace(t.seq, ie);
        }
        Tick maxEnd = g.intervalStart + 1;
        for (const RefEvent &ev : g.events)
            maxEnd = std::max(maxEnd, ev.end);
        g.intervalEnd = std::min(g.intervalEnd, maxEnd);
        g.out.resize(g.events.size());
        g.in.resize(g.events.size());
        auto resultEvent = [&](std::uint64_t seq) -> std::int32_t {
            auto it = bySeq.find(seq);
            if (it == bySeq.end())
                return -1;
            const InstEvents &p = it->second;
            return p.isLoad ? p.memEvent : p.execEvent;
        };
        std::int32_t controlBarrier = -1;
        for (std::size_t i = first; i < pos; ++i) {
            const InstTrace &t = trace[i];
            auto it = bySeq.find(t.seq);
            if (it == bySeq.end())
                continue;
            const InstEvents &ie = it->second;
            if (controlBarrier >= 0) {
                std::int64_t gap =
                    static_cast<std::int64_t>(
                        g.events[ie.execEvent].start) -
                    static_cast<std::int64_t>(
                        g.events[controlBarrier].end);
                g.addEdge(controlBarrier, ie.execEvent, gap);
            }
            if (t.mispredicted)
                controlBarrier = ie.execEvent;
            if (t.dep1)
                g.addEdge(resultEvent(t.dep1), ie.execEvent);
            if (t.dep2) {
                std::int32_t target =
                    (t.isMem() && !t.isLoadOp() && ie.memEvent >= 0)
                    ? ie.memEvent : ie.execEvent;
                g.addEdge(resultEvent(t.dep2), target);
            }
            if (ie.memEvent >= 0)
                g.addEdge(ie.execEvent, ie.memEvent);
        }
        std::vector<std::int32_t> byDomain[numDomains];
        for (std::size_t e = 0; e < g.events.size(); ++e)
            byDomain[domainIndex(g.events[e].domain)].push_back(
                static_cast<std::int32_t>(e));
        for (int d = 0; d < numDomains; ++d) {
            auto &v = byDomain[d];
            std::stable_sort(v.begin(), v.end(),
                             [&](std::int32_t a, std::int32_t b) {
                                 return g.events[a].start <
                                     g.events[b].start;
                             });
        }
        auto queueCap = [&](Domain d) {
            switch (d) {
              case Domain::Integer: return cfg.core.intIssueQueueSize;
              case Domain::FloatingPoint:
                return cfg.core.fpIssueQueueSize;
              case Domain::LoadStore: return cfg.core.lsqSize;
              default: return 0;
            }
        };
        for (int d = 1; d < numDomains; ++d) {
            const auto &v = byDomain[d];
            int cap = queueCap(static_cast<Domain>(d));
            int dcap = static_cast<int>(
                queueCap(static_cast<Domain>(d)) * cfg.occupancyMargin);
            for (std::size_t i2 = 0; i2 < v.size(); ++i2) {
                if (cap > 0 && i2 >= static_cast<std::size_t>(cap))
                    g.addEdge(v[i2 - cap], v[i2]);
                if (dcap > 0 && i2 + dcap < v.size()) {
                    RefEvent &ev = g.events[v[i2]];
                    ev.startCeiling = std::min(
                        ev.startCeiling,
                        g.events[v[i2 + dcap]].floorStart);
                }
            }
            std::unordered_map<int, std::vector<std::int32_t>> byFu;
            for (std::int32_t e : v)
                byFu[static_cast<int>(g.events[e].fu)].push_back(e);
            for (auto &[fu, list] : byFu) {
                int units = cfg.fuCount(static_cast<FuClass>(fu));
                if (units <= 0)
                    continue;
                for (std::size_t i2 = units; i2 < list.size(); ++i2)
                    g.addEdge(list[i2 - units], list[i2]);
            }
        }
        graphs.push_back(std::move(g));
    }
    return graphs;
}

/** Expect event @p i of @p g to hold what the shaker reads of the
 *  reference event @p b: the same times, and the bounds, durations
 *  and powers derived from its fields. (The FU class only orders
 *  edges, which expectSameGraph compares.) */
void
expectSameEvent(const IntervalGraph &g, std::size_t i, const RefGraph &ref)
{
    const RefEvent &b = ref.events[i];
    EXPECT_EQ(g.domain[i], b.domain);
    EXPECT_EQ(g.start[i], b.start);
    EXPECT_EQ(g.end[i], b.end);
    EXPECT_EQ(g.stretch[i], b.stretch);
    EXPECT_EQ(g.power[i], b.power);
    EXPECT_EQ(g.inBound[i], std::max(ref.intervalStart, b.floorStart));
    EXPECT_EQ(g.outBound[i], std::min(ref.intervalEnd, b.endCeiling));
    EXPECT_EQ(g.startCeiling[i], b.startCeiling);
    EXPECT_EQ(g.scalable[i],
              static_cast<double>(b.origDuration - b.fixedPortion));
    EXPECT_EQ(g.fixed[i], static_cast<double>(b.fixedPortion));
    EXPECT_EQ(g.basePower[i], b.power);
}

/** Expect @p g to equal @p ref: the same events, and the same edge
 *  multiset at every node. */
void
expectSameGraph(const IntervalGraph &g, const RefGraph &ref)
{
    EXPECT_EQ(g.intervalStart, ref.intervalStart);
    EXPECT_EQ(g.intervalEnd, ref.intervalEnd);
    ASSERT_EQ(g.size(), ref.events.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "event " << i);
        expectSameEvent(g, i, ref);
        expectSameEdges(g.succ(i), ref.out[i]);
        expectSameEdges(g.pred(i), ref.in[i]);
    }
}

/** One interval as the collector streamed it, and how many records
 *  had been recorded when it was handed over. */
struct Streamed
{
    IntervalRecords iv;
    std::size_t recorded = 0;
};

/** Feed @p trace through a streaming collector cut for @p cfg, and
 *  keep what it hands over, in order. */
std::vector<Streamed>
streamIntervals(const std::vector<InstTrace> &trace,
                const DepGraphConfig &cfg)
{
    std::vector<Streamed> out;
    std::size_t recorded = 0;
    TraceCollector c;
    c.stream({cfg.intervalLength, robLookahead(cfg),
              [&](IntervalRecords iv) {
                  out.push_back({std::move(iv), recorded});
              }});
    for (const InstTrace &t : trace) {
        ++recorded;
        c.record(t);
    }
    c.flush();
    EXPECT_EQ(c.size(), 0u);
    return out;
}

/**
 * Build @p trace's graphs with the stream, with buildIntervalGraphs
 * and from a streaming collector's intervals, and expect each to
 * match the reference. The
 * stream reuses one graph object, as the analyzer does, so nothing of
 * one interval may leak into the next; its builds run under the
 * allocation guard.
 */
void
expectMatchesReference(const std::vector<InstTrace> &trace,
                       const DepGraphConfig &cfg)
{
    const std::vector<RefGraph> want = referenceGraphs(trace, cfg);
    IntervalGraphStream stream(trace, cfg);
    IntervalGraph g;
    std::size_t n = 0;
    while (true) {
        allocArmed = true;
        bool more = stream.next(g);
        allocArmed = false;
        if (!more)
            break;
        ASSERT_LT(n, want.size());
        SCOPED_TRACE(::testing::Message() << "interval " << n);
        expectSameGraph(g, want[n++]);
    }
    EXPECT_EQ(n, want.size());
    // An exhausted stream stays exhausted.
    EXPECT_FALSE(stream.next(g));

    std::vector<IntervalGraph> all = buildIntervalGraphs(trace, cfg);
    ASSERT_EQ(all.size(), want.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "materialized " << i);
        expectSameGraph(all[i], want[i]);
    }

    std::vector<Streamed> cut = streamIntervals(trace, cfg);
    ASSERT_EQ(cut.size(), want.size());
    for (std::size_t i = 0; i < cut.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "streamed " << i);
        EXPECT_EQ(cut[i].iv.index, i);
        buildIntervalGraph(cut[i].iv.records, cut[i].iv.count, cfg, g);
        expectSameGraph(g, want[i]);
    }
}

TEST(DepGraph, EmptyTraceYieldsNoGraphs)
{
    DepGraphConfig cfg;
    EXPECT_TRUE(buildIntervalGraphs({}, cfg).empty());
}

TEST(DepGraph, SingleInstructionGraph)
{
    DepGraphConfig cfg;
    std::vector<InstTrace> tr = {mkInst(1, Opcode::ADD, 1000, 2000, 3000)};
    auto gs = buildIntervalGraphs(tr, cfg);
    ASSERT_EQ(gs.size(), 1u);
    EXPECT_EQ(gs[0].size(), 1u);
    EXPECT_EQ(gs[0].domain[0], Domain::Integer);
    EXPECT_EQ(gs[0].start[0], 2000u);
    // End carries the half-period completion skew.
    EXPECT_EQ(gs[0].end[0], 3000u + cfg.completionSkew);
    // Dispatch is the earliest start.
    EXPECT_EQ(gs[0].inBound[0], 1000u);
}

TEST(DepGraph, DataDependenceEdge)
{
    DepGraphConfig cfg;
    std::vector<InstTrace> tr = {
        mkInst(1, Opcode::ADD, 1000, 2000, 2500),
        mkInst(2, Opcode::ADD, 1000, 4000, 4500, 1),
    };
    auto gs = buildIntervalGraphs(tr, cfg);
    ASSERT_EQ(gs.size(), 1u);
    const IntervalGraph &g = gs[0];
    ASSERT_EQ(g.size(), 2u);
    bool found = false;
    for (const DagEdge &e : g.succ(0))
        found |= (e.to == 1);
    EXPECT_TRUE(found);
}

TEST(DepGraph, MemOpsSplitIntoTwoEvents)
{
    DepGraphConfig cfg;
    InstTrace ld = mkInst(1, Opcode::LD, 1000, 2000, 2500);
    ld.memIssue = 3000;
    ld.memDone = 5000;
    auto gs = buildIntervalGraphs({ld}, cfg);
    ASSERT_EQ(gs[0].size(), 2u);
    EXPECT_EQ(gs[0].domain[0], Domain::Integer);     // addr-calc
    EXPECT_EQ(gs[0].domain[1], Domain::LoadStore);   // access
    // addr-calc -> mem-access intra-instruction edge.
    bool intra = false;
    for (const DagEdge &e : gs[0].succ(0))
        intra |= (e.to == 1);
    EXPECT_TRUE(intra);
}

TEST(DepGraph, DramPortionRecordedAsFixed)
{
    DepGraphConfig cfg;
    InstTrace ld = mkInst(1, Opcode::LD, 1000, 2000, 2500);
    ld.memIssue = 3000;
    ld.memDone = 100000;
    ld.memFixed = 80000;
    auto gs = buildIntervalGraphs({ld}, cfg);
    EXPECT_EQ(gs[0].fixed[1], 80000.0);
    EXPECT_EQ(gs[0].scalable[1], 100000.0 + cfg.completionSkew - 3000 -
              80000);
}

TEST(DepGraph, MispredictBarrierCarriesLag)
{
    DepGraphConfig cfg;
    InstTrace br = mkInst(1, Opcode::BEQ, 1000, 2000, 2500);
    br.mispredicted = true;
    InstTrace next = mkInst(2, Opcode::ADD, 12000, 13000, 13500);
    auto gs = buildIntervalGraphs({br, next}, cfg);
    const IntervalGraph &g = gs[0];
    ASSERT_EQ(g.size(), 2u);
    bool found = false;
    for (const DagEdge &e : g.succ(0)) {
        if (e.to == 1) {
            found = true;
            // Lag = observed refill gap: next.start - branch.end.
            EXPECT_EQ(e.lag, static_cast<std::int32_t>(
                          13000 - (2500 + cfg.completionSkew)));
        }
    }
    EXPECT_TRUE(found);
}

TEST(DepGraph, IntervalSlicingByDispatchTime)
{
    DepGraphConfig cfg;
    cfg.intervalLength = 10000;
    std::vector<InstTrace> tr = {
        mkInst(1, Opcode::ADD, 1000, 2000, 2500),
        mkInst(2, Opcode::ADD, 9000, 9500, 9900),
        mkInst(3, Opcode::ADD, 11000, 12000, 12500),
    };
    auto gs = buildIntervalGraphs(tr, cfg);
    ASSERT_EQ(gs.size(), 2u);
    EXPECT_EQ(gs[0].size(), 2u);
    EXPECT_EQ(gs[1].size(), 1u);
    EXPECT_EQ(gs[0].intervalStart, 0u);
    EXPECT_EQ(gs[1].intervalStart, 10000u);
}

TEST(DepGraph, PartialIntervalClampsEnd)
{
    DepGraphConfig cfg;
    cfg.intervalLength = 1'000'000;
    std::vector<InstTrace> tr = {mkInst(1, Opcode::ADD, 100, 200, 900)};
    auto gs = buildIntervalGraphs(tr, cfg);
    // The interval must not pretend to run to 1 ms.
    EXPECT_LE(gs[0].intervalEnd, 900u + cfg.completionSkew);
}

TEST(DepGraph, QueueCapacityCeilings)
{
    DepGraphConfig cfg;
    cfg.core.intIssueQueueSize = 4;
    cfg.occupancyMargin = 0.5;
    std::vector<InstTrace> tr;
    for (int i = 0; i < 8; ++i) {
        tr.push_back(mkInst(i + 1, Opcode::ADD, 1000 + i * 100,
                            5000 + i * 100, 5400 + i * 100));
    }
    auto gs = buildIntervalGraphs(tr, cfg);
    const IntervalGraph &g = gs[0];
    // Event 0 must start before event 2 (= 0 + derated cap) dispatches.
    EXPECT_EQ(g.startCeiling[0], g.inBound[2]);
}

TEST(DepGraph, EdgesBucketedTwiceKeepTheEarlierOnes)
{
    // Bucketing frees the added list; a later bucketing must still
    // see the edges bucketed before, beside the new ones.
    IntervalGraph g;
    for (int i = 0; i < 3; ++i)
        g.addEvent(DagEvent{});
    g.addEdge(0, 1, 7);
    g.buildAdjacency();
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    EXPECT_FALSE(g.hasAdjacency());
    g.buildAdjacency();
    ASSERT_TRUE(g.hasAdjacency());
    expectSameEdges(g.succ(0), std::vector<DagEdge>{{1, 7}, {2, 0}});
    expectSameEdges(g.succ(1), std::vector<DagEdge>{{2, 0}});
    expectSameEdges(g.pred(2), std::vector<DagEdge>{{1, 0}, {0, 0}});
    expectSameEdges(g.pred(1), std::vector<DagEdge>{{0, 7}});
    EXPECT_TRUE(g.succ(2).empty());
}

class WorkloadGraphs : public ::testing::TestWithParam<const char *>
{};

TEST_P(WorkloadGraphs, AcyclicAndWellFormed)
{
    Program p = workloads::build(GetParam(), 1);
    std::vector<InstTrace> tr = traceOf(p, 20000);
    DepGraphConfig cfg;
    auto gs = buildIntervalGraphs(tr, cfg);
    ASSERT_FALSE(gs.empty());
    std::size_t events = 0;
    for (const IntervalGraph &g : gs) {
        EXPECT_TRUE(g.isAcyclic());
        events += g.size();
        for (std::size_t i = 0; i < g.size(); ++i) {
            EXPECT_GT(g.end[i], g.start[i]);
            EXPECT_GE(g.fixed[i], 0.0);
            EXPECT_GT(g.scalable[i], 0.0);
            EXPECT_GT(g.power[i], 0.0);
        }
        // Every edge endpoint is in range.
        for (std::size_t i = 0; i < g.size(); ++i) {
            for (const DagEdge &e : g.succ(i)) {
                ASSERT_GE(e.to, 0);
                ASSERT_LT(static_cast<std::size_t>(e.to), g.size());
            }
        }
    }
    // At least one event per non-NOP instruction.
    EXPECT_GE(events, tr.size() - 10);
}

TEST_P(WorkloadGraphs, StreamAndBatchMatchTheReferenceBuild)
{
    Program p = workloads::build(GetParam(), 1);
    std::vector<InstTrace> tr = traceOf(p, 20000);
    DepGraphConfig cfg;
    cfg.intervalLength = 5'000'000;    // several intervals per trace
    ASSERT_GT(buildIntervalGraphs(tr, cfg).size(), 1u);
    expectMatchesReference(tr, cfg);
}

INSTANTIATE_TEST_SUITE_P(FourKinds, WorkloadGraphs,
                         ::testing::Values("g721", "mcf", "swim",
                                           "treeadd"));

/** @p n ADDs in interval @p k of @p cfg, seqs from @p seq on. */
void
appendRun(std::vector<InstTrace> &tr, const DepGraphConfig &cfg,
          std::uint64_t k, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const Tick d = k * cfg.intervalLength + 1000 * (i + 1);
        tr.push_back(mkInst(tr.size() + 1, Opcode::ADD, d, d + 500,
                            d + 900));
    }
}

TEST(IntervalCutter, ShortIntervalsWaitForLookaheadTwoIntervalsAhead)
{
    // Interval 1 and 2 hold 10 records each, so the ROB ceilings of
    // interval 1 read 40 records on, in the run after interval 2; that
    // run returns to interval 0, with earlier dispatch times, so the
    // ceilings it gives are visible. The last run, interval 3, is a
    // partial interval with no lookahead at all.
    DepGraphConfig cfg;
    const std::size_t la = robLookahead(cfg);
    ASSERT_EQ(la, 40u);
    std::vector<InstTrace> tr;
    appendRun(tr, cfg, 0, 50);
    appendRun(tr, cfg, 1, 10);
    appendRun(tr, cfg, 2, 10);
    appendRun(tr, cfg, 0, 50);      // interval 0 recurs
    appendRun(tr, cfg, 3, 20);
    expectMatchesReference(tr, cfg);

    const std::vector<Streamed> cut = streamIntervals(tr, cfg);
    ASSERT_EQ(cut.size(), 5u);
    // Each interval is handed over once its lookahead has arrived,
    // not sooner; the last two only at flush, with what was left.
    const std::size_t count[] = {50, 10, 10, 50, 20};
    const std::size_t size[] = {90, 50, 50, 70, 20};
    const std::size_t recorded[] = {90, 100, 110, 140, 140};
    for (std::size_t k = 0; k < cut.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "interval " << k);
        EXPECT_EQ(cut[k].iv.index, k);
        EXPECT_EQ(cut[k].iv.count, count[k]);
        EXPECT_EQ(cut[k].iv.records.size(), size[k]);
        EXPECT_EQ(cut[k].recorded, recorded[k]);
    }

    // Interval 1's first record has its ceiling in the recurring run,
    // two intervals ahead: record 50 + 40 is that run's 21st.
    IntervalGraph g;
    buildIntervalGraph(cut[1].iv.records, cut[1].iv.count, cfg, g);
    EXPECT_EQ(g.intervalStart, cfg.intervalLength);
    EXPECT_EQ(g.outBound[0], tr[90].dispatchTime);
    EXPECT_LT(g.outBound[0], g.intervalStart);
    // The recurring run is an interval of its own, at interval 0.
    buildIntervalGraph(cut[3].iv.records, cut[3].iv.count, cfg, g);
    EXPECT_EQ(g.intervalStart, 0u);
    EXPECT_EQ(g.size(), 50u);
}

TEST(IntervalCutter, FinalPartialIntervalClosesAtFlush)
{
    DepGraphConfig cfg;
    std::vector<InstTrace> tr;
    appendRun(tr, cfg, 4, 100);
    appendRun(tr, cfg, 5, 30);      // fewer than the lookahead
    expectMatchesReference(tr, cfg);

    const std::vector<Streamed> cut = streamIntervals(tr, cfg);
    ASSERT_EQ(cut.size(), 2u);
    // The first waits for 30 records only: the trace has no more.
    EXPECT_EQ(cut[0].recorded, 130u);
    EXPECT_EQ(cut[0].iv.records.size(), 130u);
    EXPECT_EQ(cut[1].iv.count, 30u);
    EXPECT_EQ(cut[1].iv.records.size(), 30u);
    // Its end is clamped to the work observed, not the full interval.
    IntervalGraph g;
    buildIntervalGraph(cut[1].iv.records, cut[1].iv.count, cfg, g);
    EXPECT_LT(g.intervalEnd, 6 * cfg.intervalLength);

    // A run with no records hands over nothing; one record, one
    // interval.
    EXPECT_TRUE(streamIntervals({}, cfg).empty());
    EXPECT_EQ(streamIntervals({tr[0]}, cfg).size(), 1u);
}

TEST(IntervalCutter, BuilderRejectsAnEmptyInterval)
{
    DepGraphConfig cfg;
    std::vector<InstTrace> tr;
    appendRun(tr, cfg, 0, 3);
    IntervalGraph g;
    EXPECT_THROW(buildIntervalGraph(tr, 0, cfg, g), PanicError);
    EXPECT_THROW(buildIntervalGraph(tr, 4, cfg, g), PanicError);
}

/** A short real trace whose seqs (and the deps naming them) are
 *  rewritten by @p remap. */
template <typename Remap>
std::vector<InstTrace>
remappedTrace(Remap remap)
{
    Program p = workloads::build("mcf", 1);
    std::vector<InstTrace> tr = traceOf(p, 3000);
    for (InstTrace &t : tr) {
        t.seq = remap(t.seq);
        if (t.dep1)
            t.dep1 = remap(t.dep1);
        if (t.dep2)
            t.dep2 = remap(t.dep2);
    }
    return tr;
}

TEST(DepGraphSeqs, DescendingSeqs)
{
    expectMatchesReference(
        remappedTrace([](std::uint64_t s) {
            return 1'000'000 - s;
        }),
        DepGraphConfig{});
}

TEST(DepGraphSeqs, SparseSeqs)
{
    // Seqs 2^40 apart: a dense index would need petabytes.
    expectMatchesReference(
        remappedTrace([](std::uint64_t s) {
            return s << 40;
        }),
        DepGraphConfig{});
}

TEST(DepGraphSeqs, SeqsNearTheTopOfTheRange)
{
    expectMatchesReference(
        remappedTrace([](std::uint64_t s) {
            return ~std::uint64_t{0} - 5000 + s;
        }),
        DepGraphConfig{});
    // Both ends of the range in one interval.
    expectMatchesReference(
        remappedTrace([](std::uint64_t s) {
            return s % 2 ? ~std::uint64_t{0} - s : s;
        }),
        DepGraphConfig{});
}

TEST(DepGraphSeqs, DuplicateSeqsResolveToTheFirstInstruction)
{
    // Seqs repeat, in order (each twice) and out of order (wrapping
    // modulo 97): a dependence names the first instruction that
    // carried its seq.
    expectMatchesReference(
        remappedTrace([](std::uint64_t s) {
            return (s + 1) / 2;
        }),
        DepGraphConfig{});
    expectMatchesReference(
        remappedTrace([](std::uint64_t s) {
            return 1 + s % 97;
        }),
        DepGraphConfig{});
}

TEST(DepGraphSeqs, AllocationGuardRefusesLargeRequests)
{
    // The guard the seq tests rely on: a request over the limit fails
    // while armed.
    allocArmed = true;
    void *p = nullptr;
    bool refused = false;
    try {
        p = ::operator new(allocLimit + 1);
    } catch (const std::bad_alloc &) {
        refused = true;
    }
    allocArmed = false;
    ::operator delete(p);
    EXPECT_TRUE(refused);
}

} // namespace
} // namespace mcd
