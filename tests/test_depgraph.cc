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

/** A graph as the builder first wrote it: per-node edge vectors. */
struct RefGraph
{
    Tick intervalStart = 0;
    Tick intervalEnd = 0;
    std::vector<DagEvent> events;
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
            DagEvent ev;
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
                DagEvent &me = g.events[ie.memEvent];
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
        for (const DagEvent &ev : g.events)
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
                    DagEvent &ev = g.events[v[i2]];
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

/** Expect two events to agree on every field the builder sets. */
void
expectSameEvent(const DagEvent &a, const DagEvent &b)
{
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.origDuration, b.origDuration);
    EXPECT_EQ(a.fixedPortion, b.fixedPortion);
    EXPECT_EQ(a.floorStart, b.floorStart);
    EXPECT_EQ(a.startCeiling, b.startCeiling);
    EXPECT_EQ(a.endCeiling, b.endCeiling);
    EXPECT_EQ(a.stretch, b.stretch);
    EXPECT_EQ(a.power, b.power);
    EXPECT_EQ(a.fu, b.fu);
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
        expectSameEvent(g.events[i], ref.events[i]);
        expectSameEdges(g.succ(i), ref.out[i]);
        expectSameEdges(g.pred(i), ref.in[i]);
    }
}

/**
 * Build @p trace's graphs with the stream and with
 * buildIntervalGraphs, and expect each to match the reference. The
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
    EXPECT_EQ(gs[0].events[0].domain, Domain::Integer);
    EXPECT_EQ(gs[0].events[0].start, 2000u);
    // End carries the half-period completion skew.
    EXPECT_EQ(gs[0].events[0].end, 3000u + cfg.completionSkew);
    EXPECT_EQ(gs[0].events[0].floorStart, 1000u);
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
    EXPECT_EQ(gs[0].events[0].domain, Domain::Integer);     // addr-calc
    EXPECT_EQ(gs[0].events[1].domain, Domain::LoadStore);   // access
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
    EXPECT_EQ(gs[0].events[1].fixedPortion, 80000u);
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
    EXPECT_EQ(g.events[0].startCeiling, g.events[2].floorStart);
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
        for (const DagEvent &ev : g.events) {
            EXPECT_GT(ev.end, ev.start);
            EXPECT_GT(ev.origDuration, 0u);
            EXPECT_LT(ev.fixedPortion, ev.origDuration);
            EXPECT_GT(ev.power, 0.0);
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
