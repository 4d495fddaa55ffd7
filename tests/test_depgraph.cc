/**
 * @file
 * Tests for the dependence-DAG builder.
 */

#include <gtest/gtest.h>

#include "analysis/dep_graph.hh"
#include "core/processor.hh"
#include "workloads/workloads.hh"

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
    t.fu = fuClass(op);
    t.dep1 = dep1;
    t.fetchTime = dispatch > 2000 ? dispatch - 2000 : 0;
    t.dispatchTime = dispatch;
    t.issueTime = issue;
    t.execDone = done;
    t.commitTime = done + 2000;
    return t;
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
    for (const DagEdge &e : g.out[0])
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
    for (const DagEdge &e : gs[0].out[0])
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
    for (const DagEdge &e : g.out[0]) {
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
    cfg.intIssueQueueSize = 4;
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
            for (const DagEdge &e : g.out[i]) {
                ASSERT_GE(e.to, 0);
                ASSERT_LT(static_cast<std::size_t>(e.to), g.size());
            }
        }
    }
    // At least one event per non-NOP instruction.
    EXPECT_GE(events, tr.size() - 10);
}

TEST_P(WorkloadGraphs, StreamYieldsTheMaterializedGraphs)
{
    // One graph object reused across next() calls (as the analyzer
    // does) must see exactly the graphs buildIntervalGraphs keeps:
    // nothing of one interval may leak into the next.
    Program p = workloads::build(GetParam(), 1);
    std::vector<InstTrace> tr = traceOf(p, 20000);
    DepGraphConfig cfg;
    cfg.intervalLength = 5'000'000;    // several intervals per trace
    std::vector<IntervalGraph> all = buildIntervalGraphs(tr, cfg);
    IntervalGraphStream stream(tr, cfg);
    IntervalGraph g;
    std::size_t n = 0;
    while (stream.next(g)) {
        ASSERT_LT(n, all.size());
        const IntervalGraph &want = all[n++];
        EXPECT_EQ(g.intervalStart, want.intervalStart);
        EXPECT_EQ(g.intervalEnd, want.intervalEnd);
        ASSERT_EQ(g.size(), want.size());
        for (std::size_t i = 0; i < g.size(); ++i) {
            const DagEvent &a = g.events[i];
            const DagEvent &b = want.events[i];
            EXPECT_EQ(a.domain, b.domain);
            EXPECT_EQ(a.start, b.start);
            EXPECT_EQ(a.end, b.end);
            EXPECT_EQ(a.origDuration, b.origDuration);
            EXPECT_EQ(a.fixedPortion, b.fixedPortion);
            EXPECT_EQ(a.floorStart, b.floorStart);
            EXPECT_EQ(a.startCeiling, b.startCeiling);
            EXPECT_EQ(a.endCeiling, b.endCeiling);
            EXPECT_EQ(a.power, b.power);
            EXPECT_EQ(a.fu, b.fu);
            ASSERT_EQ(g.out[i].size(), want.out[i].size());
            ASSERT_EQ(g.in[i].size(), want.in[i].size());
            for (std::size_t j = 0; j < g.out[i].size(); ++j) {
                EXPECT_EQ(g.out[i][j].to, want.out[i][j].to);
                EXPECT_EQ(g.out[i][j].lag, want.out[i][j].lag);
            }
            for (std::size_t j = 0; j < g.in[i].size(); ++j) {
                EXPECT_EQ(g.in[i][j].to, want.in[i][j].to);
                EXPECT_EQ(g.in[i][j].lag, want.in[i][j].lag);
            }
        }
    }
    EXPECT_EQ(n, all.size());
    EXPECT_GT(n, 1u);
    // An exhausted stream stays exhausted.
    EXPECT_FALSE(stream.next(g));
}

INSTANTIATE_TEST_SUITE_P(FourKinds, WorkloadGraphs,
                         ::testing::Values("g721", "mcf", "swim",
                                           "treeadd"));

} // namespace
} // namespace mcd
