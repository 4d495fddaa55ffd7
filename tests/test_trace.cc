/**
 * @file
 * Tests for the primitive-event trace collection.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "cpu/dyn_inst.hh"
#include "isa/builder.hh"
#include "isa/executor.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

Program
smallLoop()
{
    Builder b("t");
    std::uint64_t buf = b.dataBlock(64);
    b.li(4, static_cast<std::int64_t>(buf));
    b.li(1, 0);
    b.li(2, 300);
    Label loop = b.here();
    b.andi(5, 1, 63);
    b.slli(5, 5, 3);
    b.add(5, 4, 5);
    b.ld(6, 5, 0);
    b.add(6, 6, 1);
    b.st(6, 5, 0);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    return b.build();
}

TEST(Trace, DisabledCollectorRecordsNothing)
{
    SimConfig cfg;
    cfg.collectTrace = false;
    McdProcessor proc(cfg, smallLoop());
    proc.run();
    EXPECT_EQ(proc.trace().size(), 0u);
}

TEST(Trace, OneRecordPerCommittedInstruction)
{
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, smallLoop());
    RunResult r = proc.run();
    EXPECT_EQ(proc.trace().size(), r.committed);
}

TEST(Trace, TimestampsAreOrderedWithinInstructions)
{
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, smallLoop());
    proc.run();
    for (const InstTrace &t : proc.trace().trace()) {
        if (t.op == Opcode::HALT || t.op == Opcode::NOP)
            continue;
        EXPECT_LT(t.dispatchTime, t.issueTime);
        EXPECT_LT(t.issueTime, t.execDone);
        if (t.isMem()) {
            EXPECT_LT(t.memIssue, t.memDone);
            EXPECT_LE(t.issueTime, t.memIssue);
            EXPECT_LE(t.memFixed, t.memDone - t.memIssue);
        }
    }
}

TEST(Trace, SequenceNumbersCommitInOrder)
{
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, smallLoop());
    proc.run();
    const auto &tr = proc.trace().trace();
    for (std::size_t i = 1; i < tr.size(); ++i)
        EXPECT_EQ(tr[i].seq, tr[i - 1].seq + 1);
}

TEST(Trace, DependenciesPointBackward)
{
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, smallLoop());
    proc.run();
    for (const InstTrace &t : proc.trace().trace()) {
        if (t.dep1) {
            EXPECT_LT(t.dep1, t.seq);
        }
        if (t.dep2) {
            EXPECT_LT(t.dep2, t.seq);
        }
    }
}

TEST(Trace, LoadsCarryDependences)
{
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, smallLoop());
    proc.run();
    bool sawLoadWithBaseDep = false;
    bool sawStoreWithDataDep = false;
    for (const InstTrace &t : proc.trace().trace()) {
        if (t.isLoadOp() && t.dep1)
            sawLoadWithBaseDep = true;
        if (t.isMem() && !t.isLoadOp() && t.dep2)
            sawStoreWithDataDep = true;
    }
    EXPECT_TRUE(sawLoadWithBaseDep);
    EXPECT_TRUE(sawStoreWithDataDep);
}

TEST(Trace, ExecEventDomainMapping)
{
    InstTrace t;
    t.op = Opcode::LD;
    EXPECT_EQ(t.execEventDomain(), Domain::Integer);    // AGU
    t.op = Opcode::FADD;
    EXPECT_EQ(t.execEventDomain(), Domain::FloatingPoint);
    t.op = Opcode::ADD;
    EXPECT_EQ(t.execEventDomain(), Domain::Integer);
}

TEST(Trace, LayoutsHoldOnlyReadFields)
{
    // Every byte here is paid once per fetched instruction (the cold
    // window record) or once per committed instruction of a profiling
    // run (the trace record). A new field needs a reader: the offline
    // tool for InstTrace, the trace writer for DynInstCold.
    if constexpr (sizeof(void *) == 8) {
        EXPECT_EQ(sizeof(InstTrace), 80u);
        EXPECT_EQ(sizeof(DynInstCold), 40u);
    }
}

TEST(TraceReserve, HoldsEveryWorkloadAtScaleOne)
{
    // A profiling run records one InstTrace per committed instruction,
    // and a run to HALT commits what the functional executor executes.
    for (const WorkloadInfo &w : workloads::all()) {
        Program p = w.build(1);
        Executor ex(p);
        while (!ex.halted())
            ex.step();
        EXPECT_LE(ex.instsExecuted(), traceReserveRecords) << w.name;
    }
}

TEST(TraceReserve, ProfilingRunNeverRegrows)
{
    // treeadd commits the most instructions of any workload.
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, workloads::build("treeadd", 1));
    RunResult r = proc.run();
    EXPECT_EQ(proc.trace().size(), r.committed);
    EXPECT_EQ(proc.trace().trace().capacity(), traceReserveRecords);
}

} // namespace
} // namespace mcd
