/**
 * @file
 * Timing tests for the out-of-order pipeline, driven through
 * McdProcessor on hand-built microkernels.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "isa/builder.hh"

namespace mcd {
namespace {

RunResult
run(const Program &p, bool mcd = false, double jitter = 0.0,
    std::uint64_t max_insts = 0)
{
    SimConfig cfg;
    cfg.clocking = mcd ? ClockingStyle::Mcd : ClockingStyle::SingleClock;
    cfg.jitterSigmaPs = jitter;
    cfg.maxInstructions = max_insts;
    McdProcessor proc(cfg, p);
    return proc.run();
}

/** Emits one register-register op (rd, rs1, rs2). */
using EmitOp = void (Builder::*)(int, int, int);

/** A loop of @p body_reps independent register-register ops, adds
 *  unless @p emit names another (integer or FP) op. */
Program
independentOps(int iters, int body_reps, EmitOp emit = &Builder::add)
{
    Builder b("ind");
    b.li(1, 0);
    b.li(2, iters);
    Label loop = b.here();
    for (int i = 0; i < body_reps; ++i)
        (b.*emit)(10 + (i % 8), 3, 4);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    return b.build();
}

/** A loop whose body is one long dependent chain. */
Program
dependentChain(int iters, int chain_len)
{
    Builder b("chain");
    b.li(1, 0);
    b.li(2, iters);
    b.li(10, 1);
    Label loop = b.here();
    for (int i = 0; i < chain_len; ++i)
        b.add(10, 10, 10);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    return b.build();
}

TEST(Pipeline, IndependentOpsReachDecodeWidth)
{
    // 4-wide fetch/rename bounds IPC at 4; independent adds should
    // get close (branch ends each fetch group).
    RunResult r = run(independentOps(3000, 16));
    EXPECT_GT(r.ipc, 3.0);
    EXPECT_LE(r.ipc, 4.05);
}

TEST(Pipeline, DependentChainSerializes)
{
    RunResult r = run(dependentChain(2000, 12));
    // One add per cycle on the critical chain; the loop bookkeeping
    // overlaps, so IPC is slightly above 1.
    EXPECT_GT(r.ipc, 0.85);
    EXPECT_LT(r.ipc, 1.35);
}

TEST(Pipeline, CommitsMatchFunctionalExecution)
{
    Program p = independentOps(500, 7);
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    RunResult r = run(p);
    EXPECT_EQ(r.committed, ex.instsExecuted());
}

TEST(Pipeline, MaxInstructionCapStopsEarly)
{
    Program p = independentOps(5000, 7);
    RunResult r = run(p, false, 0.0, 1000);
    EXPECT_GE(r.committed, 1000u);
    EXPECT_LT(r.committed, 1200u);
}

TEST(Pipeline, MispredictsCostTime)
{
    // A data-dependent unpredictable branch (LCG parity) vs the same
    // loop with the branch always not-taken.
    auto make = [](bool random_branch) {
        Builder b("m");
        b.li(1, 0);
        b.li(2, 4000);
        b.li(10, 12345);
        b.li(11, 1103515245);
        Label skip = b.newLabel();
        Label loop = b.newLabel();
        b.bind(loop);
        b.mul(10, 10, 11);
        b.addi(10, 10, 12345);
        b.srli(12, 10, 16);
        b.andi(12, 12, random_branch ? 1 : 0);
        b.bne(12, 0, skip);
        b.addi(3, 3, 1);
        b.bind(skip);
        b.addi(1, 1, 1);
        b.blt(1, 2, loop);
        b.halt();
        return b.build();
    };
    RunResult predictable = run(make(false));
    RunResult random = run(make(true));
    EXPECT_LT(random.ipc, predictable.ipc * 0.75);
    EXPECT_GT(random.pipeline.mispredicts, 1000u);
    EXPECT_LT(predictable.pipeline.mispredicts, 100u);
    // Each misprediction stalls fetch until the branch resolves, then
    // for the 7-cycle redirect penalty.
    int fe = domainIndex(Domain::FrontEnd);
    double lostCycles =
        static_cast<double>(random.domains[fe].cycles) -
        static_cast<double>(predictable.domains[fe].cycles);
    EXPECT_GT(lostCycles / static_cast<double>(random.pipeline.mispredicts),
              7.0);
}

TEST(Pipeline, LoadUseLatencyVisible)
{
    // Chained loads (pointer chase in L1) vs chained adds: the chase
    // should be slower by roughly the load-use latency ratio.
    Builder b("lc");
    std::uint64_t node = b.dataBlock(2);
    b.setDataWord(node, node);      // self-loop
    b.li(4, static_cast<std::int64_t>(node));
    b.li(1, 0);
    b.li(2, 3000);
    Label loop = b.here();
    b.ld(4, 4, 0);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    RunResult chase = run(b.build());
    RunResult chain = run(dependentChain(3000, 1));
    EXPECT_LT(chase.ipc, chain.ipc);
}

TEST(Pipeline, StoreLoadForwarding)
{
    // Repeated store-then-load to one address must not deadlock and
    // must forward reasonably quickly.
    Builder b("fw");
    std::uint64_t addr = b.dataWord(5);
    b.li(4, static_cast<std::int64_t>(addr));
    b.li(1, 0);
    b.li(2, 2000);
    Label loop = b.here();
    b.ld(3, 4, 0);
    b.addi(3, 3, 1);
    b.st(3, 4, 0);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    Program p = b.build();
    RunResult r = run(p);
    EXPECT_GT(r.ipc, 0.4);
    // Functional correctness through the oracle.
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.readMem(addr), 2005u);
}

TEST(Pipeline, FpOpsExecuteInFpDomain)
{
    // The same loop with FP ops and with their integer counterparts.
    auto make = [](bool fp) {
        Builder b("fp");
        std::uint64_t c = b.dataDouble(1.5);
        b.li(4, static_cast<std::int64_t>(c));
        b.fld(1, 4, 0);
        b.li(1, 0);
        b.li(2, 1000);
        Label loop = b.here();
        if (fp) {
            b.fmul(2, 1, 1);
            b.fadd(3, 2, 1);
        } else {
            b.mul(12, 11, 11);
            b.add(13, 12, 11);
        }
        b.addi(1, 1, 1);
        b.blt(1, 2, loop);
        b.halt();
        return b.build();
    };
    RunResult r = run(make(true));
    RunResult ints = run(make(false));
    EXPECT_GT(r.pipeline.committedFp, 1900u);
    // The FP domain did the work: its energy per cycle is several
    // times the gated residual it pays when only integer ops run.
    auto fpEnergyPerCycle = [](const RunResult &x) {
        const DomainSummary &d = x.domains[domainIndex(Domain::FloatingPoint)];
        return d.energy / static_cast<double>(d.cycles);
    };
    EXPECT_GT(fpEnergyPerCycle(r), 2.0 * fpEnergyPerCycle(ints));
}

TEST(Pipeline, FpIssueWidthIsTwo)
{
    // Two FP ALUs issue two FADDs per FP cycle, so an iteration of 16
    // takes at least 8 cycles; the same loop of integer adds issues
    // four wide.
    RunResult fp = run(independentOps(3000, 16, &Builder::fadd));
    RunResult ints = run(independentOps(3000, 16));
    EXPECT_LE(fp.ipc, 18.0 / 8.0);
    EXPECT_GT(fp.ipc, 2.0);
    EXPECT_GT(ints.ipc, 3.0);
}

TEST(Pipeline, FdivsSerializeOnOneUnpipelinedUnit)
{
    // Independent FDIVs still queue for the single FP mul/div/sqrt
    // unit, which holds each one for its 12-cycle latency.
    constexpr int iters = 250, divs = 8;
    RunResult r = run(independentOps(iters, divs, &Builder::fdiv));
    double ns = static_cast<double>(r.execTime) / 1000.0;   // 1 GHz
    EXPECT_NEAR(ns / (iters * divs), 12.0, 0.5);
}

TEST(Pipeline, RobStallsUnderLongLatency)
{
    // Serial L2-missing chase fills the ROB with waiters; the same
    // chase round an L1-resident ring does not.
    auto make = [](int n) {
        Builder b("rob");
        std::uint64_t nodes = b.dataBlock(n * 8);
        for (int i = 0; i < n; ++i)
            b.setDataWord(nodes + 64ull * i,
                          nodes + 64ull * ((i + 1) % n));
        b.li(4, static_cast<std::int64_t>(nodes));
        b.li(1, 0);
        b.li(2, 2000);
        Label loop = b.here();
        b.ld(4, 4, 0);
        for (int k = 0; k < 6; ++k)
            b.add(10 + k, 4, 1);
        b.addi(1, 1, 1);
        b.blt(1, 2, loop);
        b.halt();
        return b.build();
    };
    RunResult r = run(make(8192));     // 64 KB of pointers, stride > L1
    RunResult resident = run(make(16));
    EXPECT_LT(r.ipc, 0.7);
    EXPECT_LT(r.ipc, resident.ipc / 4.0);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    Program p = independentOps(1000, 5);
    RunResult a = run(p, true, defaultJitterSigmaPs);
    RunResult b = run(p, true, defaultJitterSigmaPs);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_DOUBLE_EQ(a.totalEnergy, b.totalEnergy);
}

TEST(Pipeline, McdNeverFreeOnSyncHeavyCode)
{
    // Pointer chasing bounces between the integer and load/store
    // domains every instruction: MCD synchronization must cost time.
    Builder b("sync");
    std::uint64_t node = b.dataBlock(256);
    for (int i = 0; i < 256; ++i)
        b.setDataWord(node + 8ull * i, node + 8ull * ((i * 97 + 13) % 256));
    b.li(4, static_cast<std::int64_t>(node));
    b.li(1, 0);
    b.li(2, 8000);
    Label loop = b.here();
    b.ld(4, 4, 0);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    Program p = b.build();
    RunResult single = run(p, false, defaultJitterSigmaPs);
    RunResult mcd = run(p, true, defaultJitterSigmaPs);
    EXPECT_GT(mcd.execTime, single.execTime);
}

TEST(Pipeline, HaltAloneCommits)
{
    Builder b("h");
    b.halt();
    RunResult r = run(b.build());
    EXPECT_EQ(r.committed, 1u);
}

TEST(Pipeline, BranchStatsCounted)
{
    RunResult r = run(independentOps(100, 3));
    EXPECT_GE(r.bpredLookups, 100u);
}

TEST(Pipeline, IcacheMissesStallFetch)
{
    // A program body larger than the 64 KB L1I: straight-line code of
    // ~20K instructions = 80 KB.
    Builder b("big");
    for (int i = 0; i < 20000; ++i)
        b.add(1 + (i % 8), 2, 3);
    b.halt();
    RunResult r = run(b.build());
    EXPECT_GT(r.l1i.misses, 500u);
    // The same adds from a 16-instruction loop body fetch four wide.
    RunResult small = run(independentOps(1250, 16));
    EXPECT_LT(r.ipc, small.ipc / 4.0);
}

} // namespace
} // namespace mcd
