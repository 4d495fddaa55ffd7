/**
 * @file
 * Tests for the 16 benchmark kernels: registry completeness,
 * functional termination, determinism, scaling, and known-answer
 * checks for kernels with closed-form results.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "isa/executor.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

std::uint64_t
runToHalt(const Program &, Executor &ex,
          std::uint64_t cap = 5'000'000)
{
    while (!ex.halted() && ex.instsExecuted() < cap)
        ex.step();
    return ex.instsExecuted();
}

TEST(WorkloadRegistry, HasSixteenPaperBenchmarks)
{
    const auto &all = workloads::all();
    ASSERT_EQ(all.size(), 16u);
    // Paper Table 2 order.
    EXPECT_STREQ(all[0].name, "adpcm");
    EXPECT_STREQ(all[4].name, "em3d");
    EXPECT_STREQ(all[10].name, "bzip2");
    EXPECT_STREQ(all[15].name, "swim");
}

TEST(WorkloadRegistry, SuitesMatchTable2)
{
    int media = 0, olden = 0, specInt = 0, specFp = 0;
    for (const WorkloadInfo &w : workloads::all()) {
        std::string s = w.suite;
        if (s == "MediaBench")
            ++media;
        else if (s == "Olden")
            ++olden;
        else if (s == "SPEC 2000 Int")
            ++specInt;
        else if (s == "SPEC 2000 FP")
            ++specFp;
    }
    EXPECT_EQ(media, 4);
    EXPECT_EQ(olden, 6);
    EXPECT_EQ(specInt, 4);
    EXPECT_EQ(specFp, 2);
}

TEST(WorkloadRegistry, UnknownNameFails)
{
    EXPECT_THROW(workloads::get("nonesuch"), FatalError);
    EXPECT_THROW(workloads::build("adpcm", 0), FatalError);
}

class EveryWorkload : public ::testing::TestWithParam<const char *>
{};

TEST_P(EveryWorkload, HaltsWithinWindow)
{
    Program p = workloads::build(GetParam(), 1);
    Executor ex(p);
    std::uint64_t n = runToHalt(p, ex);
    EXPECT_TRUE(ex.halted()) << "did not halt";
    // Scale-1 windows: roughly 60K-250K committed instructions.
    EXPECT_GE(n, 60'000u);
    EXPECT_LE(n, 300'000u);
}

TEST_P(EveryWorkload, DeterministicChecksum)
{
    Program p1 = workloads::build(GetParam(), 1);
    Program p2 = workloads::build(GetParam(), 1);
    Executor a(p1), b(p2);
    runToHalt(p1, a);
    runToHalt(p2, b);
    EXPECT_EQ(a.intReg(checksumReg), b.intReg(checksumReg));
    EXPECT_EQ(a.instsExecuted(), b.instsExecuted());
}

TEST_P(EveryWorkload, ScaleIncreasesWork)
{
    Program p1 = workloads::build(GetParam(), 1);
    Program p2 = workloads::build(GetParam(), 2);
    Executor a(p1), b(p2);
    runToHalt(p1, a);
    runToHalt(p2, b, 10'000'000);
    EXPECT_GT(b.instsExecuted(), a.instsExecuted() * 3 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    All16, EveryWorkload,
    ::testing::Values("adpcm", "epic", "g721", "mesa", "em3d", "health",
                      "mst", "power", "treeadd", "tsp", "bzip2", "gcc",
                      "mcf", "parser", "art", "swim"));

TEST(WorkloadTreeadd, SumMatchesClosedForm)
{
    // The tree stores value i+1 at heap index i over 2^13 - 1 nodes:
    // the recursive sum is n(n+1)/2 for n = 8191.
    Program p = workloads::build("treeadd", 1);
    Executor ex(p);
    runToHalt(p, ex);
    EXPECT_EQ(ex.intReg(checksumReg), 8191ull * 8192 / 2);
}

TEST(WorkloadTreeadd, MultiplePassesAccumulate)
{
    Program p = workloads::build("treeadd", 2);
    Executor ex(p);
    runToHalt(p, ex, 10'000'000);
    EXPECT_EQ(ex.intReg(checksumReg), 2 * (8191ull * 8192 / 2));
}

TEST(WorkloadAdpcm, PredictorStaysClamped)
{
    // valpred lives in r10 and must stay within [-32768, 32767].
    Program p = workloads::build("adpcm", 1);
    Executor ex(p);
    while (!ex.halted()) {
        ex.step();
        auto v = static_cast<std::int64_t>(ex.intReg(10));
        ASSERT_GE(v, -32768);
        ASSERT_LE(v, 32767);
    }
}

TEST(WorkloadMcf, VisitsTheWholeArcCycle)
{
    // The chase follows a permutation cycle: 15000 iterations must see
    // 15000 distinct arcs (cycle length is 131072).
    Program p = workloads::build("mcf", 1);
    Executor ex(p);
    std::set<std::uint64_t> arcs;
    while (!ex.halted()) {
        ExecResult r = ex.step();
        if (opInfo(r.inst.op).isLoad() && r.inst.imm == 0 &&
            r.inst.rd == 10)
            arcs.insert(r.memAddr);
    }
    EXPECT_GE(arcs.size(), 14'000u);
}

TEST(WorkloadMix, FpBenchmarksUseFp)
{
    for (const char *name : {"power", "swim", "art", "tsp", "mesa"}) {
        Program p = workloads::build(name, 1);
        Executor ex(p);
        std::uint64_t fp = 0;
        while (!ex.halted()) {
            ExecResult r = ex.step();
            fp += opInfo(r.inst.op).iq == RegFile::Fp ||
                r.inst.op == Opcode::FLD || r.inst.op == Opcode::FST;
        }
        EXPECT_GT(fp, ex.instsExecuted() / 10) << name;
    }
}

TEST(WorkloadMix, IntBenchmarksAvoidFp)
{
    for (const char *name : {"adpcm", "g721", "bzip2", "gcc", "mcf",
                             "parser", "health", "mst", "treeadd"}) {
        Program p = workloads::build(name, 1);
        Executor ex(p);
        std::uint64_t fp = 0;
        while (!ex.halted()) {
            ExecResult r = ex.step();
            fp += opInfo(r.inst.op).iq == RegFile::Fp;
        }
        EXPECT_LT(fp, ex.instsExecuted() / 100) << name;
    }
}

TEST(WorkloadMix, MemoryBoundBenchmarksLoadHeavily)
{
    for (const char *name : {"mcf", "health", "em3d"}) {
        Program p = workloads::build(name, 1);
        Executor ex(p);
        std::uint64_t mem = 0;
        while (!ex.halted()) {
            ExecResult r = ex.step();
            mem += opInfo(r.inst.op).isMem();
        }
        EXPECT_GT(mem, ex.instsExecuted() / 8) << name;
    }
}

} // namespace
} // namespace mcd
