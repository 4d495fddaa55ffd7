/**
 * @file
 * The fuzz workload generator: byte-identical regeneration from a
 * seed, exact spec round-trips, registry integration under hashed
 * names, and the no-aliasing guarantee against the fixed Table 2
 * suite. These are the properties the soak harness's replay story
 * rests on — a repro file stores only the spec string, so the
 * program it rebuilds must be the program that failed.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/random.hh"
#include "fuzz/workload_gen.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

using fuzz::GenParams;
using fuzz::PhaseKind;
using fuzz::PhaseParams;

/** Full structural equality of two built programs. */
void
expectIdentical(const Program &a, const Program &b)
{
    ASSERT_EQ(a.textSize(), b.textSize());
    EXPECT_EQ(a.textBase(), b.textBase());
    for (std::uint64_t pc = a.textBase(); pc < a.textLimit(); pc += 4)
        ASSERT_EQ(a.fetch(pc), b.fetch(pc))
            << "instructions differ at pc=" << pc;
    // The data image has no size accessor; sweep a generous window
    // over the low address space the builder allocates from.
    for (std::uint64_t addr = 0; addr < (1u << 20); addr += 8)
        ASSERT_EQ(a.initialData().readWord(addr),
                  b.initialData().readWord(addr))
            << "data words differ at addr=" << addr;
}

TEST(FuzzGen, SameSeedBuildsByteIdenticalPrograms)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        GenParams p = GenParams::fromSeed(seed);
        GenParams q = GenParams::fromSeed(seed);
        EXPECT_EQ(p.spec(), q.spec());
        expectIdentical(p.generate(1), q.generate(1));
    }
}

TEST(FuzzGen, SpecRoundTripsExactly)
{
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        GenParams p = GenParams::fromSeed(seed);
        GenParams q = GenParams::fromSpec(p.spec());
        EXPECT_EQ(p.spec(), q.spec()) << "seed " << seed;
        EXPECT_EQ(p.workloadName(), q.workloadName());
        // The parsed params rebuild the identical program, not just
        // the identical spec string.
        if (seed <= 4)
            expectIdentical(p.generate(1), q.generate(1));
    }
}

TEST(FuzzGen, MalformedSpecsAreFatal)
{
    EXPECT_THROW(GenParams::fromSpec(""), FatalError);
    EXPECT_THROW(GenParams::fromSpec("seed=1"), FatalError);
    EXPECT_THROW(GenParams::fromSpec("seed=1;phase=bogus:1:1:1:1:1"),
                 FatalError);
    EXPECT_THROW(GenParams::fromSpec("seed=1;phase=int:1:1:1"),
                 FatalError);
    EXPECT_THROW(GenParams::fromSpec("phase=int:1:1:1:1:1"),
                 FatalError);
}

TEST(FuzzGen, DistinctSeedsGetDistinctNames)
{
    std::set<std::string> names;
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        names.insert(GenParams::fromSeed(seed).workloadName());
    // The name hashes the full spec; 200 random shapes must not
    // collide (a collision would silently alias cache entries).
    EXPECT_EQ(names.size(), 200u);
}

TEST(FuzzGen, GeneratedNamesNeverAliasFixedBenchmarks)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        std::string name = GenParams::fromSeed(seed).workloadName();
        EXPECT_EQ(name.rfind("fuzz-", 0), 0u);
        for (const WorkloadInfo &w : workloads::all())
            EXPECT_NE(name, w.name);
    }
    // And no fixed benchmark can ever route to the generator hook.
    for (const WorkloadInfo &w : workloads::all())
        EXPECT_FALSE(workloads::isGenerated(w.name)) << w.name;
}

TEST(FuzzGen, InternedWorkloadsBuildThroughTheRegistry)
{
    GenParams p = GenParams::fromSeed(7);
    std::string name = fuzz::internWorkload(p);
    EXPECT_EQ(name, p.workloadName());
    EXPECT_TRUE(workloads::isGenerated(name));

    // Interning again is idempotent; the registry builds the same
    // program the params build directly.
    EXPECT_EQ(fuzz::internWorkload(p), name);
    ASSERT_NE(fuzz::findWorkload(name), nullptr);
    expectIdentical(workloads::build(name, 1), p.generate(1));
}

TEST(FuzzGen, UnknownGeneratedNamesAreFatal)
{
    // Registered prefix, un-interned hash: must fail loudly instead
    // of building something arbitrary.
    fuzz::internWorkload(GenParams::fromSeed(9));    // arm the prefix
    EXPECT_THROW(workloads::build("fuzz-0000000000000000", 1),
                 FatalError);
}

TEST(FuzzGen, ScaleMultipliesWork)
{
    GenParams p;
    p.seed = 11;
    PhaseParams ph;
    ph.kind = PhaseKind::IntChain;
    ph.iters = 50;
    p.phases.push_back(ph);
    // Scale multiplies loop trip counts (like the fixed suite), not
    // code size: the text differs only in the loop-bound immediates.
    Program s1 = p.generate(1);
    Program s3 = p.generate(3);
    ASSERT_EQ(s1.textSize(), s3.textSize());
    bool differs = false;
    for (std::uint64_t pc = s1.textBase(); pc < s1.textLimit(); pc += 4)
        differs = differs || s1.fetch(pc) != s3.fetch(pc);
    EXPECT_TRUE(differs);
}

TEST(FuzzGen, EveryPhaseKindEmitsARunnableBody)
{
    for (PhaseKind k : {PhaseKind::IntChain, PhaseKind::FpChain,
                        PhaseKind::MemStream, PhaseKind::Branchy}) {
        GenParams p;
        p.seed = 13;
        PhaseParams ph;
        ph.kind = k;
        ph.iters = 20;
        p.phases.push_back(ph);
        Program prog = p.generate(1);
        EXPECT_GT(prog.textSize(), 4u) << fuzz::phaseKindName(k);
    }
}

TEST(FuzzGen, RegisterGeneratorRejectsBadRegistrations)
{
    EXPECT_THROW(workloads::registerGenerator(
                     "", [](const std::string &, int) {
                         return workloads::buildAdpcm(1);
                     }),
                 FatalError);
    EXPECT_THROW(workloads::registerGenerator("adpcm", nullptr),
                 FatalError);
    EXPECT_THROW(workloads::registerGenerator(
                     "adpcm", [](const std::string &, int) {
                         return workloads::buildAdpcm(1);
                     }),
                 FatalError);
}

} // namespace
} // namespace mcd
