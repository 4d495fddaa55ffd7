/**
 * @file
 * Tests for the mini-ISA: the opcode table, builder semantics and
 * range checks, and the functional executor.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/log.hh"
#include "fuzz/workload_gen.hh"
#include "isa/builder.hh"
#include "isa/executor.hh"
#include "isa/inst.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

// -------------------------------------------------------------------
// The opcode table.
// -------------------------------------------------------------------

/**
 * The classifier functions the opcode table replaced, copied for the
 * opcodes that remain, together with the expressions their callers
 * built from them. The table must reproduce every value a caller
 * read, so the timing model, the trace and the analyzer see exactly
 * what they saw before.
 */
namespace ref {

bool
isIntAlu(Opcode op)
{
    switch (op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::ADDI:
      case Opcode::ANDI: case Opcode::ORI: case Opcode::SLLI:
      case Opcode::SRLI: case Opcode::SRAI:
        return true;
      default:
        return false;
    }
}

bool isIntMulDiv(Opcode op) { return op == Opcode::MUL; }

bool
isFp(Opcode op)
{
    switch (op) {
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::FSQRT: case Opcode::FMOV:
      case Opcode::FCLT: case Opcode::ITOF: case Opcode::FTOI:
        return true;
      default:
        return false;
    }
}

bool isLoad(Opcode op) { return op == Opcode::LD || op == Opcode::FLD; }
bool isStore(Opcode op) { return op == Opcode::ST || op == Opcode::FST; }
bool isMem(Opcode op) { return isLoad(op) || isStore(op); }

bool
isBranch(Opcode op)
{
    return op == Opcode::BEQ || op == Opcode::BNE || op == Opcode::BLT ||
        op == Opcode::BGE;
}

bool isJump(Opcode op) { return op == Opcode::JAL || op == Opcode::JALR; }

FuClass
fuClass(Opcode op)
{
    if (isIntAlu(op) || isBranch(op) || isJump(op))
        return FuClass::IntAlu;
    if (isIntMulDiv(op))
        return FuClass::IntMulDiv;
    if (isMem(op))
        return FuClass::MemPort;
    if (op == Opcode::FMUL || op == Opcode::FDIV || op == Opcode::FSQRT)
        return FuClass::FpMulDivSqrt;
    if (isFp(op))
        return FuClass::FpAlu;
    return FuClass::None;
}

int
execLatency(Opcode op)
{
    switch (op) {
      case Opcode::MUL: return 7;
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMOV:
      case Opcode::FCLT: case Opcode::ITOF: case Opcode::FTOI:
        return 4;
      case Opcode::FMUL: return 4;
      case Opcode::FDIV: return 12;
      case Opcode::FSQRT: return 18;
      default: return 1;
    }
}

RegFile
destKind(const Inst &inst)
{
    Opcode op = inst.op;
    if (op == Opcode::NOP || op == Opcode::HALT || isBranch(op) ||
        isStore(op)) {
        return RegFile::None;
    }
    if (op == Opcode::FLD)
        return RegFile::Fp;
    if (op == Opcode::LD)
        return inst.rd == reg::zero ? RegFile::None : RegFile::Int;
    if (isFp(op)) {
        if (op == Opcode::FCLT || op == Opcode::FTOI)
            return inst.rd == reg::zero ? RegFile::None : RegFile::Int;
        return RegFile::Fp;
    }
    return inst.rd == reg::zero ? RegFile::None : RegFile::Int;
}

bool
readsIntRs1(Opcode op)
{
    if (isIntAlu(op) || isIntMulDiv(op) || isBranch(op) || isMem(op))
        return true;
    return op == Opcode::JALR || op == Opcode::ITOF;
}

bool
readsIntRs2(Opcode op)
{
    switch (op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::MUL:
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: case Opcode::ST:
        return true;
      default:
        return false;
    }
}

bool
readsFpRs1(Opcode op)
{
    switch (op) {
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::FSQRT: case Opcode::FMOV:
      case Opcode::FCLT: case Opcode::FTOI:
        return true;
      default:
        return false;
    }
}

bool
readsFpRs2(Opcode op)
{
    switch (op) {
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::FCLT: case Opcode::FST:
        return true;
      default:
        return false;
    }
}

Domain
execDomain(Opcode op)
{
    if (isMem(op))
        return Domain::LoadStore;
    if (isFp(op))
        return Domain::FloatingPoint;
    return Domain::Integer;
}

/** FrontEndUnit's issue queue: 0 integer, 1 FP, -1 none. */
int
issueClass(Opcode op)
{
    if (isFp(op))
        return 1;
    if (isIntAlu(op) || isIntMulDiv(op) || isBranch(op) || isJump(op) ||
        isMem(op)) {
        return 0;
    }
    return -1;
}

/** FrontEndUnit's rename of source @p r: 0 integer, 1 FP, -1 none. */
int
srcClass(bool reads_int, bool reads_fp, int r)
{
    return reads_int && r != reg::zero ? 0 : reads_fp ? 1 : -1;
}

/** InstTrace::execEventDomain: address generation is integer work. */
Domain
execEventDomain(Opcode op)
{
    return isMem(op) ? Domain::Integer : execDomain(op);
}

/** DynInst::completionDomain (isHalt was set exactly for HALT). */
Domain
completionDomain(Opcode op)
{
    if (isMem(op))
        return Domain::LoadStore;
    if (op == Opcode::HALT || op == Opcode::NOP)
        return Domain::FrontEnd;
    return execDomain(op);
}

} // namespace ref

int
regClassOf(RegFile f)
{
    return f == RegFile::None ? -1 : f == RegFile::Int ? 0 : 1;
}

TEST(OpTable, MatchesTheClassifiersItReplaced)
{
    // Spot checks written out by hand anchor the reference itself.
    EXPECT_TRUE(ref::isIntAlu(Opcode::ADD));
    EXPECT_FALSE(ref::isIntAlu(Opcode::MUL));
    EXPECT_TRUE(ref::isFp(Opcode::FSQRT));
    EXPECT_TRUE(ref::isFp(Opcode::FCLT));
    EXPECT_TRUE(ref::isLoad(Opcode::FLD));
    EXPECT_TRUE(ref::isStore(Opcode::FST));
    EXPECT_FALSE(ref::isMem(Opcode::ADD));
    EXPECT_TRUE(ref::isBranch(Opcode::BGE));
    EXPECT_TRUE(ref::isJump(Opcode::JALR));
    EXPECT_EQ(ref::fuClass(Opcode::BEQ), FuClass::IntAlu);
    EXPECT_EQ(ref::fuClass(Opcode::MUL), FuClass::IntMulDiv);
    EXPECT_EQ(ref::fuClass(Opcode::LD), FuClass::MemPort);
    EXPECT_EQ(ref::fuClass(Opcode::FADD), FuClass::FpAlu);
    EXPECT_EQ(ref::fuClass(Opcode::FDIV), FuClass::FpMulDivSqrt);
    EXPECT_EQ(ref::fuClass(Opcode::NOP), FuClass::None);
    EXPECT_EQ(ref::execLatency(Opcode::ADD), 1);
    EXPECT_EQ(ref::execLatency(Opcode::MUL), 7);
    EXPECT_EQ(ref::execLatency(Opcode::FADD), 4);
    EXPECT_EQ(ref::execLatency(Opcode::FDIV), 12);
    EXPECT_EQ(ref::execLatency(Opcode::FSQRT), 18);
    EXPECT_EQ(ref::execDomain(Opcode::BEQ), Domain::Integer);
    EXPECT_EQ(ref::execDomain(Opcode::FMUL), Domain::FloatingPoint);
    EXPECT_EQ(ref::execDomain(Opcode::FST), Domain::LoadStore);
    Inst fclt;
    fclt.op = Opcode::FCLT;
    fclt.rd = 3;
    EXPECT_EQ(ref::destKind(fclt), RegFile::Int);
    EXPECT_TRUE(ref::readsIntRs2(Opcode::ST));     // store data
    EXPECT_FALSE(ref::readsIntRs2(Opcode::LD));
    EXPECT_TRUE(ref::readsFpRs2(Opcode::FST));     // FP store data
    EXPECT_FALSE(ref::readsFpRs2(Opcode::FSQRT));
    EXPECT_TRUE(ref::readsIntRs1(Opcode::ITOF));
    EXPECT_TRUE(ref::readsFpRs1(Opcode::FTOI));
    EXPECT_FALSE(ref::readsIntRs1(Opcode::JAL));

    for (std::size_t i = 0; i < numOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        const OpInfo &row = opInfo(op);
        SCOPED_TRACE(row.name);
        EXPECT_EQ(row.isLoad(), ref::isLoad(op));
        EXPECT_EQ(row.isStore(), ref::isStore(op));
        EXPECT_EQ(row.isBranch(), ref::isBranch(op));
        EXPECT_EQ(row.isJump(), ref::isJump(op));
        EXPECT_EQ(regClassOf(row.iq), ref::issueClass(op));
        EXPECT_EQ(row.doneDomain, ref::completionDomain(op));
        if (row.iq != RegFile::None) {
            // The issue unit's unit and latency, and the DAG
            // builder's execute event.
            EXPECT_EQ(row.fu, ref::isMem(op) ? FuClass::IntAlu
                                             : ref::fuClass(op));
            EXPECT_EQ(row.latency, ref::isMem(op) ? 1
                                                  : ref::execLatency(op));
            EXPECT_EQ(row.execDomain, ref::execEventDomain(op));
        } else {
            EXPECT_EQ(row.fu, ref::fuClass(op));
            EXPECT_EQ(row.execDomain, Domain::FrontEnd);
        }
        for (int r : {int{reg::zero}, 5}) {
            Inst inst;
            inst.op = op;
            inst.rd = static_cast<std::uint8_t>(r);
            EXPECT_EQ(liveFile(row.dest, r), ref::destKind(inst))
                << "rd " << r;
            EXPECT_EQ(regClassOf(liveFile(row.src1, r)),
                      ref::srcClass(ref::readsIntRs1(op),
                                    ref::readsFpRs1(op), r))
                << "rs1 " << r;
            EXPECT_EQ(regClassOf(liveFile(row.src2, r)),
                      ref::srcClass(ref::readsIntRs2(op),
                                    ref::readsFpRs2(op), r))
                << "rs2 " << r;
        }
    }
}

TEST(Isa, EveryOpcodeIsEmitted)
{
    // An opcode no program emits is code with no reader: it returns
    // only together with a kernel or generator shape that uses it.
    // NOP is exempt; it is the value of a default-constructed Inst.
    std::array<bool, numOpcodes> seen{};
    auto scan = [&](const Program &p) {
        for (std::size_t i = 0; i < p.textSize(); ++i)
            seen[static_cast<std::size_t>(
                p.fetch(p.textBase() + 4 * i).op)] = true;
    };
    for (const WorkloadInfo &w : workloads::all()) {
        for (int scale : {1, 2})
            scan(w.build(scale));
    }
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        scan(fuzz::GenParams::fromSeed(seed).generate(1));
    std::string missing;
    for (std::size_t i = 0; i < numOpcodes; ++i) {
        if (!seen[i] && static_cast<Opcode>(i) != Opcode::NOP)
            missing += std::string(" ") + opTable[i].name;
    }
    EXPECT_TRUE(missing.empty()) << "never emitted:" << missing;
}

// -------------------------------------------------------------------
// Builder.
// -------------------------------------------------------------------

TEST(Builder, ForwardAndBackwardLabels)
{
    Builder b("t");
    Label fwd = b.newLabel();
    b.li(1, 0);
    Label back = b.here();
    b.addi(1, 1, 1);
    b.li(2, 3);
    b.blt(1, 2, back);
    b.j(fwd);
    b.nop();        // skipped
    b.bind(fwd);
    b.halt();
    Program p = b.build();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.intReg(1), 3u);
}

TEST(Builder, AppendsHaltIfMissing)
{
    Builder b("t");
    b.addi(1, 0, 7);
    Program p = b.build();
    EXPECT_EQ(p.fetch(p.textBase() + 4).op, Opcode::HALT);
}

TEST(Builder, UnboundLabelFails)
{
    Builder b("t");
    Label l = b.newLabel();
    b.j(l);
    EXPECT_THROW(b.build(), PanicError);
}

TEST(Builder, DoubleBindFails)
{
    Builder b("t");
    Label l = b.here();
    EXPECT_THROW(b.bind(l), PanicError);
}

TEST(Builder, DataSegment)
{
    Builder b("t");
    std::uint64_t a = b.dataWord(0xdeadbeef);
    std::uint64_t c = b.dataDouble(2.5);
    std::uint64_t blk = b.dataBlock(4);
    EXPECT_EQ(c, a + 8);
    EXPECT_EQ(blk, c + 8);
    EXPECT_EQ(b.dataTop(), blk + 32);
    Program p = b.build();
    EXPECT_EQ(p.initialData().readWord(a), 0xdeadbeefULL);
    EXPECT_DOUBLE_EQ(p.initialData().readDouble(c), 2.5);
}

TEST(Builder, RegisterIndexChecked)
{
    Builder b("t");
    b.add(31, 31, 31);
    EXPECT_THROW(b.add(32, 1, 2), PanicError);
    EXPECT_THROW(b.addi(1, -1, 0), PanicError);
    EXPECT_THROW(b.st(1, 32, 0), PanicError);
}

TEST(Builder, SignedImmediateWithin16Bits)
{
    Builder b("t");
    b.addi(1, 2, -32768);
    b.addi(1, 2, 32767);
    b.ld(1, 2, -32768);
    EXPECT_THROW(b.addi(1, 2, 32768), PanicError);
    EXPECT_THROW(b.addi(1, 2, -32769), PanicError);
    EXPECT_THROW(b.ld(1, 2, 40000), PanicError);
    EXPECT_THROW(b.jalr(1, 2, -40000), PanicError);
}

TEST(Builder, LogicalImmediateIsUnsigned16Bits)
{
    Builder b("t");
    for (auto emit : {&Builder::ori, &Builder::andi}) {
        (b.*emit)(1, 2, 0);
        (b.*emit)(1, 2, 65535);
        EXPECT_THROW((b.*emit)(1, 2, 65536), PanicError);
        EXPECT_THROW((b.*emit)(1, 2, -1), PanicError);
    }
}

TEST(Builder, StoreOffsetWithin16Bits)
{
    Builder b("t");
    b.st(1, 2, 32767);
    b.fst(1, 2, -32768);
    EXPECT_THROW(b.st(1, 2, 32768), PanicError);
    EXPECT_THROW(b.fst(1, 2, -32769), PanicError);
}

/**
 * Build a program whose only control transfer (a beq, or a jal when
 * @p jal) targets the slot @p slots instructions away from it, and
 * return the displacement in bytes that the Builder resolved.
 */
std::int32_t
resolvedDisplacement(std::int64_t slots, bool jal)
{
    Builder b("t");
    Label l = b.newLabel();
    auto emit = [&] {
        if (jal)
            b.jal(reg::ra, l);
        else
            b.beq(1, 2, l);
    };
    std::uint64_t at = 0;
    if (slots <= 0) {
        b.bind(l);
        for (std::int64_t i = 0; i < -slots; ++i)
            b.nop();
        at = b.pc();
        emit();
    } else {
        at = b.pc();
        emit();
        for (std::int64_t i = 1; i < slots; ++i)
            b.nop();
        b.bind(l);
    }
    Program p = b.build();
    return p.fetch(at).imm;
}

TEST(Builder, BranchDisplacementWithin32KiB)
{
    EXPECT_EQ(resolvedDisplacement(8191, false), 32764);
    EXPECT_EQ(resolvedDisplacement(-8192, false), -32768);
    EXPECT_THROW(resolvedDisplacement(8192, false), PanicError);
    EXPECT_THROW(resolvedDisplacement(-8193, false), PanicError);
}

TEST(Builder, JumpDisplacementWithin1MiB)
{
    EXPECT_EQ(resolvedDisplacement((1 << 18) - 1, true), (1 << 20) - 4);
    EXPECT_EQ(resolvedDisplacement(-(1 << 18), true), -(1 << 20));
    EXPECT_THROW(resolvedDisplacement(1 << 18, true), PanicError);
    EXPECT_THROW(resolvedDisplacement(-(1 << 18) - 1, true), PanicError);
}

class BuilderLi : public ::testing::TestWithParam<std::int64_t>
{};

TEST_P(BuilderLi, LoadsExactConstant)
{
    std::int64_t v = GetParam();
    Builder b("li");
    b.li(5, v);
    b.halt();
    Program p = b.build();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.intReg(5), static_cast<std::uint64_t>(v));
}

INSTANTIATE_TEST_SUITE_P(
    Constants, BuilderLi,
    ::testing::Values(0LL, 1LL, -1LL, 42LL, -42LL, 32767LL, -32768LL,
                      32768LL, 65535LL, 65536LL, 0xdeadLL, 0xdeadbeefLL,
                      0x100000000LL, -0x100000000LL,
                      0x7fffffffffffffffLL,
                      static_cast<std::int64_t>(0x8000000000000000ULL),
                      0x0123456789abcdefLL, -981273LL));

// -------------------------------------------------------------------
// Executor semantics, parameterized per operation.
// -------------------------------------------------------------------

struct AluCase
{
    const char *name;
    Opcode op;
    std::uint64_t a, b;
    std::uint64_t expect;
};

class ExecutorAlu : public ::testing::TestWithParam<AluCase>
{};

TEST_P(ExecutorAlu, Computes)
{
    const AluCase &c = GetParam();
    Builder bld("alu");
    bld.li(1, static_cast<std::int64_t>(c.a));
    bld.li(2, static_cast<std::int64_t>(c.b));
    Inst i;
    i.op = c.op;
    i.rd = 3;
    i.rs1 = 1;
    i.rs2 = 2;
    // Emit via the raw builder surface: reuse named emitters.
    switch (c.op) {
      case Opcode::ADD: bld.add(3, 1, 2); break;
      case Opcode::SUB: bld.sub(3, 1, 2); break;
      case Opcode::AND: bld.and_(3, 1, 2); break;
      case Opcode::OR: bld.or_(3, 1, 2); break;
      case Opcode::XOR: bld.xor_(3, 1, 2); break;
      case Opcode::MUL: bld.mul(3, 1, 2); break;
      default: FAIL() << "unhandled case";
    }
    bld.halt();
    Program p = bld.build();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.intReg(3), c.expect) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    IntOps, ExecutorAlu,
    ::testing::Values(
        AluCase{"add", Opcode::ADD, 5, 7, 12},
        AluCase{"add-wrap", Opcode::ADD, ~0ULL, 1, 0},
        AluCase{"sub", Opcode::SUB, 5, 7,
                static_cast<std::uint64_t>(-2)},
        AluCase{"and", Opcode::AND, 0xff00, 0x0ff0, 0x0f00},
        AluCase{"or", Opcode::OR, 0xff00, 0x0ff0, 0xfff0},
        AluCase{"xor", Opcode::XOR, 0xff00, 0x0ff0, 0xf0f0},
        AluCase{"mul", Opcode::MUL, 1000, 1000, 1000000}));

TEST(Executor, ZeroRegisterIsImmutable)
{
    Builder b("z");
    b.addi(0, 0, 99);
    b.add(1, 0, 0);
    b.halt();
    Program p = b.build();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.intReg(0), 0u);
    EXPECT_EQ(ex.intReg(1), 0u);
}

TEST(Executor, LogicalImmediatesZeroExtend)
{
    Builder b("imm");
    b.li(1, 0);
    b.ori(1, 1, 0x8000);    // must set bit 15 only
    b.halt();
    Program p = b.build();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.intReg(1), 0x8000u);
}

TEST(Executor, LoadStoreRoundtrip)
{
    Builder b("mem");
    std::uint64_t addr = b.dataWord(0);
    b.li(1, static_cast<std::int64_t>(addr));
    b.li(2, 0x12345678);
    b.st(2, 1, 0);
    b.ld(3, 1, 0);
    b.halt();
    Program p = b.build();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.intReg(3), 0x12345678u);
    EXPECT_EQ(ex.readMem(addr), 0x12345678u);
}

TEST(Executor, FpArithmetic)
{
    Builder b("fp");
    std::uint64_t a = b.dataDouble(3.0);
    std::uint64_t c = b.dataDouble(4.0);
    b.li(1, static_cast<std::int64_t>(a));
    b.li(2, static_cast<std::int64_t>(c));
    b.fld(1, 1, 0);
    b.fld(2, 2, 0);
    b.fmul(3, 1, 1);        // 9
    b.fmul(4, 2, 2);        // 16
    b.fadd(5, 3, 4);        // 25
    b.fsqrt(6, 5);          // 5
    b.ftoi(10, 6);
    b.fclt(11, 1, 2);       // 3 < 4
    b.fdiv(7, 2, 1);        // 4/3
    b.halt();
    Program p = b.build();
    Executor ex(p);
    while (!ex.halted())
        ex.step();
    EXPECT_EQ(ex.intReg(10), 5u);
    EXPECT_EQ(ex.intReg(11), 1u);
    EXPECT_NEAR(ex.fpReg(7), 4.0 / 3.0, 1e-12);
}

TEST(Executor, BranchesAndCalls)
{
    Builder b("br");
    Label f = b.newLabel();
    Label join = b.newLabel();
    b.li(1, 10);
    b.jal(reg::ra, f);      // call
    b.j(join);
    b.bind(f);
    b.addi(1, 1, 5);
    b.ret();
    b.bind(join);
    b.halt();
    Program p = b.build();
    Executor ex(p);
    int steps = 0;
    while (!ex.halted() && steps++ < 100)
        ex.step();
    EXPECT_TRUE(ex.halted());
    EXPECT_EQ(ex.intReg(1), 15u);
}

TEST(Executor, TakenBranchRecordsTarget)
{
    Builder b("t");
    Label l = b.newLabel();
    b.li(1, 1);
    b.bne(1, 0, l);
    b.nop();
    b.bind(l);
    b.halt();
    Program p = b.build();
    Executor ex(p);
    ex.step();              // li
    ExecResult r = ex.step();   // bne
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, p.textBase() + 3 * 4);
    ExecResult h = ex.step();
    EXPECT_TRUE(h.halted);
}

TEST(Executor, SeqNumbersAreMonotone)
{
    Builder b("s");
    b.nop();
    b.nop();
    b.halt();
    Program p = b.build();
    Executor ex(p);
    EXPECT_EQ(ex.step().seq, 1u);
    EXPECT_EQ(ex.step().seq, 2u);
    EXPECT_EQ(ex.step().seq, 3u);
    EXPECT_TRUE(ex.halted());
    EXPECT_EQ(ex.instsExecuted(), 3u);
}

TEST(Program, ValidPcChecks)
{
    Builder b("p");
    b.nop();
    b.halt();
    Program p = b.build();
    EXPECT_TRUE(p.validPc(p.textBase()));
    EXPECT_TRUE(p.validPc(p.textBase() + 4));
    EXPECT_FALSE(p.validPc(p.textBase() + 8));
    EXPECT_FALSE(p.validPc(p.textBase() + 2));
    EXPECT_FALSE(p.validPc(0));
}

} // namespace
} // namespace mcd
