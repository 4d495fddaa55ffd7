/**
 * @file
 * Tests for the mini-ISA: classification, builder semantics and
 * range checks, and the functional executor.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "isa/builder.hh"
#include "isa/executor.hh"
#include "isa/inst.hh"

namespace mcd {
namespace {

// -------------------------------------------------------------------
// Classification.
// -------------------------------------------------------------------

TEST(InstClass, Basic)
{
    EXPECT_TRUE(isIntAlu(Opcode::ADD));
    EXPECT_TRUE(isIntAlu(Opcode::LUI));
    EXPECT_FALSE(isIntAlu(Opcode::MUL));
    EXPECT_TRUE(isIntMulDiv(Opcode::DIV));
    EXPECT_TRUE(isFp(Opcode::FSQRT));
    EXPECT_TRUE(isFp(Opcode::FCLT));
    EXPECT_TRUE(isLoad(Opcode::FLD));
    EXPECT_TRUE(isStore(Opcode::FST));
    EXPECT_TRUE(isMem(Opcode::LD));
    EXPECT_FALSE(isMem(Opcode::ADD));
    EXPECT_TRUE(isBranch(Opcode::BGEU));
    EXPECT_TRUE(isJump(Opcode::JALR));
    EXPECT_TRUE(isControl(Opcode::JAL));
    EXPECT_FALSE(isControl(Opcode::SUB));
}

TEST(InstClass, FuClasses)
{
    EXPECT_EQ(fuClass(Opcode::ADD), FuClass::IntAlu);
    EXPECT_EQ(fuClass(Opcode::BEQ), FuClass::IntAlu);
    EXPECT_EQ(fuClass(Opcode::MUL), FuClass::IntMulDiv);
    EXPECT_EQ(fuClass(Opcode::LD), FuClass::MemPort);
    EXPECT_EQ(fuClass(Opcode::FADD), FuClass::FpAlu);
    EXPECT_EQ(fuClass(Opcode::FDIV), FuClass::FpMulDivSqrt);
    EXPECT_EQ(fuClass(Opcode::NOP), FuClass::None);
}

TEST(InstClass, Latencies)
{
    EXPECT_EQ(execLatency(Opcode::ADD), 1);
    EXPECT_EQ(execLatency(Opcode::MUL), 7);
    EXPECT_EQ(execLatency(Opcode::DIV), 20);
    EXPECT_EQ(execLatency(Opcode::FADD), 4);
    EXPECT_EQ(execLatency(Opcode::FDIV), 12);
    EXPECT_GT(execLatency(Opcode::FSQRT), execLatency(Opcode::FDIV));
}

TEST(InstClass, ExecDomains)
{
    EXPECT_EQ(execDomain(Opcode::ADD), Domain::Integer);
    EXPECT_EQ(execDomain(Opcode::BEQ), Domain::Integer);
    EXPECT_EQ(execDomain(Opcode::FMUL), Domain::FloatingPoint);
    EXPECT_EQ(execDomain(Opcode::LD), Domain::LoadStore);
    EXPECT_EQ(execDomain(Opcode::FST), Domain::LoadStore);
}

TEST(InstClass, DestKinds)
{
    Inst i;
    i.op = Opcode::ADD;
    i.rd = 5;
    EXPECT_EQ(destKind(i), DestKind::Int);
    i.rd = reg::zero;
    EXPECT_EQ(destKind(i), DestKind::None);
    i.op = Opcode::FADD;
    i.rd = 3;
    EXPECT_EQ(destKind(i), DestKind::Fp);
    i.op = Opcode::FCLT;
    EXPECT_EQ(destKind(i), DestKind::Int);
    i.op = Opcode::ST;
    EXPECT_EQ(destKind(i), DestKind::None);
    i.op = Opcode::BEQ;
    EXPECT_EQ(destKind(i), DestKind::None);
    i.op = Opcode::FLD;
    EXPECT_EQ(destKind(i), DestKind::Fp);
}

TEST(InstClass, SourceReads)
{
    EXPECT_TRUE(readsIntRs1(Opcode::ADD));
    EXPECT_TRUE(readsIntRs2(Opcode::ADD));
    EXPECT_FALSE(readsIntRs2(Opcode::ADDI));
    EXPECT_TRUE(readsIntRs1(Opcode::LD));   // base register
    EXPECT_TRUE(readsIntRs2(Opcode::ST));   // store data
    EXPECT_FALSE(readsIntRs2(Opcode::LD));
    EXPECT_TRUE(readsFpRs2(Opcode::FST));   // FP store data
    EXPECT_TRUE(readsFpRs1(Opcode::FSQRT));
    EXPECT_FALSE(readsFpRs2(Opcode::FSQRT));
    EXPECT_TRUE(readsIntRs1(Opcode::ITOF));
    EXPECT_TRUE(readsFpRs1(Opcode::FTOI));
    EXPECT_FALSE(readsIntRs1(Opcode::LUI));
    EXPECT_FALSE(readsIntRs1(Opcode::JAL));
    EXPECT_TRUE(readsIntRs1(Opcode::JALR));
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
    EXPECT_THROW(b.slti(1, 2, -32769), PanicError);
    EXPECT_THROW(b.ld(1, 2, 40000), PanicError);
    EXPECT_THROW(b.jalr(1, 2, -40000), PanicError);
}

TEST(Builder, LogicalImmediateIsUnsigned16Bits)
{
    Builder b("t");
    for (auto emit : {&Builder::ori, &Builder::andi, &Builder::xori}) {
        (b.*emit)(1, 2, 0);
        (b.*emit)(1, 2, 65535);
        EXPECT_THROW((b.*emit)(1, 2, 65536), PanicError);
        EXPECT_THROW((b.*emit)(1, 2, -1), PanicError);
    }
    b.lui(1, 65535);
    EXPECT_THROW(b.lui(1, 65536), PanicError);
    EXPECT_THROW(b.lui(1, -1), PanicError);
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
      case Opcode::SLL: bld.sll(3, 1, 2); break;
      case Opcode::SRL: bld.srl(3, 1, 2); break;
      case Opcode::SRA: bld.sra(3, 1, 2); break;
      case Opcode::SLT: bld.slt(3, 1, 2); break;
      case Opcode::SLTU: bld.sltu(3, 1, 2); break;
      case Opcode::MUL: bld.mul(3, 1, 2); break;
      case Opcode::DIV: bld.div(3, 1, 2); break;
      case Opcode::REM: bld.rem(3, 1, 2); break;
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
        AluCase{"sll", Opcode::SLL, 1, 12, 4096},
        AluCase{"srl", Opcode::SRL, 4096, 12, 1},
        AluCase{"srl-neg", Opcode::SRL, ~0ULL, 63, 1},
        AluCase{"sra-neg", Opcode::SRA, static_cast<std::uint64_t>(-64),
                3, static_cast<std::uint64_t>(-8)},
        AluCase{"slt-true", Opcode::SLT,
                static_cast<std::uint64_t>(-5), 3, 1},
        AluCase{"slt-false", Opcode::SLT, 3,
                static_cast<std::uint64_t>(-5), 0},
        AluCase{"sltu", Opcode::SLTU, 3,
                static_cast<std::uint64_t>(-5), 1},
        AluCase{"mul", Opcode::MUL, 1000, 1000, 1000000},
        AluCase{"div", Opcode::DIV, 100, 7, 14},
        AluCase{"div-neg", Opcode::DIV, static_cast<std::uint64_t>(-100),
                7, static_cast<std::uint64_t>(-14)},
        AluCase{"div-zero", Opcode::DIV, 5, 0, ~0ULL},
        AluCase{"rem", Opcode::REM, 100, 7, 2},
        AluCase{"rem-zero", Opcode::REM, 5, 0, 5}));

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
