/**
 * @file
 * The MCD mini-ISA: a 64-bit RISC instruction set holding exactly the
 * opcodes the paper's benchmark kernels and the fuzz generator emit
 * (integer, floating-point, memory and control instructions), plus
 * NOP, the value of a default-constructed Inst. test_isa's
 * Isa.EveryOpcodeIsEmitted keeps it that way.
 *
 * Everything the timing model, the trace and the analyzer know about
 * an opcode is its row of opTable below; what the opcode computes is
 * the Executor's switch. Nothing else switches on an opcode.
 *
 * Register file: 32 integer registers (r0 hardwired to zero) and 32
 * floating-point registers. Programs exist only as Inst records (there
 * is no binary encoding); each takes a 4-byte slot of the text
 * address space so instruction-cache behaviour is meaningful.
 */

#ifndef MCD_ISA_INST_HH
#define MCD_ISA_INST_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace mcd {

/** Number of architectural integer / floating-point registers. */
inline constexpr int numArchIntRegs = 32;
inline constexpr int numArchFpRegs = 32;

/** Conventional register aliases used by the workload kernels. */
namespace reg {
inline constexpr int zero = 0;  //!< always reads 0
inline constexpr int ra = 31;   //!< return address (JAL default link)
inline constexpr int sp = 30;   //!< stack pointer
} // namespace reg

/** Opcodes of the mini-ISA. */
enum class Opcode : std::uint8_t {
    NOP = 0,
    HALT,

    // Integer register-register ALU, and the multiplier.
    ADD, SUB, AND, OR, XOR, MUL,
    // Integer register-immediate ALU.
    ADDI, ANDI, ORI, SLLI, SRLI, SRAI,

    // Memory: 8-byte loads and stores, integer and FP register files.
    LD, ST, FLD, FST,

    // Floating point (double precision). FCLT writes an integer
    // register (0/1); ITOF and FTOI convert between the files
    // (FTOI truncates).
    FADD, FSUB, FMUL, FDIV, FSQRT, FMOV, FCLT, ITOF, FTOI,

    // Control.
    BEQ, BNE, BLT, BGE, JAL, JALR,

    NumOpcodes,
};

inline constexpr std::size_t numOpcodes =
    static_cast<std::size_t>(Opcode::NumOpcodes);

/** Functional-unit classes (Table 1: 4+1 integer, 2+1 FP units). */
enum class FuClass : std::uint8_t {
    None,       //!< no functional unit (NOP/HALT)
    IntAlu,     //!< single-cycle integer ALU
    IntMulDiv,  //!< integer multiply/divide unit
    FpAlu,      //!< FP add/sub/compare/convert/move unit
    FpMulDivSqrt, //!< FP multiply/divide/sqrt unit
    MemPort,    //!< L1 D-cache port (issued from the LSQ)
};

/** A register file, or None for no register. */
enum class RegFile : std::uint8_t { None, Int, Fp };

/** What kind of instruction an opcode is, beyond its registers. */
enum class OpKind : std::uint8_t { Plain, Load, Store, Branch, Jump };

/** One instruction. */
struct Inst
{
    Opcode op = Opcode::NOP;
    std::uint8_t rd = 0;    //!< destination register index
    std::uint8_t rs1 = 0;   //!< first source register index
    std::uint8_t rs2 = 0;   //!< second source register index
    std::int32_t imm = 0;   //!< immediate / branch displacement (bytes)

    bool operator==(const Inst &) const = default;
};

/**
 * The static facts about one opcode. A memory op has two events: its
 * execute event generates the address on an integer ALU in one cycle
 * (fu, latency, execDomain), and its cache access, issued from the
 * LSQ, reads the store data and produces the loaded value.
 */
struct OpInfo
{
    Opcode op;
    const char *name;       //!< mnemonic
    FuClass fu;             //!< unit of the execute event
    std::uint8_t latency;   //!< execute-event cycles on that unit
    RegFile dest;           //!< file rd is written in (see liveFile)
    RegFile src1;           //!< file rs1 is read from
    RegFile src2;           //!< file rs2 is read from
    RegFile iq;             //!< issue queue; None: done in the front end
    Domain execDomain;      //!< domain of the execute event
    Domain doneDomain;      //!< domain that signals completion to commit
    OpKind kind;

    constexpr bool isLoad() const { return kind == OpKind::Load; }
    constexpr bool isStore() const { return kind == OpKind::Store; }
    constexpr bool isMem() const { return isLoad() || isStore(); }
    constexpr bool isBranch() const { return kind == OpKind::Branch; }
    constexpr bool isJump() const { return kind == OpKind::Jump; }
    constexpr bool isControl() const { return isBranch() || isJump(); }
};

namespace detail {

/** The rows of opTable, one per opcode in Opcode order. */
constexpr std::array<OpInfo, numOpcodes>
opRows()
{
    using O = Opcode;
    using K = OpKind;
    constexpr FuClass no = FuClass::None, alu = FuClass::IntAlu,
                      mul = FuClass::IntMulDiv, fal = FuClass::FpAlu,
                      fmd = FuClass::FpMulDivSqrt;
    constexpr RegFile _ = RegFile::None, I = RegFile::Int,
                      F = RegFile::Fp;
    constexpr Domain fe = Domain::FrontEnd, in = Domain::Integer,
                     fp = Domain::FloatingPoint, ls = Domain::LoadStore;
    // Alpha-21264-inspired latencies; the cache hierarchy supplies a
    // memory op's access latency.
    return {{
        // op      name     fu  lat dst rs1 rs2 iq exec done  kind
        {O::NOP,   "NOP",   no,   0, _, _, _, _, fe, fe, K::Plain},
        {O::HALT,  "HALT",  no,   0, _, _, _, _, fe, fe, K::Plain},
        {O::ADD,   "ADD",   alu,  1, I, I, I, I, in, in, K::Plain},
        {O::SUB,   "SUB",   alu,  1, I, I, I, I, in, in, K::Plain},
        {O::AND,   "AND",   alu,  1, I, I, I, I, in, in, K::Plain},
        {O::OR,    "OR",    alu,  1, I, I, I, I, in, in, K::Plain},
        {O::XOR,   "XOR",   alu,  1, I, I, I, I, in, in, K::Plain},
        {O::MUL,   "MUL",   mul,  7, I, I, I, I, in, in, K::Plain},
        {O::ADDI,  "ADDI",  alu,  1, I, I, _, I, in, in, K::Plain},
        {O::ANDI,  "ANDI",  alu,  1, I, I, _, I, in, in, K::Plain},
        {O::ORI,   "ORI",   alu,  1, I, I, _, I, in, in, K::Plain},
        {O::SLLI,  "SLLI",  alu,  1, I, I, _, I, in, in, K::Plain},
        {O::SRLI,  "SRLI",  alu,  1, I, I, _, I, in, in, K::Plain},
        {O::SRAI,  "SRAI",  alu,  1, I, I, _, I, in, in, K::Plain},
        {O::LD,    "LD",    alu,  1, I, I, _, I, in, ls, K::Load},
        {O::ST,    "ST",    alu,  1, _, I, I, I, in, ls, K::Store},
        {O::FLD,   "FLD",   alu,  1, F, I, _, I, in, ls, K::Load},
        {O::FST,   "FST",   alu,  1, _, I, F, I, in, ls, K::Store},
        {O::FADD,  "FADD",  fal,  4, F, F, F, F, fp, fp, K::Plain},
        {O::FSUB,  "FSUB",  fal,  4, F, F, F, F, fp, fp, K::Plain},
        {O::FMUL,  "FMUL",  fmd,  4, F, F, F, F, fp, fp, K::Plain},
        {O::FDIV,  "FDIV",  fmd, 12, F, F, F, F, fp, fp, K::Plain},
        {O::FSQRT, "FSQRT", fmd, 18, F, F, _, F, fp, fp, K::Plain},
        {O::FMOV,  "FMOV",  fal,  4, F, F, _, F, fp, fp, K::Plain},
        {O::FCLT,  "FCLT",  fal,  4, I, F, F, F, fp, fp, K::Plain},
        {O::ITOF,  "ITOF",  fal,  4, F, I, _, F, fp, fp, K::Plain},
        {O::FTOI,  "FTOI",  fal,  4, I, F, _, F, fp, fp, K::Plain},
        {O::BEQ,   "BEQ",   alu,  1, _, I, I, I, in, in, K::Branch},
        {O::BNE,   "BNE",   alu,  1, _, I, I, I, in, in, K::Branch},
        {O::BLT,   "BLT",   alu,  1, _, I, I, I, in, in, K::Branch},
        {O::BGE,   "BGE",   alu,  1, _, I, I, I, in, in, K::Branch},
        {O::JAL,   "JAL",   alu,  1, I, _, _, I, in, in, K::Jump},
        {O::JALR,  "JALR",  alu,  1, I, I, _, I, in, in, K::Jump},
    }};
}

} // namespace detail

/** Every opcode's static facts, indexed by opcode. */
inline constexpr std::array<OpInfo, numOpcodes> opTable = detail::opRows();

static_assert(
    [] {
        for (std::size_t i = 0; i < numOpcodes; ++i) {
            if (opTable[i].op != static_cast<Opcode>(i))
                return false;
        }
        return true;
    }(),
    "opTable must hold one row per opcode, in Opcode order");

constexpr const OpInfo &
opInfo(Opcode op)
{
    return opTable[static_cast<std::size_t>(op)];
}

/**
 * The file operand register @p r of a column @p f actually touches:
 * r0 reads as zero and discards writes, so it is no register at all.
 */
constexpr RegFile
liveFile(RegFile f, int r)
{
    return f == RegFile::Int && r == reg::zero ? RegFile::None : f;
}

} // namespace mcd

#endif // MCD_ISA_INST_HH
