/**
 * @file
 * The MCD mini-ISA: a 64-bit RISC instruction set rich enough to
 * express the paper's benchmark kernels (integer, floating-point,
 * memory, and control instructions).
 *
 * Register file: 32 integer registers (r0 hardwired to zero) and 32
 * floating-point registers. Programs exist only as Inst records (there
 * is no binary encoding); each takes a 4-byte slot of the text
 * address space so instruction-cache behaviour is meaningful.
 */

#ifndef MCD_ISA_INST_HH
#define MCD_ISA_INST_HH

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

    // Integer register-register ALU.
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
    // Integer multiply/divide unit.
    MUL, DIV, REM,
    // Integer register-immediate ALU.
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, LUI,

    // Memory: 8-byte loads and stores, integer and FP register files.
    LD, ST, FLD, FST,

    // Floating point (double precision).
    FADD, FSUB, FMUL, FDIV, FSQRT, FNEG, FABS, FMOV,
    FMIN, FMAX,
    // FP compares write an integer register (0/1).
    FCLT, FCLE, FCEQ,
    // Conversions.
    ITOF,   //!< int reg -> fp reg
    FTOI,   //!< fp reg -> int reg (truncating)

    // Control.
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    JAL, JALR,

    NumOpcodes,
};

/** Functional-unit classes (Table 1: 4+1 integer, 2+1 FP units). */
enum class FuClass : std::uint8_t {
    None,       //!< no functional unit (NOP/HALT consume an ALU slot)
    IntAlu,     //!< single-cycle integer ALU
    IntMulDiv,  //!< integer multiply/divide unit
    FpAlu,      //!< FP add/sub/compare/convert/move unit
    FpMulDivSqrt, //!< FP multiply/divide/sqrt unit
    MemPort,    //!< L1 D-cache port (issued from the LSQ)
};

/** Destination register file of an instruction. */
enum class DestKind : std::uint8_t { None, Int, Fp };

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

/** @name Instruction classification
 *  Static properties derived from the opcode.
 *  @{
 */
bool isIntAlu(Opcode op);
bool isIntMulDiv(Opcode op);
bool isFp(Opcode op);
bool isLoad(Opcode op);
bool isStore(Opcode op);
bool isBranch(Opcode op);   //!< conditional branch
bool isJump(Opcode op);     //!< JAL/JALR

inline bool isMem(Opcode op) { return isLoad(op) || isStore(op); }
inline bool
isControl(Opcode op)
{
    return isBranch(op) || isJump(op);
}

/** Functional unit needed to execute the instruction. */
FuClass fuClass(Opcode op);

/** Execution latency in cycles on its functional unit. */
int execLatency(Opcode op);

/** Which register file the destination lives in (if any). */
DestKind destKind(const Inst &inst);

/** True if rs1 is a live integer source. */
bool readsIntRs1(Opcode op);
/** True if rs2 is a live integer source. */
bool readsIntRs2(Opcode op);
/** True if rs1 is a live FP source. */
bool readsFpRs1(Opcode op);
/** True if rs2 is a live FP source. */
bool readsFpRs2(Opcode op);
/** @} */

/**
 * Back-end clock domain in which the instruction's execute event runs.
 * Memory instructions split across Integer (address generation) and
 * LoadStore (cache access); this returns LoadStore for them.
 */
Domain execDomain(Opcode op);

} // namespace mcd

#endif // MCD_ISA_INST_HH
