/**
 * @file
 * An assembler-style program builder for the mini-ISA.
 *
 * Workload kernels are written against this API: label-based control
 * flow with forward references, pseudo-instructions (li, mv, branches
 * to labels), and a data-segment allocator.
 */

#ifndef MCD_ISA_BUILDER_HH
#define MCD_ISA_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/inst.hh"
#include "isa/memory_image.hh"
#include "isa/program.hh"

namespace mcd {

/** Opaque label handle returned by Builder::newLabel(). */
struct Label
{
    int id = -1;
    bool valid() const { return id >= 0; }
};

/**
 * Incrementally builds a Program.
 *
 * All branch/jump emitters referencing a Label record a fixup that is
 * resolved when build() is called; labels may be bound before or after
 * use. The data segment is bump-allocated from dataBase().
 */
class Builder
{
  public:
    explicit Builder(std::string name,
                     std::uint64_t text_base = defaultTextBase,
                     std::uint64_t data_base = defaultDataBase);

    /** @name Labels
     *  @{
     */
    Label newLabel();
    /** Bind @p l to the current text position. */
    void bind(Label l);
    /** Create a label already bound to the current position. */
    Label here();
    /** @} */

    /** @name Integer ALU (register-register)
     *  @{
     */
    void add(int rd, int rs1, int rs2) { emitR(Opcode::ADD, rd, rs1, rs2); }
    void sub(int rd, int rs1, int rs2) { emitR(Opcode::SUB, rd, rs1, rs2); }
    void and_(int rd, int rs1, int rs2) { emitR(Opcode::AND, rd, rs1, rs2); }
    void or_(int rd, int rs1, int rs2) { emitR(Opcode::OR, rd, rs1, rs2); }
    void xor_(int rd, int rs1, int rs2) { emitR(Opcode::XOR, rd, rs1, rs2); }
    void mul(int rd, int rs1, int rs2) { emitR(Opcode::MUL, rd, rs1, rs2); }
    /** @} */

    /** @name Integer ALU (immediate)
     *  @{
     */
    void addi(int rd, int rs1, int imm) { emitI(Opcode::ADDI, rd, rs1, imm); }
    void andi(int rd, int rs1, int imm) { emitI(Opcode::ANDI, rd, rs1, imm); }
    void ori(int rd, int rs1, int imm) { emitI(Opcode::ORI, rd, rs1, imm); }
    void slli(int rd, int rs1, int imm) { emitI(Opcode::SLLI, rd, rs1, imm); }
    void srli(int rd, int rs1, int imm) { emitI(Opcode::SRLI, rd, rs1, imm); }
    void srai(int rd, int rs1, int imm) { emitI(Opcode::SRAI, rd, rs1, imm); }
    /** @} */

    /** @name Memory
     *  @{
     */
    void ld(int rd, int base_reg, int off)
    { emitI(Opcode::LD, rd, base_reg, off); }
    void st(int data_reg, int base_reg, int off)
    { emitS(Opcode::ST, data_reg, base_reg, off); }
    void fld(int fd, int base_reg, int off)
    { emitI(Opcode::FLD, fd, base_reg, off); }
    void fst(int fdata_reg, int base_reg, int off)
    { emitS(Opcode::FST, fdata_reg, base_reg, off); }
    /** @} */

    /** @name Floating point
     *  @{
     */
    void fadd(int fd, int fs1, int fs2) { emitR(Opcode::FADD, fd, fs1, fs2); }
    void fsub(int fd, int fs1, int fs2) { emitR(Opcode::FSUB, fd, fs1, fs2); }
    void fmul(int fd, int fs1, int fs2) { emitR(Opcode::FMUL, fd, fs1, fs2); }
    void fdiv(int fd, int fs1, int fs2) { emitR(Opcode::FDIV, fd, fs1, fs2); }
    void fsqrt(int fd, int fs1) { emitR(Opcode::FSQRT, fd, fs1, 0); }
    void fmov(int fd, int fs1) { emitR(Opcode::FMOV, fd, fs1, 0); }
    void fclt(int rd, int fs1, int fs2) { emitR(Opcode::FCLT, rd, fs1, fs2); }
    void itof(int fd, int rs1) { emitR(Opcode::ITOF, fd, rs1, 0); }
    void ftoi(int rd, int fs1) { emitR(Opcode::FTOI, rd, fs1, 0); }
    /** @} */

    /** @name Control flow
     *  @{
     */
    void beq(int rs1, int rs2, Label l) { emitB(Opcode::BEQ, rs1, rs2, l); }
    void bne(int rs1, int rs2, Label l) { emitB(Opcode::BNE, rs1, rs2, l); }
    void blt(int rs1, int rs2, Label l) { emitB(Opcode::BLT, rs1, rs2, l); }
    void bge(int rs1, int rs2, Label l) { emitB(Opcode::BGE, rs1, rs2, l); }
    void jal(int rd, Label l);
    /** Unconditional jump (JAL with dead link register). */
    void j(Label l) { jal(reg::zero, l); }
    void jalr(int rd, int rs1, int off = 0)
    { emitI(Opcode::JALR, rd, rs1, off); }
    /** Return through the standard link register. */
    void ret() { jalr(reg::zero, reg::ra, 0); }
    void nop() { emitR(Opcode::NOP, 0, 0, 0); }
    void halt() { emitR(Opcode::HALT, 0, 0, 0); }
    /** @} */

    /** @name Pseudo-instructions
     *  @{
     */
    /** Load an arbitrary 64-bit constant (expands to 1..8 insts). */
    void li(int rd, std::int64_t value);
    /** Register move. */
    void mv(int rd, int rs1) { addi(rd, rs1, 0); }
    /** @} */

    /** @name Data segment
     *  @{
     */
    /** Allocate @p nwords 8-byte words; returns the base address. */
    std::uint64_t dataBlock(std::size_t nwords);
    /** Allocate and initialize one word; returns its address. */
    std::uint64_t dataWord(std::uint64_t value);
    /** Allocate and initialize one double; returns its address. */
    std::uint64_t dataDouble(double value);
    /** Initialize a previously allocated word. */
    void setDataWord(std::uint64_t addr, std::uint64_t value);
    /** Initialize a previously allocated double. */
    void setDataDouble(std::uint64_t addr, double value);
    std::uint64_t dataBase() const { return dataStart; }
    /** Current top of the bump allocator. */
    std::uint64_t dataTop() const { return dataNext; }
    /** @} */

    /** Address of the next instruction to be emitted. */
    std::uint64_t pc() const { return textBase + 4 * insts.size(); }

    /** Number of instructions emitted so far. */
    std::size_t size() const { return insts.size(); }

    /** Resolve fixups and produce the Program. Ends with HALT if the
     *  last emitted instruction is not already HALT. */
    Program build();

  private:
    void emitR(Opcode op, int rd, int rs1, int rs2);
    void emitI(Opcode op, int rd, int rs1, int imm);
    void emitS(Opcode op, int rs2, int rs1, int imm);
    void emitB(Opcode op, int rs1, int rs2, Label l);
    void checkReg(int r) const;

    struct Fixup
    {
        std::size_t index;  //!< instruction slot to patch
        int labelId;
    };

    std::string name;
    std::uint64_t textBase;
    std::uint64_t dataStart;
    std::uint64_t dataNext;
    std::vector<Inst> insts;
    std::vector<std::int64_t> labelPos;     //!< -1 = unbound
    std::vector<Fixup> fixups;
    MemoryImage data;
};

} // namespace mcd

#endif // MCD_ISA_BUILDER_HH
