/**
 * @file
 * Functional (architectural) executor for the mini-ISA.
 *
 * The timing model is oracle-driven in the SimpleScalar tradition: the
 * executor runs the program in order and hands the timing core a
 * stream of ExecResult records carrying everything timing needs —
 * branch outcomes and targets, effective addresses, and the
 * instruction. Memory *values* never influence timing directly, but we
 * execute them faithfully so workloads are self-checking.
 */

#ifndef MCD_ISA_EXECUTOR_HH
#define MCD_ISA_EXECUTOR_HH

#include <array>
#include <cstdint>

#include "isa/memory_image.hh"
#include "isa/program.hh"

namespace mcd {

/** One architecturally executed instruction, as seen by timing. */
struct ExecResult
{
    std::uint64_t seq = 0;      //!< dynamic instruction number (1-based)
    std::uint64_t pc = 0;
    Inst inst;
    std::uint64_t nextPc = 0;   //!< architecturally correct next PC
    bool taken = false;         //!< control transfer taken (branch/jump)
    std::uint64_t memAddr = 0;  //!< effective address for memory ops
    bool halted = false;        //!< this instruction was HALT
};

/**
 * Architectural state plus an in-order step() interface.
 */
class Executor
{
  public:
    explicit Executor(const Program &program);

    /** Execute the next instruction; undefined once halted(). */
    ExecResult step();

    bool halted() const { return isHalted; }
    std::uint64_t instsExecuted() const { return seq; }
    std::uint64_t pc() const { return curPc; }

    /** @name Architectural state inspection (used by tests/workloads)
     *  @{
     */
    std::uint64_t intReg(int r) const { return iregs[r]; }
    double fpReg(int r) const { return fregs[r]; }
    std::uint64_t readMem(std::uint64_t addr) const
    { return mem.readWord(addr); }
    /** @} */

  private:
    const Program &prog;
    MemoryImage mem;
    std::array<std::uint64_t, numArchIntRegs> iregs{};
    std::array<double, numArchFpRegs> fregs{};
    std::uint64_t curPc;
    std::uint64_t seq = 0;
    bool isHalted = false;
};

} // namespace mcd

#endif // MCD_ISA_EXECUTOR_HH
