/**
 * @file
 * A loaded mini-ISA program: its instructions, initial data image, and
 * entry point.
 */

#ifndef MCD_ISA_PROGRAM_HH
#define MCD_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/inst.hh"
#include "isa/memory_image.hh"

namespace mcd {

/** Default base address of the text segment. */
inline constexpr std::uint64_t defaultTextBase = 0x10000;

/** Default base address of the data segment. */
inline constexpr std::uint64_t defaultDataBase = 0x400000;

/** Default initial stack pointer (grows down). */
inline constexpr std::uint64_t defaultStackTop = 0x8000000;

/**
 * An executable program image.
 *
 * Text is one Inst per 4-byte slot from textBase(): the functional
 * executor and the timing model read the Inst, and the I-cache reads
 * only its PC. Only the Builder makes a Program, so every instruction
 * has passed its range checks.
 */
class Program
{
  public:
    const std::string &name() const { return progName; }
    std::uint64_t textBase() const { return base; }
    std::uint64_t entry() const { return base; }
    std::size_t textSize() const { return text.size(); }

    /** Highest valid instruction address + 4. */
    std::uint64_t textLimit() const { return base + 4 * text.size(); }

    /** True if @p pc addresses a valid instruction. */
    bool
    validPc(std::uint64_t pc) const
    {
        return pc >= base && pc < textLimit() && (pc & 3) == 0;
    }

    /** The instruction at @p pc. */
    const Inst &
    fetch(std::uint64_t pc) const
    {
        return text[(pc - base) / 4];
    }

    /** Initial data image (copied into the executor at reset). */
    const MemoryImage &initialData() const { return dataImage; }

  private:
    friend class Builder;

    Program(std::string name, std::uint64_t text_base,
            std::vector<Inst> insts, MemoryImage data)
        : progName(std::move(name)), base(text_base),
          text(std::move(insts)), dataImage(std::move(data))
    {}

    std::string progName;
    std::uint64_t base;
    std::vector<Inst> text;
    MemoryImage dataImage;
};

} // namespace mcd

#endif // MCD_ISA_PROGRAM_HH
