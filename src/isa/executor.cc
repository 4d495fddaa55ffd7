#include "executor.hh"

#include <cmath>

#include "common/log.hh"

namespace mcd {

Executor::Executor(const Program &program)
    : prog(program), curPc(program.entry())
{
    mem.overlay(program.initialData());
    iregs[reg::sp] = defaultStackTop;
}

ExecResult
Executor::step()
{
    if (isHalted)
        panic("Executor::step after halt");
    if (!prog.validPc(curPc))
        panic("Executor: pc outside text segment");

    const Inst &in = prog.fetch(curPc);
    ExecResult r;
    r.seq = ++seq;
    r.pc = curPc;
    r.inst = in;
    r.nextPc = curPc + 4;

    auto &x = iregs;
    auto &f = fregs;
    auto u16 = [](std::int32_t imm) {
        return static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(imm) & 0xffffu);
    };
    auto s = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };

    std::uint64_t rd_val = 0;
    bool write_int = false;
    double fd_val = 0.0;
    bool write_fp = false;

    switch (in.op) {
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        r.halted = true;
        isHalted = true;
        break;

      case Opcode::ADD: rd_val = x[in.rs1] + x[in.rs2]; write_int = true;
        break;
      case Opcode::SUB: rd_val = x[in.rs1] - x[in.rs2]; write_int = true;
        break;
      case Opcode::AND: rd_val = x[in.rs1] & x[in.rs2]; write_int = true;
        break;
      case Opcode::OR: rd_val = x[in.rs1] | x[in.rs2]; write_int = true;
        break;
      case Opcode::XOR: rd_val = x[in.rs1] ^ x[in.rs2]; write_int = true;
        break;

      case Opcode::MUL: rd_val = x[in.rs1] * x[in.rs2]; write_int = true;
        break;

      case Opcode::ADDI:
        rd_val = x[in.rs1] + static_cast<std::uint64_t>(
            static_cast<std::int64_t>(in.imm));
        write_int = true;
        break;
      case Opcode::ANDI: rd_val = x[in.rs1] & u16(in.imm); write_int = true;
        break;
      case Opcode::ORI: rd_val = x[in.rs1] | u16(in.imm); write_int = true;
        break;
      case Opcode::SLLI:
        rd_val = x[in.rs1] << (in.imm & 63); write_int = true;
        break;
      case Opcode::SRLI:
        rd_val = x[in.rs1] >> (in.imm & 63); write_int = true;
        break;
      case Opcode::SRAI:
        rd_val = static_cast<std::uint64_t>(s(x[in.rs1]) >> (in.imm & 63));
        write_int = true;
        break;

      case Opcode::LD:
        r.memAddr = x[in.rs1] + static_cast<std::int64_t>(in.imm);
        rd_val = mem.readWord(r.memAddr & ~7ULL);
        write_int = true;
        break;
      case Opcode::ST:
        r.memAddr = x[in.rs1] + static_cast<std::int64_t>(in.imm);
        mem.writeWord(r.memAddr & ~7ULL, x[in.rs2]);
        break;
      case Opcode::FLD:
        r.memAddr = x[in.rs1] + static_cast<std::int64_t>(in.imm);
        fd_val = mem.readDouble(r.memAddr & ~7ULL);
        write_fp = true;
        break;
      case Opcode::FST:
        r.memAddr = x[in.rs1] + static_cast<std::int64_t>(in.imm);
        mem.writeDouble(r.memAddr & ~7ULL, f[in.rs2]);
        break;

      case Opcode::FADD: fd_val = f[in.rs1] + f[in.rs2]; write_fp = true;
        break;
      case Opcode::FSUB: fd_val = f[in.rs1] - f[in.rs2]; write_fp = true;
        break;
      case Opcode::FMUL: fd_val = f[in.rs1] * f[in.rs2]; write_fp = true;
        break;
      case Opcode::FDIV: fd_val = f[in.rs1] / f[in.rs2]; write_fp = true;
        break;
      case Opcode::FSQRT: fd_val = std::sqrt(f[in.rs1]); write_fp = true;
        break;
      case Opcode::FMOV: fd_val = f[in.rs1]; write_fp = true;
        break;
      case Opcode::FCLT:
        rd_val = f[in.rs1] < f[in.rs2] ? 1 : 0; write_int = true;
        break;
      case Opcode::ITOF:
        fd_val = static_cast<double>(s(x[in.rs1])); write_fp = true;
        break;
      case Opcode::FTOI:
        rd_val = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(f[in.rs1]));
        write_int = true;
        break;

      case Opcode::BEQ:
        r.taken = x[in.rs1] == x[in.rs2];
        break;
      case Opcode::BNE:
        r.taken = x[in.rs1] != x[in.rs2];
        break;
      case Opcode::BLT:
        r.taken = s(x[in.rs1]) < s(x[in.rs2]);
        break;
      case Opcode::BGE:
        r.taken = s(x[in.rs1]) >= s(x[in.rs2]);
        break;

      case Opcode::JAL:
        rd_val = curPc + 4;
        write_int = true;
        r.taken = true;
        r.nextPc = curPc + static_cast<std::int64_t>(in.imm);
        break;
      case Opcode::JALR:
        rd_val = curPc + 4;
        write_int = true;
        r.taken = true;
        r.nextPc = (x[in.rs1] + static_cast<std::int64_t>(in.imm)) & ~3ULL;
        break;

      default:
        panic("Executor: unhandled opcode");
    }

    if (opInfo(in.op).isBranch() && r.taken)
        r.nextPc = curPc + static_cast<std::int64_t>(in.imm);

    if (write_int && in.rd != reg::zero)
        x[in.rd] = rd_val;
    if (write_fp)
        f[in.rd] = fd_val;

    curPc = r.nextPc;
    return r;
}

} // namespace mcd
