#include "inst.hh"

namespace mcd {

bool
isIntAlu(Opcode op)
{
    switch (op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::SLL:
      case Opcode::SRL: case Opcode::SRA: case Opcode::SLT:
      case Opcode::SLTU: case Opcode::ADDI: case Opcode::ANDI:
      case Opcode::ORI: case Opcode::XORI: case Opcode::SLLI:
      case Opcode::SRLI: case Opcode::SRAI: case Opcode::SLTI:
      case Opcode::LUI:
        return true;
      default:
        return false;
    }
}

bool
isIntMulDiv(Opcode op)
{
    return op == Opcode::MUL || op == Opcode::DIV || op == Opcode::REM;
}

bool
isFp(Opcode op)
{
    switch (op) {
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::FSQRT: case Opcode::FNEG:
      case Opcode::FABS: case Opcode::FMOV: case Opcode::FMIN:
      case Opcode::FMAX: case Opcode::FCLT: case Opcode::FCLE:
      case Opcode::FCEQ: case Opcode::ITOF: case Opcode::FTOI:
        return true;
      default:
        return false;
    }
}

bool
isLoad(Opcode op)
{
    return op == Opcode::LD || op == Opcode::FLD;
}

bool
isStore(Opcode op)
{
    return op == Opcode::ST || op == Opcode::FST;
}

bool
isBranch(Opcode op)
{
    switch (op) {
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: case Opcode::BLTU: case Opcode::BGEU:
        return true;
      default:
        return false;
    }
}

bool
isJump(Opcode op)
{
    return op == Opcode::JAL || op == Opcode::JALR;
}

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
    // Alpha-21264-inspired latencies; memory latency is supplied by the
    // cache hierarchy, so LD/ST here is the port occupancy only.
    switch (op) {
      case Opcode::MUL: return 7;
      case Opcode::DIV: case Opcode::REM: return 20;
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMIN:
      case Opcode::FMAX: case Opcode::FNEG: case Opcode::FABS:
      case Opcode::FMOV: case Opcode::FCLT: case Opcode::FCLE:
      case Opcode::FCEQ: case Opcode::ITOF: case Opcode::FTOI:
        return 4;
      case Opcode::FMUL: return 4;
      case Opcode::FDIV: return 12;
      case Opcode::FSQRT: return 18;
      default: return 1;
    }
}

DestKind
destKind(const Inst &inst)
{
    Opcode op = inst.op;
    if (op == Opcode::NOP || op == Opcode::HALT || isBranch(op) ||
        isStore(op)) {
        return DestKind::None;
    }
    if (op == Opcode::FLD)
        return DestKind::Fp;
    if (op == Opcode::LD)
        return inst.rd == reg::zero ? DestKind::None : DestKind::Int;
    if (isFp(op)) {
        // FP compares and FTOI write integer registers.
        if (op == Opcode::FCLT || op == Opcode::FCLE ||
            op == Opcode::FCEQ || op == Opcode::FTOI) {
            return inst.rd == reg::zero ? DestKind::None : DestKind::Int;
        }
        return DestKind::Fp;
    }
    // Integer ALU / mul-div / jumps (link register).
    return inst.rd == reg::zero ? DestKind::None : DestKind::Int;
}

bool
readsIntRs1(Opcode op)
{
    if (isIntAlu(op) && op != Opcode::LUI)
        return true;
    if (isIntMulDiv(op) || isBranch(op) || isMem(op))
        return true;    // memory base register
    if (op == Opcode::JALR || op == Opcode::ITOF)
        return true;
    return false;
}

bool
readsIntRs2(Opcode op)
{
    switch (op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::SLL:
      case Opcode::SRL: case Opcode::SRA: case Opcode::SLT:
      case Opcode::SLTU: case Opcode::MUL: case Opcode::DIV:
      case Opcode::REM:
        return true;
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: case Opcode::BLTU: case Opcode::BGEU:
        return true;
      case Opcode::ST:
        return true;    // store data
      default:
        return false;
    }
}

bool
readsFpRs1(Opcode op)
{
    switch (op) {
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV: case Opcode::FSQRT: case Opcode::FNEG:
      case Opcode::FABS: case Opcode::FMOV: case Opcode::FMIN:
      case Opcode::FMAX: case Opcode::FCLT: case Opcode::FCLE:
      case Opcode::FCEQ: case Opcode::FTOI:
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
      case Opcode::FDIV: case Opcode::FMIN: case Opcode::FMAX:
      case Opcode::FCLT: case Opcode::FCLE: case Opcode::FCEQ:
        return true;
      case Opcode::FST:
        return true;    // store data
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

} // namespace mcd
