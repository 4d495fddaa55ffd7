#include "builder.hh"

#include "common/log.hh"

namespace mcd {

Builder::Builder(std::string prog_name, std::uint64_t text_base,
                 std::uint64_t data_base)
    : name(std::move(prog_name)), textBase(text_base),
      dataStart(data_base), dataNext(data_base)
{
    if (text_base & 3)
        fatal("text base must be 4-byte aligned");
    if (data_base & 7)
        fatal("data base must be 8-byte aligned");
}

Label
Builder::newLabel()
{
    Label l;
    l.id = static_cast<int>(labelPos.size());
    labelPos.push_back(-1);
    return l;
}

void
Builder::bind(Label l)
{
    if (!l.valid() || l.id >= static_cast<int>(labelPos.size()))
        panic("bind: invalid label");
    if (labelPos[l.id] >= 0)
        panic("bind: label bound twice");
    labelPos[l.id] = static_cast<std::int64_t>(insts.size());
}

Label
Builder::here()
{
    Label l = newLabel();
    bind(l);
    return l;
}

void
Builder::checkReg(int r) const
{
    if (r < 0 || r >= numArchIntRegs)
        panic("register index out of range");
}

void
Builder::emitR(Opcode op, int rd, int rs1, int rs2)
{
    checkReg(rd);
    checkReg(rs1);
    checkReg(rs2);
    Inst i;
    i.op = op;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.rs2 = static_cast<std::uint8_t>(rs2);
    insts.push_back(i);
}

void
Builder::emitI(Opcode op, int rd, int rs1, int imm)
{
    checkReg(rd);
    checkReg(rs1);
    // Logical immediates (ANDI/ORI) are zero-extended 16-bit values;
    // accept [0, 65535] and store the low 16 bits sign-extended, like
    // every other imm16 (the executor zero-extends them again).
    bool logical = op == Opcode::ANDI || op == Opcode::ORI;
    if (logical) {
        if (imm < 0 || imm > 65535)
            panic("logical immediate out of unsigned 16-bit range");
        imm = static_cast<std::int32_t>(
            static_cast<std::int16_t>(imm & 0xffff));
    } else if (imm < -32768 || imm > 32767) {
        panic("immediate out of 16-bit range");
    }
    Inst i;
    i.op = op;
    i.rd = static_cast<std::uint8_t>(rd);
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.imm = imm;
    insts.push_back(i);
}

void
Builder::emitS(Opcode op, int rs2, int rs1, int imm)
{
    checkReg(rs2);
    checkReg(rs1);
    if (imm < -32768 || imm > 32767)
        panic("store offset out of 16-bit range");
    Inst i;
    i.op = op;
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.rs2 = static_cast<std::uint8_t>(rs2);
    i.imm = imm;
    insts.push_back(i);
}

void
Builder::emitB(Opcode op, int rs1, int rs2, Label l)
{
    checkReg(rs1);
    checkReg(rs2);
    if (!l.valid())
        panic("branch to invalid label");
    Inst i;
    i.op = op;
    i.rs1 = static_cast<std::uint8_t>(rs1);
    i.rs2 = static_cast<std::uint8_t>(rs2);
    i.imm = 0;
    fixups.push_back({insts.size(), l.id});
    insts.push_back(i);
}

void
Builder::jal(int rd, Label l)
{
    checkReg(rd);
    if (!l.valid())
        panic("jump to invalid label");
    Inst i;
    i.op = Opcode::JAL;
    i.rd = static_cast<std::uint8_t>(rd);
    fixups.push_back({insts.size(), l.id});
    insts.push_back(i);
}

void
Builder::li(int rd, std::int64_t value)
{
    checkReg(rd);
    if (value >= -32768 && value <= 32767) {
        addi(rd, reg::zero, static_cast<int>(value));
        return;
    }
    // General path: assemble 16-bit chunks MSB-first. ORI immediates
    // are zero-extended, so each chunk loads exactly.
    std::uint64_t v = static_cast<std::uint64_t>(value);
    bool started = false;
    for (int shift = 48; shift >= 0; shift -= 16) {
        int chunk = static_cast<int>((v >> shift) & 0xffff);
        if (!started) {
            if (chunk == 0)
                continue;
            ori(rd, reg::zero, chunk);
            started = true;
        } else {
            slli(rd, rd, 16);
            if (chunk)
                ori(rd, rd, chunk);
        }
    }
    if (!started)
        addi(rd, reg::zero, 0);
}

std::uint64_t
Builder::dataBlock(std::size_t nwords)
{
    std::uint64_t addr = dataNext;
    dataNext += 8 * nwords;
    return addr;
}

std::uint64_t
Builder::dataWord(std::uint64_t value)
{
    std::uint64_t addr = dataBlock(1);
    data.writeWord(addr, value);
    return addr;
}

std::uint64_t
Builder::dataDouble(double value)
{
    std::uint64_t addr = dataBlock(1);
    data.writeDouble(addr, value);
    return addr;
}

void
Builder::setDataWord(std::uint64_t addr, std::uint64_t value)
{
    data.writeWord(addr, value);
}

void
Builder::setDataDouble(std::uint64_t addr, double value)
{
    data.writeDouble(addr, value);
}

Program
Builder::build()
{
    if (insts.empty() || insts.back().op != Opcode::HALT)
        halt();
    for (const Fixup &f : fixups) {
        std::int64_t target = labelPos[f.labelId];
        if (target < 0)
            panic("build: unbound label referenced");
        std::int64_t disp =
            (target - static_cast<std::int64_t>(f.index)) * 4;
        Inst &i = insts[f.index];
        if (i.op == Opcode::JAL) {
            if (disp < -(1 << 20) || disp >= (1 << 20))
                panic("build: jump displacement out of range");
        } else {
            if (disp < -32768 || disp > 32767)
                panic("build: branch displacement out of range");
        }
        i.imm = static_cast<std::int32_t>(disp);
    }
    return Program(name, textBase, std::move(insts), std::move(data));
}

} // namespace mcd
