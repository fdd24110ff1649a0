#include "isa/inst.hh"

#include "common/logging.hh"

namespace dise {

std::string
regName(RegId r)
{
    switch (r.kind) {
      case RegKind::None:
        return "-";
      case RegKind::Dise:
        return "dr" + std::to_string(r.idx);
      case RegKind::Int:
        break;
    }
    switch (r.idx) {
      case 15: return "fp";
      case 26: return "ra";
      case 28: return "at";
      case 29: return "gp";
      case 30: return "sp";
      case 31: return "zero";
      default: return std::string("r").append(std::to_string(r.idx));
    }
}

Inst
makeOp(Opcode op, RegId ra, RegId rb, RegId rc)
{
    DISE_ASSERT(opInfo(op).fmt == Format::Operate, opName(op));
    return Inst{op, ra, rb, rc, 0};
}

Inst
makeOpImm(Opcode op, RegId ra, uint8_t imm, RegId rc)
{
    DISE_ASSERT(opInfo(op).fmt == Format::OperateImm, opName(op));
    return Inst{op, ra, {}, rc, imm};
}

Inst
makeMem(Opcode op, RegId ra, int64_t disp, RegId rb)
{
    DISE_ASSERT(opInfo(op).fmt == Format::Memory, opName(op));
    return Inst{op, ra, rb, {}, disp};
}

Inst
makeBranch(Opcode op, RegId ra, int64_t dispWords)
{
    DISE_ASSERT(opInfo(op).fmt == Format::Branch, opName(op));
    return Inst{op, ra, {}, {}, dispWords};
}

Inst
makeJump(Opcode op, RegId link, RegId target)
{
    DISE_ASSERT(opInfo(op).fmt == Format::Jump, opName(op));
    return Inst{op, link, target, {}, 0};
}

Inst
makeSystem(Opcode op, int64_t code)
{
    DISE_ASSERT(opInfo(op).fmt == Format::System, opName(op));
    return Inst{op, {}, {}, {}, code};
}

Inst
makeCtrap(RegId cond, int64_t code)
{
    return Inst{Opcode::CTRAP, cond, {}, {}, code};
}

Inst
makeDiseBranch(Opcode op, RegId cond, int64_t skip)
{
    DISE_ASSERT(op == Opcode::D_BEQ || op == Opcode::D_BNE, opName(op));
    return Inst{op, cond, {}, {}, skip};
}

Inst
makeDiseCall(RegId cond, RegId targetHolder)
{
    DISE_ASSERT(targetHolder.kind == RegKind::Dise,
                "d_call target must live in a DISE register");
    Opcode op = cond.valid() ? Opcode::D_CCALL : Opcode::D_CALL;
    return Inst{op, cond, targetHolder, {}, 0};
}

Inst
makeDiseMove(Opcode op, RegId archReg, RegId diseReg)
{
    DISE_ASSERT(op == Opcode::D_MFR || op == Opcode::D_MTR, opName(op));
    DISE_ASSERT(archReg.kind == RegKind::Int &&
                diseReg.kind == RegKind::Dise,
                "d_mfr/d_mtr operand kinds");
    return Inst{op, archReg, diseReg, {}, 0};
}

Inst
makeNullary(Opcode op)
{
    DISE_ASSERT(opInfo(op).fmt == Format::Nullary, opName(op));
    return Inst{op, {}, {}, {}, 0};
}

SrcRegs
srcRegs(const Inst &inst)
{
    SrcRegs s;
    switch (inst.info().fmt) {
      case Format::Operate:
        s.r[0] = inst.ra;
        s.r[1] = inst.rb;
        break;
      case Format::OperateImm:
        s.r[0] = inst.ra;
        break;
      case Format::Memory:
        if (inst.isStore()) {
            s.r[0] = inst.ra;
            s.r[1] = inst.rb;
        } else {
            s.r[0] = inst.rb;
        }
        break;
      case Format::Branch:
        if (inst.isCondBranch())
            s.r[0] = inst.ra;
        break;
      case Format::Jump:
        s.r[0] = inst.rb;
        break;
      case Format::Ctrap:
      case Format::DiseBranch:
        s.r[0] = inst.ra;
        break;
      case Format::DiseCall:
        s.r[0] = inst.rb; // target holder
        if (inst.op == Opcode::D_CCALL)
            s.r[1] = inst.ra;
        break;
      case Format::DiseMove:
        s.r[0] = inst.op == Opcode::D_MTR ? inst.ra : inst.rb;
        break;
      case Format::System:
      case Format::Nullary:
        break;
    }
    return s;
}

RegId
dstReg(const Inst &inst)
{
    switch (inst.info().fmt) {
      case Format::Operate:
      case Format::OperateImm:
        return inst.rc;
      case Format::Memory:
        return inst.isStore() ? RegId{} : inst.ra;
      case Format::Branch:
        return inst.op == Opcode::BSR ? inst.ra : RegId{};
      case Format::Jump:
        return inst.op == Opcode::JSR ? inst.ra : RegId{};
      case Format::DiseMove:
        return inst.op == Opcode::D_MFR ? inst.ra : inst.rb;
      default:
        return RegId{};
    }
}

} // namespace dise
