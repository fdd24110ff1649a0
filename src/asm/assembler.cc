#include "asm/assembler.hh"

#include <cstring>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "isa/encoding.hh"

namespace dise {

namespace {

/** Split an address into (hi, lo) such that (hi << 14) + sext(lo) == addr,
 *  with lo a signed 14-bit field. Used by the la/li expansions. */
void
splitAddr(uint64_t addr, int64_t &hi, int64_t &lo)
{
    lo = sext(addr & 0x3fff, 14);
    hi = static_cast<int64_t>(addr - lo) >> 14;
    DISE_ASSERT((hi << 14) + lo == static_cast<int64_t>(addr),
                "address split failed for 0x", std::hex, addr);
    DISE_ASSERT(fitsSigned(hi, 14),
                "address out of la/li range: 0x", std::hex, addr);
}

/** Size in bytes that a text item occupies. */
uint64_t
textItemSize(const AsmItem &item)
{
    switch (item.kind) {
      case AsmItem::Kind::Inst:
        return 4;
      case AsmItem::Kind::La:
        return 12; // lda + sll + lda
      case AsmItem::Kind::Label:
      case AsmItem::Kind::Stmt:
        return 0;
      default:
        panic("item kind not valid in text section");
    }
}

void
appendWord(std::vector<uint8_t> &bytes, uint32_t w)
{
    bytes.push_back(w & 0xff);
    bytes.push_back((w >> 8) & 0xff);
    bytes.push_back((w >> 16) & 0xff);
    bytes.push_back((w >> 24) & 0xff);
}

} // namespace

Assembler::Assembler()
{
    unit_.text.name = "text";
    unit_.data.name = "data";
}

AsmSection &
Assembler::cur()
{
    return inText_ ? unit_.text : unit_.data;
}

void
Assembler::pushItem(AsmItem item)
{
    cur().items.push_back(std::move(item));
}

void
Assembler::text(Addr base)
{
    unit_.text.base = base;
    inText_ = true;
}

void
Assembler::data(Addr base)
{
    unit_.data.base = base;
    inText_ = false;
}

void
Assembler::label(const std::string &name)
{
    AsmItem item;
    item.kind = AsmItem::Kind::Label;
    item.label = name;
    pushItem(std::move(item));
}

void
Assembler::stmt(int line)
{
    DISE_ASSERT(inText_, "stmt marker outside text section");
    AsmItem item;
    item.kind = AsmItem::Kind::Stmt;
    item.line = line;
    pushItem(std::move(item));
}

std::string
Assembler::genLabel(const std::string &prefix)
{
    return "." + prefix + std::to_string(nextLabel_++);
}

void
Assembler::quad(uint64_t v)
{
    AsmItem item;
    item.kind = AsmItem::Kind::Bytes;
    for (int i = 0; i < 8; ++i)
        item.bytes.push_back((v >> (8 * i)) & 0xff);
    pushItem(std::move(item));
}

void
Assembler::long_(uint32_t v)
{
    AsmItem item;
    item.kind = AsmItem::Kind::Bytes;
    for (int i = 0; i < 4; ++i)
        item.bytes.push_back((v >> (8 * i)) & 0xff);
    pushItem(std::move(item));
}

void
Assembler::word(uint16_t v)
{
    AsmItem item;
    item.kind = AsmItem::Kind::Bytes;
    item.bytes.push_back(v & 0xff);
    item.bytes.push_back(v >> 8);
    pushItem(std::move(item));
}

void
Assembler::byte(uint8_t v)
{
    AsmItem item;
    item.kind = AsmItem::Kind::Bytes;
    item.bytes.push_back(v);
    pushItem(std::move(item));
}

void
Assembler::space(uint64_t n)
{
    AsmItem item;
    item.kind = AsmItem::Kind::Space;
    item.size = n;
    pushItem(std::move(item));
}

void
Assembler::align(uint64_t boundary)
{
    DISE_ASSERT(isPow2(boundary), "alignment must be a power of two");
    AsmItem item;
    item.kind = AsmItem::Kind::Align;
    item.size = boundary;
    pushItem(std::move(item));
}

void
Assembler::blob(std::vector<uint8_t> bytes)
{
    AsmItem item;
    item.kind = AsmItem::Kind::Bytes;
    item.bytes = std::move(bytes);
    pushItem(std::move(item));
}

void
Assembler::quadLabel(const std::string &lbl)
{
    DISE_ASSERT(!inText_, "quadLabel belongs in the data section");
    AsmItem item;
    item.kind = AsmItem::Kind::QuadLabel;
    item.label = lbl;
    pushItem(std::move(item));
}

void
Assembler::emit(const Inst &inst)
{
    DISE_ASSERT(inText_, "instruction outside text section");
    AsmItem item;
    item.kind = AsmItem::Kind::Inst;
    item.inst = inst;
    pushItem(std::move(item));
}

void
Assembler::emitBranch(const Inst &inst, const std::string &target)
{
    DISE_ASSERT(inText_, "instruction outside text section");
    AsmItem item;
    item.kind = AsmItem::Kind::Inst;
    item.inst = inst;
    item.label = target;
    pushItem(std::move(item));
}

// ALU mnemonics.
#define DISE_ALU(mnem, OPC)                                                  \
    void Assembler::mnem(RegId a, RegId b, RegId c)                          \
    {                                                                        \
        emit(makeOp(Opcode::OPC, a, b, c));                                  \
    }                                                                        \
    void Assembler::mnem(RegId a, uint8_t imm, RegId c)                      \
    {                                                                        \
        emit(makeOpImm(Opcode::OPC##_I, a, imm, c));                         \
    }

DISE_ALU(addq, ADDQ)
DISE_ALU(subq, SUBQ)
DISE_ALU(mulq, MULQ)
DISE_ALU(and_, AND)
DISE_ALU(bis, BIS)
DISE_ALU(xor_, XOR)
DISE_ALU(bic, BIC)
DISE_ALU(sll, SLL)
DISE_ALU(srl, SRL)
DISE_ALU(sra, SRA)
DISE_ALU(cmpeq, CMPEQ)
DISE_ALU(cmplt, CMPLT)
DISE_ALU(cmple, CMPLE)
DISE_ALU(cmpult, CMPULT)
DISE_ALU(cmpule, CMPULE)
#undef DISE_ALU

void
Assembler::mov(RegId src, RegId dst)
{
    emit(makeOp(Opcode::BIS, src, src, dst));
}

// Memory mnemonics.
#define DISE_MEM(mnem, OPC)                                                  \
    void Assembler::mnem(RegId ra, int64_t disp, RegId rb)                   \
    {                                                                        \
        emit(makeMem(Opcode::OPC, ra, disp, rb));                            \
    }

DISE_MEM(ldq, LDQ)
DISE_MEM(ldl, LDL)
DISE_MEM(ldw, LDW)
DISE_MEM(ldb, LDB)
DISE_MEM(stq, STQ)
DISE_MEM(stl, STL)
DISE_MEM(stw, STW)
DISE_MEM(stb, STB)
DISE_MEM(lda, LDA)
DISE_MEM(ldah, LDAH)
#undef DISE_MEM

// Branch mnemonics.
#define DISE_BR(mnem, OPC)                                                   \
    void Assembler::mnem(RegId ra, const std::string &target)                \
    {                                                                        \
        emitBranch(makeBranch(Opcode::OPC, ra, 0), target);                  \
    }

DISE_BR(beq, BEQ)
DISE_BR(bne, BNE)
DISE_BR(blt, BLT)
DISE_BR(ble, BLE)
DISE_BR(bgt, BGT)
DISE_BR(bge, BGE)
#undef DISE_BR

void
Assembler::br(const std::string &target)
{
    emitBranch(makeBranch(Opcode::BR, reg::zero, 0), target);
}

void
Assembler::bsr(RegId link, const std::string &target)
{
    emitBranch(makeBranch(Opcode::BSR, link, 0), target);
}

void
Assembler::jmp(RegId rb)
{
    emit(makeJump(Opcode::JMP, reg::zero, rb));
}

void
Assembler::jsr(RegId link, RegId rb)
{
    emit(makeJump(Opcode::JSR, link, rb));
}

void
Assembler::ret(RegId rb)
{
    emit(makeJump(Opcode::RET, reg::zero, rb));
}

void
Assembler::syscall(int64_t code)
{
    emit(makeSystem(Opcode::SYSCALL, code));
}

void
Assembler::trap(int64_t code)
{
    emit(makeSystem(Opcode::TRAP, code));
}

void
Assembler::ctrap(RegId cond, int64_t code)
{
    emit(makeCtrap(cond, code));
}

void
Assembler::halt()
{
    emit(makeNullary(Opcode::HALT));
}

void
Assembler::nop()
{
    emit(makeNullary(Opcode::NOP));
}

void
Assembler::codeword(int64_t id)
{
    emit(makeSystem(Opcode::CODEWORD, id));
}

void
Assembler::d_ret()
{
    emit(makeNullary(Opcode::D_RET));
}

void
Assembler::d_mfr(RegId rd, RegId diseSrc)
{
    emit(makeDiseMove(Opcode::D_MFR, rd, diseSrc));
}

void
Assembler::d_mtr(RegId diseDst, RegId rs)
{
    emit(makeDiseMove(Opcode::D_MTR, rs, diseDst));
}

void
Assembler::li(RegId rd, uint64_t value)
{
    int64_t sv = static_cast<int64_t>(value);
    if (fitsSigned(sv, 14)) {
        lda(rd, sv, reg::zero);
        return;
    }
    if (fitsSigned(sv, 27)) {
        int64_t hi, lo;
        splitAddr(value, hi, lo);
        lda(rd, hi, reg::zero);
        sll(rd, 14, rd);
        lda(rd, lo, rd);
        return;
    }
    // General 64-bit constant: build bytewise from the MSB.
    bool started = false;
    for (int i = 7; i >= 0; --i) {
        uint8_t b = (value >> (8 * i)) & 0xff;
        if (!started) {
            if (b == 0 && i > 0)
                continue;
            lda(rd, b, reg::zero);
            started = true;
        } else {
            sll(rd, 8, rd);
            if (b)
                bis(rd, b, rd);
        }
    }
}

void
Assembler::la(RegId rd, const std::string &lbl)
{
    DISE_ASSERT(inText_, "la outside text section");
    AsmItem item;
    item.kind = AsmItem::Kind::La;
    item.reg = rd;
    item.label = lbl;
    pushItem(std::move(item));
}

Program
Assembler::finish(const std::string &entryLabel)
{
    unit_.entryLabel = entryLabel;
    return assemble(std::move(unit_));
}

Program
Assembler::assemble(AsmUnit src)
{
    Program prog;
    prog.source = std::make_shared<const AsmUnit>(std::move(src));
    const AsmUnit &unit = *prog.source;

    // Pass 1: lay out addresses and collect symbols.
    Addr pc = unit.text.base;
    for (const auto &item : unit.text.items) {
        if (item.kind == AsmItem::Kind::Label) {
            auto [it, fresh] = prog.symbols.emplace(item.label, pc);
            if (!fresh)
                fatal("duplicate label '", item.label, "'");
        } else if (item.kind == AsmItem::Kind::Stmt) {
            prog.stmtBoundaries.push_back(pc);
            prog.lineTable[pc] = item.line;
        }
        pc += textItemSize(item);
    }

    Addr dp = unit.data.base;
    for (const auto &item : unit.data.items) {
        switch (item.kind) {
          case AsmItem::Kind::Label: {
            auto [it, fresh] = prog.symbols.emplace(item.label, dp);
            if (!fresh)
                fatal("duplicate label '", item.label, "'");
            break;
          }
          case AsmItem::Kind::Bytes:
            dp += item.bytes.size();
            break;
          case AsmItem::Kind::Space:
            dp += item.size;
            break;
          case AsmItem::Kind::Align:
            dp = alignUp(dp, item.size);
            break;
          case AsmItem::Kind::QuadLabel:
            dp += 8;
            break;
          default:
            fatal("instruction in data section");
        }
    }

    // Pass 2: emit text bytes with label fixups. Pass 1 sized both
    // segments, so neither vector grows by copying.
    std::vector<uint8_t> text;
    text.reserve(pc - unit.text.base);
    std::vector<uint8_t> data;
    data.reserve(dp - unit.data.base);
    pc = unit.text.base;
    for (const auto &item : unit.text.items) {
        switch (item.kind) {
          case AsmItem::Kind::Inst: {
            Inst inst = item.inst;
            if (!item.label.empty()) {
                Addr target = prog.symbol(item.label);
                int64_t disp =
                    (static_cast<int64_t>(target) -
                     static_cast<int64_t>(pc) - 4) / 4;
                if (!fitsSigned(disp, BranchDispBits))
                    fatal("branch to '", item.label, "' out of range");
                inst.imm = disp;
            }
            appendWord(text, encode(inst));
            pc += 4;
            break;
          }
          case AsmItem::Kind::La: {
            Addr target = prog.symbol(item.label);
            int64_t hi, lo;
            splitAddr(target, hi, lo);
            appendWord(text,
                       encode(makeMem(Opcode::LDA, item.reg, hi,
                                      reg::zero)));
            appendWord(text,
                       encode(makeOpImm(Opcode::SLL_I, item.reg, 14,
                                        item.reg)));
            appendWord(text,
                       encode(makeMem(Opcode::LDA, item.reg, lo,
                                      item.reg)));
            pc += 12;
            break;
          }
          case AsmItem::Kind::Label:
          case AsmItem::Kind::Stmt:
            break;
          default:
            fatal("data directive in text section");
        }
    }

    // Pass 2: emit data bytes.
    dp = unit.data.base;
    for (const auto &item : unit.data.items) {
        switch (item.kind) {
          case AsmItem::Kind::Bytes:
            data.insert(data.end(), item.bytes.begin(), item.bytes.end());
            dp += item.bytes.size();
            break;
          case AsmItem::Kind::Space:
            data.insert(data.end(), item.size, 0);
            dp += item.size;
            break;
          case AsmItem::Kind::Align: {
            Addr aligned = alignUp(dp, item.size);
            data.insert(data.end(), aligned - dp, 0);
            dp = aligned;
            break;
          }
          case AsmItem::Kind::QuadLabel: {
            uint64_t v = prog.symbol(item.label);
            for (int i = 0; i < 8; ++i)
                data.push_back((v >> (8 * i)) & 0xff);
            dp += 8;
            break;
          }
          case AsmItem::Kind::Label:
            break;
          default:
            fatal("instruction in data section");
        }
    }

    if (!text.empty())
        prog.segments.push_back(
            {"text", unit.text.base, std::move(text), true});
    if (!data.empty())
        prog.segments.push_back(
            {"data", unit.data.base, std::move(data), false});

    if (!unit.entryLabel.empty())
        prog.entry = prog.symbol(unit.entryLabel);
    return prog;
}

} // namespace dise
