#include "debug/rewrite_backend.hh"

#include "asm/assembler.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "cpu/loader.hh"

namespace dise {

namespace {

using reg::sp;
using reg::t0;
using reg::t1;
using reg::t2;
using reg::t3;
using reg::t4;
using reg::t5;
using reg::zero;

AsmItem
itemInst(const Inst &inst)
{
    AsmItem it;
    it.kind = AsmItem::Kind::Inst;
    it.inst = inst;
    return it;
}

AsmItem
itemBranch(const Inst &inst, const std::string &label)
{
    AsmItem it = itemInst(inst);
    it.label = label;
    return it;
}

AsmItem
itemLabel(const std::string &name)
{
    AsmItem it;
    it.kind = AsmItem::Kind::Label;
    it.label = name;
    return it;
}

/** Materialize a constant (same expansion the assembler's li uses). */
void
emitLi(std::vector<AsmItem> &items, RegId rd, uint64_t value)
{
    int64_t sv = static_cast<int64_t>(value);
    if (fitsSigned(sv, 14)) {
        items.push_back(itemInst(makeMem(Opcode::LDA, rd, sv, zero)));
        return;
    }
    DISE_ASSERT(fitsSigned(sv, 27), "rewrite li out of range");
    int64_t lo = sext(value & 0x3fff, 14);
    int64_t hi = static_cast<int64_t>(value - lo) >> 14;
    items.push_back(itemInst(makeMem(Opcode::LDA, rd, hi, zero)));
    items.push_back(itemInst(makeOpImm(Opcode::SLL_I, rd, 14, rd)));
    items.push_back(itemInst(makeMem(Opcode::LDA, rd, lo, rd)));
}

Opcode
loadOpForSize(unsigned size)
{
    switch (size) {
      case 8: return Opcode::LDQ;
      case 4: return Opcode::LDL;
      case 2: return Opcode::LDW;
      case 1: return Opcode::LDB;
    }
    panic("bad watch size");
}

uint64_t
readLikeTarget(const MainMemory &mem, Addr addr, unsigned size)
{
    if (size == 4)
        return static_cast<uint64_t>(mem.readSigned(addr, 4));
    return mem.read(addr, size);
}

constexpr int64_t TrapWatch = 1;
constexpr int64_t TrapBreakBase = 0x100;

} // namespace

void
RewriteBackend::emitStoreStub(std::vector<AsmItem> &items,
                              const Inst &store, uint64_t stubId)
{
    std::string skip = "rw_skip_" + std::to_string(stubId);

    // Original store first (Fig. 2c ordering), then the check.
    items.push_back(itemInst(store));

    // Register scavenging: spill temporaries into the stack red zone.
    items.push_back(itemInst(makeMem(Opcode::STQ, t0, -8, sp)));
    items.push_back(itemInst(makeMem(Opcode::STQ, t1, -16, sp)));
    items.push_back(itemInst(makeMem(Opcode::STQ, t2, -24, sp)));

    // Reconstruct and align the store address.
    items.push_back(
        itemInst(makeMem(Opcode::LDA, t0, store.imm, store.rb)));
    items.push_back(itemInst(makeOpImm(Opcode::BIC_I, t0, 7, t0)));

    // Serial comparison against every watched location.
    bool first = true;
    for (const auto &ws : watches_) {
        const WatchSpec &w = ws.spec();
        if (w.kind == WatchKind::Range) {
            Addr lo = alignDown(w.addr, 8);
            Addr hi = alignDown(w.addr + w.length - 1, 8);
            emitLi(items, t1, lo);
            items.push_back(itemInst(makeOp(Opcode::CMPULE, t1, t0, t2)));
            emitLi(items, t1, hi);
            items.push_back(itemInst(makeOp(Opcode::CMPULE, t0, t1, t1)));
            items.push_back(itemInst(makeOp(Opcode::AND, t2, t1, t2)));
        } else {
            emitLi(items, t1, alignDown(w.addr, 8));
            if (first) {
                items.push_back(
                    itemInst(makeOp(Opcode::CMPEQ, t0, t1, t2)));
            } else {
                items.push_back(
                    itemInst(makeOp(Opcode::CMPEQ, t0, t1, t1)));
                items.push_back(
                    itemInst(makeOp(Opcode::BIS, t2, t1, t2)));
            }
        }
        first = false;
    }

    items.push_back(itemBranch(makeBranch(Opcode::BEQ, t2, 0), skip));
    items.push_back(itemInst(makeMem(Opcode::STQ, reg::ra, -32, sp)));
    items.push_back(
        itemBranch(makeBranch(Opcode::BSR, reg::ra, 0), "rw_handler"));
    items.push_back(itemInst(makeMem(Opcode::LDQ, reg::ra, -32, sp)));
    items.push_back(itemLabel(skip));
    items.push_back(itemInst(makeMem(Opcode::LDQ, t0, -8, sp)));
    items.push_back(itemInst(makeMem(Opcode::LDQ, t1, -16, sp)));
    items.push_back(itemInst(makeMem(Opcode::LDQ, t2, -24, sp)));
}

void
RewriteBackend::emitHandler(std::vector<AsmItem> &items)
{
    // Out-of-line evaluation routine. On entry t0 holds the aligned
    // store address (caller keeps it live across the call).
    items.push_back(itemLabel("rw_handler"));
    items.push_back(itemInst(makeMem(Opcode::STQ, t3, -40, sp)));
    items.push_back(itemInst(makeMem(Opcode::STQ, t4, -48, sp)));
    items.push_back(itemInst(makeMem(Opcode::STQ, t5, -56, sp)));

    // A conditional check keeps the value it compared against in t3
    // until its trap (rw_trap_i): onTrap reports it as the old value.
    uint64_t shadowCursor = shadowBase_;
    for (size_t i = 0; i < watches_.size(); ++i) {
        const WatchSpec &w = watches_[i].spec();
        std::string next = "rw_next_" + std::to_string(i);
        Addr prevSlot = rwsegBase_ + 8 * i;

        if (w.kind == WatchKind::Range) {
            Addr lo = alignDown(w.addr, 8);
            Addr hi = alignDown(w.addr + w.length - 1, 8);
            std::string fix = "rw_fix_" + std::to_string(i);
            emitLi(items, t4, lo);
            items.push_back(itemInst(makeOp(Opcode::CMPULT, t0, t4, t5)));
            items.push_back(
                itemBranch(makeBranch(Opcode::BNE, t5, 0), next));
            emitLi(items, t4, hi);
            items.push_back(itemInst(makeOp(Opcode::CMPULT, t4, t0, t5)));
            items.push_back(
                itemBranch(makeBranch(Opcode::BNE, t5, 0), next));
            // shadow slot = shadowBase + (addr - lo)
            emitLi(items, t4, lo);
            items.push_back(itemInst(makeOp(Opcode::SUBQ, t0, t4, t5)));
            emitLi(items, t4, shadowCursor);
            items.push_back(itemInst(makeOp(Opcode::ADDQ, t4, t5, t4)));
            // Shadow quad (old) and current quad (new).
            const RegId oldV = w.conditional ? t3 : t5;
            const RegId newV = w.conditional ? t5 : t3;
            const RegId cmp = w.conditional ? t1 : t5;
            items.push_back(itemInst(makeMem(Opcode::LDQ, oldV, 0, t4)));
            items.push_back(itemInst(makeMem(Opcode::LDQ, newV, 0, t0)));
            items.push_back(
                itemInst(makeOp(Opcode::CMPEQ, newV, oldV, cmp)));
            items.push_back(
                itemBranch(makeBranch(Opcode::BNE, cmp, 0), next));
            items.push_back(itemInst(makeMem(Opcode::STQ, newV, 0, t4)));
            if (w.conditional) {
                emitLi(items, t4, w.predConst);
                items.push_back(
                    itemInst(makeOp(Opcode::CMPEQ, newV, t4, t4)));
                items.push_back(
                    itemBranch(makeBranch(Opcode::BEQ, t4, 0), next));
            }
            items.push_back(itemLabel("rw_trap_" + std::to_string(i)));
            items.push_back(itemInst(makeSystem(Opcode::TRAP, TrapWatch)));
            items.push_back(itemLabel(fix)); // label kept for symmetry
            shadowCursor += alignUp(w.length, 8) + 16;
        } else {
            emitLi(items, t4, alignDown(w.addr, 8));
            items.push_back(itemInst(makeOp(Opcode::CMPEQ, t0, t4, t4)));
            items.push_back(
                itemBranch(makeBranch(Opcode::BEQ, t4, 0), next));
            emitLi(items, t4, w.addr);
            items.push_back(
                itemInst(makeMem(loadOpForSize(w.size), t5, 0, t4)));
            emitLi(items, t4, prevSlot);
            const RegId oldV = w.conditional ? t3 : t4;
            items.push_back(itemInst(makeMem(Opcode::LDQ, oldV, 0, t4)));
            items.push_back(itemInst(makeOp(Opcode::CMPEQ, t5, oldV, t4)));
            items.push_back(
                itemBranch(makeBranch(Opcode::BNE, t4, 0), next));
            emitLi(items, t4, prevSlot);
            items.push_back(itemInst(makeMem(Opcode::STQ, t5, 0, t4)));
            if (w.conditional) {
                emitLi(items, t4, w.predConst);
                items.push_back(
                    itemInst(makeOp(Opcode::CMPEQ, t5, t4, t4)));
                items.push_back(
                    itemBranch(makeBranch(Opcode::BEQ, t4, 0), next));
            }
            items.push_back(itemLabel("rw_trap_" + std::to_string(i)));
            items.push_back(itemInst(makeSystem(Opcode::TRAP, TrapWatch)));
        }
        items.push_back(itemLabel(next));
    }

    items.push_back(itemInst(makeMem(Opcode::LDQ, t3, -40, sp)));
    items.push_back(itemInst(makeMem(Opcode::LDQ, t4, -48, sp)));
    items.push_back(itemInst(makeMem(Opcode::LDQ, t5, -56, sp)));
    items.push_back(itemInst(makeJump(Opcode::RET, zero, reg::ra)));
}

bool
RewriteBackend::install(DebugTarget &target,
                        const std::vector<WatchSpec> &watches,
                        const std::vector<BreakSpec> &breaks)
{
    target_ = &target;
    breaks_ = breaks;
    if (!target.program.source)
        return false; // nothing to re-compile from

    bool haveRange = false;
    for (const auto &w : watches) {
        if (w.kind == WatchKind::Indirect)
            return false; // needs runtime re-compilation; unsupported
        if (w.kind == WatchKind::Range)
            haveRange = true;
        watches_.emplace_back(w);
    }
    if (haveRange && watches.size() != 1)
        return false;

    // rwseg layout: one prev-value quad per watchpoint, then shadows.
    rwsegBase_ = layout::DebuggerDataBase;
    uint64_t off = alignUp(8 * std::max<size_t>(watches.size(), 1), 8);
    shadowBase_ = rwsegBase_ + off;
    uint64_t shadowLen = 0;
    for (const auto &w : watches)
        if (w.kind == WatchKind::Range)
            shadowLen += alignUp(w.length, 8) + 16;
    uint64_t rwsegSize = alignUp(off + shadowLen + 64, 64);

    const AsmUnit &oldUnit = *target.program.source;
    AsmUnit unit;
    unit.entryLabel = oldUnit.entryLabel;
    unit.data = oldUnit.data;
    unit.text.name = oldUnit.text.name;
    unit.text.base = oldUnit.text.base;

    uint64_t oldWords = 0;
    for (const auto &item : oldUnit.text.items) {
        if (item.kind == AsmItem::Kind::Inst)
            oldWords += 1;
        else if (item.kind == AsmItem::Kind::La)
            oldWords += 3;
    }

    // Map breakpoint PCs to item indices.
    std::vector<std::pair<size_t, size_t>> bpAt; // (itemIdx, bpIdx)
    {
        Addr pc = oldUnit.text.base;
        for (size_t idx = 0; idx < oldUnit.text.items.size(); ++idx) {
            const auto &item = oldUnit.text.items[idx];
            for (size_t b = 0; b < breaks.size(); ++b)
                if (breaks[b].pc == pc && item.kind == AsmItem::Kind::Inst)
                    bpAt.emplace_back(idx, b);
            if (item.kind == AsmItem::Kind::Inst)
                pc += 4;
            else if (item.kind == AsmItem::Kind::La)
                pc += 12;
        }
    }

    uint64_t stubId = 0;
    for (size_t idx = 0; idx < oldUnit.text.items.size(); ++idx) {
        const auto &item = oldUnit.text.items[idx];
        auto &items = unit.text.items;

        for (const auto &[bpIdx, b] : bpAt) {
            if (bpIdx != idx)
                continue;
            const BreakSpec &bp = breaks[b];
            int64_t code = TrapBreakBase + static_cast<int64_t>(b);
            if (!bp.conditional) {
                items.push_back(itemInst(makeSystem(Opcode::TRAP, code)));
            } else {
                std::string skip = "rw_bskip_" + std::to_string(b);
                items.push_back(itemInst(makeMem(Opcode::STQ, t4, -8, sp)));
                items.push_back(
                    itemInst(makeMem(Opcode::STQ, t5, -16, sp)));
                emitLi(items, t4, bp.condAddr);
                items.push_back(itemInst(
                    makeMem(loadOpForSize(bp.condSize), t4, 0, t4)));
                emitLi(items, t5, bp.condConst);
                items.push_back(
                    itemInst(makeOp(Opcode::CMPEQ, t4, t5, t4)));
                items.push_back(
                    itemBranch(makeBranch(Opcode::BEQ, t4, 0), skip));
                items.push_back(itemInst(makeSystem(Opcode::TRAP, code)));
                items.push_back(itemLabel(skip));
                items.push_back(itemInst(makeMem(Opcode::LDQ, t4, -8, sp)));
                items.push_back(
                    itemInst(makeMem(Opcode::LDQ, t5, -16, sp)));
            }
        }

        if (item.kind == AsmItem::Kind::Inst && item.inst.isStore() &&
            !watches_.empty()) {
            emitStoreStub(items, item.inst, stubId++);
        } else {
            items.push_back(item);
        }
    }

    if (!watches_.empty())
        emitHandler(unit.text.items);

    Program rewritten = Assembler::assemble(std::move(unit));
    for (size_t i = 0; i < watches_.size(); ++i)
        checkTraps_[rewritten.symbol("rw_trap_" + std::to_string(i))] = i;

    // Append the rewriter's data region.
    rewritten.segments.push_back(
        {"rwseg", rwsegBase_, std::vector<uint8_t>(rwsegSize, 0), false});

    uint64_t newWords = rewritten.textWords();
    bloatFactor_ = oldWords
                       ? static_cast<double>(newWords) / oldWords
                       : 1.0;
    target.program = std::move(rewritten);
    return true;
}

void
RewriteBackend::prime(DebugTarget &target)
{
    for (auto &ws : watches_)
        ws.prime(target.mem);
    for (size_t i = 0; i < watches_.size(); ++i)
        refreshWatch(target, i);
}

void
RewriteBackend::refreshWatch(DebugTarget &target, size_t i)
{
    const WatchSpec &w = watches_[i].spec();
    if (w.kind != WatchKind::Range) {
        target.mem.write(rwsegBase_ + 8 * i, 8,
                         readLikeTarget(target.mem, w.addr, w.size));
        return;
    }
    // A range watch is installed only as the sole watch, so its shadow
    // starts at shadowBase_.
    Addr lo = alignDown(w.addr, 8);
    Addr hi = alignDown(w.addr + w.length - 1, 8);
    for (Addr q = lo; q <= hi; q += 8)
        target.mem.write(shadowBase_ + (q - lo), 8, target.mem.read(q, 8));
}

uint64_t
RewriteBackend::checkedValue(size_t i, Addr quad) const
{
    // A range watch is installed only alone, so no watch's check runs
    // before it: only scalars are asked.
    return target_->mem.read(rwsegBase_ + 8 * i, 8);
}

DebugAction
RewriteBackend::onTrap(const MicroOp &op)
{
    ++seq_;
    int64_t code = op.inst.imm;
    if (code >= TrapBreakBase) {
        recordBreak(static_cast<int>(code - TrapBreakBase), op.pc,
                    seq_);
        return {TransitionKind::User};
    }
    const ArchState &arch = target_->arch;
    recordCheckedWatches(*target_, op.pc, arch.read(t0), arch.read(t3),
                         op.pc);
    return {TransitionKind::User};
}

} // namespace dise
