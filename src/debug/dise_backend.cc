#include "debug/dise_backend.hh"

#include <map>

#include "asm/assembler.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "cpu/loader.hh"
#include "isa/encoding.hh"

namespace dise {

namespace {

/** DISE register allocation used by generated productions. */
constexpr RegId ScratchA = dr(0); ///< temp / handler t0 stash / ccall cond
constexpr RegId StoreAddr = dr(1); ///< store address (to handler)
constexpr RegId MatchRes = dr(2);  ///< accumulated match result
constexpr RegId Dar0 = dr(3);      ///< watched address 0 / real addr
constexpr RegId Dar1 = dr(4);      ///< watched address 1 / dpv / mask
constexpr RegId Dhdlr = dr(5);     ///< handler entry PC
constexpr RegId Aux0 = dr(6);      ///< bloom base / range lo
constexpr RegId Aux1 = dr(7);      ///< dseg tag (protection) / range hi

TRegField
R(RegId r)
{
    return TRegField::reg(r);
}

/** Append template instructions materializing a constant (mirrors
 *  Assembler::li for the address ranges our memory map uses). */
void
emitLi(std::vector<TemplateInst> &seq, RegId rd, uint64_t value)
{
    int64_t sv = static_cast<int64_t>(value);
    if (fitsSigned(sv, 14)) {
        seq.push_back(TemplateInst::mem(Opcode::LDA, R(rd),
                                        TImmField::imm(sv), R(reg::zero)));
        return;
    }
    DISE_ASSERT(fitsSigned(sv, 27), "emitLi: constant out of range");
    int64_t lo = sext(value & 0x3fff, 14);
    int64_t hi = static_cast<int64_t>(value - lo) >> 14;
    seq.push_back(TemplateInst::mem(Opcode::LDA, R(rd), TImmField::imm(hi),
                                    R(reg::zero)));
    seq.push_back(TemplateInst::opImm(Opcode::SLL_I, R(rd), 14, R(rd)));
    seq.push_back(TemplateInst::mem(Opcode::LDA, R(rd), TImmField::imm(lo),
                                    R(rd)));
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
    panic("bad watch size ", size);
}

/** Host-side value read matching the target's load semantics. */
uint64_t
readLikeTarget(const MainMemory &mem, Addr addr, unsigned size)
{
    if (size == 4)
        return static_cast<uint64_t>(mem.readSigned(addr, 4));
    return mem.read(addr, size);
}

} // namespace

void
DiseBackend::resolveStrategy(const std::vector<WatchSpec> &watches)
{
    if (opts_.strategy != MultiMatch::Auto) {
        strategy_ = opts_.strategy;
        return;
    }
    bool anyRange = false;
    bool anyIndirect = false;
    size_t addrCount = 0;
    for (const auto &w : watches) {
        if (w.kind == WatchKind::Range)
            anyRange = true;
        if (w.kind == WatchKind::Indirect)
            anyIndirect = true;
        addrCount += w.kind == WatchKind::Indirect ? 2 : 1;
    }
    if (anyRange && watches.size() == 1)
        strategy_ = MultiMatch::RangeCheck;
    else if (!anyRange && addrCount <= (anyIndirect ? 2u : 3u))
        strategy_ = MultiMatch::Serial;
    else
        strategy_ = MultiMatch::BloomByte;
}

bool
DiseBackend::install(DebugTarget &target,
                     const std::vector<WatchSpec> &watches,
                     const std::vector<BreakSpec> &breaks)
{
    target_ = &target;
    breaks_ = breaks;
    for (const auto &w : watches)
        watches_.emplace_back(w);

    resolveStrategy(watches);

    // Variant applicability (Figure 7 discussion).
    if (opts_.variant != DiseVariant::MatchAddrEvalExpr) {
        if (watches.size() != 1 || watches[0].kind != WatchKind::Scalar)
            return false; // inline variants handle one scalar
    }
    if (strategy_ == MultiMatch::RangeCheck) {
        for (const auto &w : watches)
            if (w.kind != WatchKind::Range)
                return false;
        if (watches.size() != 1)
            return false;
    }
    if (strategy_ == MultiMatch::Serial) {
        // Indirect targets are retargeted at runtime via d_mtr and so
        // must occupy one of the two DISE dar registers.
        size_t slot = 0;
        for (const auto &w : watches) {
            if (w.kind == WatchKind::Indirect && slot + 1 >= 2)
                return false;
            slot += w.kind == WatchKind::Indirect ? 2 : 1;
        }
    }

    // ---- dseg layout -------------------------------------------------
    // Each watch takes one 32-byte entry (an indirect watch two: its
    // pointer cell, then its target); each range watch also takes a
    // shadow copy with a quad of slack at both ends.
    dsegBase_ = layout::DebuggerDataBase;
    slots_.assign(watches.size(), {});
    uint64_t entryCount = 0;
    uint64_t shadowLen = 0;
    for (size_t i = 0; i < watches.size(); ++i) {
        const WatchSpec &w = watches[i];
        slots_[i].entry = entryCount;
        slots_[i].shadow = shadowLen; // an offset until the shadows are placed
        entryCount += w.kind == WatchKind::Indirect ? 2 : 1;
        if (w.kind == WatchKind::Range)
            shadowLen += alignUp(w.length, 8) + 16;
    }
    uint64_t off = EntriesOff + entryCount * EntryBytes;
    off = alignUp(off, 64);
    bloomBase_ = 0;
    if (strategy_ == MultiMatch::BloomByte ||
        strategy_ == MultiMatch::BloomBit) {
        off = alignUp(off, BloomBytes);
        bloomBase_ = dsegBase_ + off;
        off += BloomBytes;
    }
    if (shadowLen) {
        off = alignUp(off, 8);
        for (auto &slot : slots_)
            slot.shadow += dsegBase_ + off;
        off += shadowLen;
    }
    dsegSize_ = alignUp(std::max<uint64_t>(off, 2048), 2048);
    uint64_t protRegion = 2048;
    while (protRegion < dsegSize_)
        protRegion <<= 1;
    protShift_ = log2i(protRegion);

    // Append the (zero-initialized) dseg to the program image.
    target.program.segments.push_back(
        {"dseg", dsegBase_, std::vector<uint8_t>(dsegSize_, 0), false});

    // ---- generated handler -------------------------------------------
    if (opts_.variant == DiseVariant::MatchAddrEvalExpr && !watches.empty())
        buildHandler(target);

    // ---- productions ---------------------------------------------------
    if (!watches.empty()) {
        Production p;
        p.name = "watch-stores";
        p.pattern = Pattern::forClass(OpClass::Store);
        p.replacement = buildStoreReplacement();
        replacementLen_ = p.replacement.size();
        target.engine.addProduction(std::move(p));

        if (opts_.excludeStackStores) {
            Production sp;
            sp.name = "skip-stack-stores";
            sp.pattern = Pattern::forClass(OpClass::Store);
            sp.pattern.baseReg = reg::sp;
            sp.replacement = {TemplateInst::trigInst()};
            target.engine.addProduction(std::move(sp));
        }
    }

    installBreakpoints(target);
    return true;
}

std::vector<TemplateInst>
DiseBackend::buildStoreReplacement()
{
    std::vector<TemplateInst> seq;
    const bool cc = opts_.condCallTrap;

    // Optional Figure 2f protection prologue: reconstruct the store
    // address first and trap if it falls inside the debugger's dseg.
    auto emitAddr = [&] {
        seq.push_back(TemplateInst::mem(Opcode::LDA, R(StoreAddr),
                                        TImmField::trigImm(),
                                        TRegField::trigRb()));
    };
    bool addrDone = false;
    if (opts_.protectDebuggerData) {
        emitAddr();
        addrDone = true;
        seq.push_back(TemplateInst::opImm(Opcode::SRL_I, R(StoreAddr),
                                          static_cast<int64_t>(protShift_),
                                          R(MatchRes)));
        seq.push_back(TemplateInst::op3(Opcode::SUBQ, R(MatchRes), R(Aux1),
                                        R(MatchRes)));
        seq.push_back(TemplateInst::opImm(Opcode::CMPEQ_I, R(MatchRes), 0,
                                          R(ScratchA)));
        if (cc) {
            TemplateInst t;
            t.op = Opcode::CTRAP;
            t.ra = R(ScratchA);
            t.imm = TImmField::imm(TrapProtection);
            seq.push_back(t);
        } else {
            TemplateInst b;
            b.op = Opcode::D_BNE;
            b.ra = R(MatchRes);
            b.imm = TImmField::imm(1);
            seq.push_back(b); // skip trap when outside dseg
            TemplateInst t;
            t.op = Opcode::TRAP;
            t.imm = TImmField::imm(TrapProtection);
            seq.push_back(t);
        }
    }

    // The original store (T.INST).
    seq.push_back(TemplateInst::trigInst());
    if (!addrDone)
        emitAddr();

    auto quadAlign = [&] {
        seq.push_back(TemplateInst::opImm(Opcode::BIC_I, R(StoreAddr), 7,
                                          R(StoreAddr)));
    };

    // Tail: transfer control to the handler / trap on condition in reg.
    auto emitCallTail = [&](RegId cond) {
        if (cc) {
            TemplateInst t;
            t.op = Opcode::D_CCALL;
            t.ra = R(cond);
            t.rb = R(Dhdlr);
            seq.push_back(t);
        } else {
            TemplateInst b;
            b.op = Opcode::D_BEQ;
            b.ra = R(cond);
            b.imm = TImmField::imm(1); // skip call when no match
            seq.push_back(b);
            TemplateInst c;
            c.op = Opcode::D_CALL;
            c.rb = R(Dhdlr);
            seq.push_back(c);
        }
    };
    auto emitTrapTail = [&](RegId cond) {
        if (cc) {
            TemplateInst t;
            t.op = Opcode::CTRAP;
            t.ra = R(cond);
            t.imm = TImmField::imm(TrapWatchpoint);
            seq.push_back(t);
        } else {
            TemplateInst b;
            b.op = Opcode::D_BEQ;
            b.ra = R(cond);
            b.imm = TImmField::imm(1);
            seq.push_back(b);
            TemplateInst t;
            t.op = Opcode::TRAP;
            t.imm = TImmField::imm(TrapWatchpoint);
            seq.push_back(t);
        }
    };

    switch (opts_.variant) {
      case DiseVariant::EvalExpr: {
        // Figure 2a/2b: load the watched value and compare to dpv.
        const WatchSpec &w = watches_[0].spec();
        seq.push_back(TemplateInst::mem(loadOpForSize(w.size), R(StoreAddr),
                                        TImmField::imm(0), R(Dar0)));
        seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(StoreAddr),
                                        R(Dar1), R(MatchRes)));
        seq.push_back(TemplateInst::opImm(Opcode::CMPEQ_I, R(MatchRes), 0,
                                          R(MatchRes))); // changed?
        if (w.conditional) {
            emitLi(seq, ScratchA, w.predConst);
            seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(StoreAddr),
                                            R(ScratchA), R(ScratchA)));
            seq.push_back(TemplateInst::op3(Opcode::AND, R(MatchRes),
                                            R(ScratchA), R(MatchRes)));
        }
        emitTrapTail(MatchRes);
        return seq;
      }

      case DiseVariant::MatchAddrValue: {
        // Figure 7 third variant: exact address match plus a value
        // comparison against dpv, all inline, no loads.
        const WatchSpec &w = watches_[0].spec();
        seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(StoreAddr),
                                        R(Dar0), R(MatchRes)));
        seq.push_back(TemplateInst::op3(Opcode::CMPEQ, TRegField::trigRa(),
                                        R(Dar1), R(ScratchA)));
        seq.push_back(TemplateInst::opImm(Opcode::CMPEQ_I, R(ScratchA), 0,
                                          R(ScratchA)));
        seq.push_back(TemplateInst::op3(Opcode::AND, R(MatchRes),
                                        R(ScratchA), R(MatchRes)));
        if (w.conditional) {
            emitLi(seq, ScratchA, w.predConst);
            seq.push_back(TemplateInst::op3(Opcode::CMPEQ,
                                            TRegField::trigRa(),
                                            R(ScratchA), R(ScratchA)));
            seq.push_back(TemplateInst::op3(Opcode::AND, R(MatchRes),
                                            R(ScratchA), R(MatchRes)));
        }
        emitTrapTail(MatchRes);
        return seq;
      }

      case DiseVariant::MatchAddrEvalExpr:
        break;
    }

    // Match-Address variants: align, match, call handler.
    switch (strategy_) {
      case MultiMatch::Serial: {
        quadAlign();
        // Collect the quad-aligned addresses to match.
        std::vector<Addr> quads;
        for (const auto &ws : watches_) {
            const WatchSpec &w = ws.spec();
            if (w.kind == WatchKind::Indirect) {
                quads.push_back(alignDown(w.addr, 8)); // the pointer cell
                quads.push_back(0); // target: runtime value, reg slot
            } else {
                quads.push_back(alignDown(w.addr, 8));
            }
        }
        // First two live in DISE registers (dr3/dr4), the rest are
        // materialized inline: sequence length grows linearly (Fig. 6).
        for (size_t i = 0; i < quads.size(); ++i) {
            RegId addrReg = ScratchA;
            if (i == 0)
                addrReg = Dar0;
            else if (i == 1)
                addrReg = Dar1;
            else
                emitLi(seq, ScratchA, quads[i]);
            RegId res = i == 0 ? MatchRes : ScratchA;
            seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(StoreAddr),
                                            R(addrReg), R(res)));
            if (i != 0)
                seq.push_back(TemplateInst::op3(Opcode::BIS, R(MatchRes),
                                                R(res), R(MatchRes)));
        }
        emitCallTail(MatchRes);
        break;
      }

      case MultiMatch::RangeCheck: {
        quadAlign();
        bool hiInReg = !opts_.protectDebuggerData;
        seq.push_back(TemplateInst::op3(Opcode::CMPULE, R(Aux0),
                                        R(StoreAddr), R(MatchRes)));
        if (hiInReg) {
            seq.push_back(TemplateInst::op3(Opcode::CMPULE, R(StoreAddr),
                                            R(Aux1), R(ScratchA)));
        } else {
            const WatchSpec &w = watches_[0].spec();
            Addr hi = alignDown(w.addr + w.length - 1, 8);
            emitLi(seq, ScratchA, hi);
            seq.push_back(TemplateInst::op3(Opcode::CMPULE, R(StoreAddr),
                                            R(ScratchA), R(ScratchA)));
        }
        seq.push_back(TemplateInst::op3(Opcode::AND, R(MatchRes),
                                        R(ScratchA), R(MatchRes)));
        emitCallTail(MatchRes);
        break;
      }

      case MultiMatch::BloomByte: {
        quadAlign();
        seq.push_back(TemplateInst::opImm(Opcode::SRL_I, R(StoreAddr), 3,
                                          R(MatchRes)));
        seq.push_back(TemplateInst::op3(Opcode::AND, R(MatchRes), R(Dar1),
                                        R(MatchRes))); // dr4 = mask
        seq.push_back(TemplateInst::op3(Opcode::ADDQ, R(MatchRes), R(Aux0),
                                        R(MatchRes))); // dr6 = bloom base
        seq.push_back(TemplateInst::mem(Opcode::LDB, R(MatchRes),
                                        TImmField::imm(0), R(MatchRes)));
        emitCallTail(MatchRes);
        break;
      }

      case MultiMatch::BloomBit: {
        quadAlign();
        seq.push_back(TemplateInst::opImm(Opcode::SRL_I, R(StoreAddr), 3,
                                          R(MatchRes))); // quad index
        seq.push_back(TemplateInst::opImm(Opcode::SRL_I, R(MatchRes), 3,
                                          R(ScratchA))); // byte index
        seq.push_back(TemplateInst::op3(Opcode::AND, R(ScratchA), R(Dar1),
                                        R(ScratchA)));
        seq.push_back(TemplateInst::op3(Opcode::ADDQ, R(ScratchA), R(Aux0),
                                        R(ScratchA)));
        seq.push_back(TemplateInst::mem(Opcode::LDB, R(ScratchA),
                                        TImmField::imm(0), R(ScratchA)));
        seq.push_back(TemplateInst::opImm(Opcode::AND_I, R(MatchRes), 7,
                                          R(MatchRes))); // bit index
        seq.push_back(TemplateInst::op3(Opcode::SRL, R(ScratchA),
                                        R(MatchRes), R(ScratchA)));
        seq.push_back(TemplateInst::opImm(Opcode::AND_I, R(ScratchA), 1,
                                          R(ScratchA)));
        emitCallTail(ScratchA);
        break;
      }

      case MultiMatch::Auto:
        panic("strategy not resolved");
    }
    return seq;
}

void
DiseBackend::buildHandler(DebugTarget &target)
{
    handlerBase_ = layout::DebuggerTextBase;
    Assembler a;
    a.data(dsegBase_ + dsegSize_); // dummy, unused
    a.text(handlerBase_);
    using namespace reg;

    a.label("dise_handler");
    // Prologue: treat every register as callee-saved (Fig. 2e). t0 is
    // stashed in a DISE scratch register so it can hold the dseg base.
    a.d_mtr(dr(0), t0);
    a.li(t0, dsegBase_);
    a.stq(t1, SaveAreaOff + 8, t0);
    a.stq(t2, SaveAreaOff + 16, t0);
    a.stq(t3, SaveAreaOff + 24, t0);
    a.stq(t4, SaveAreaOff + 32, t0);
    a.stq(t5, SaveAreaOff + 40, t0);
    a.d_mfr(t1, dr(1)); // quad-aligned store address

    auto entOff = [&](size_t idx, uint64_t field) {
        return static_cast<int64_t>(EntriesOff + idx * EntryBytes + field);
    };

    // Trap for watch i, at a site onTrap can tell apart. At every site
    // t1 holds the store's quad and t4 the value the check compared
    // against; a conditional check keeps it there (comparing into t5 or
    // t2 instead), since onTrap reports it as the old value.
    std::vector<std::pair<std::string, size_t>> trapSites;
    auto emitTrap = [&](size_t i) {
        trapSites.emplace_back(a.genLabel("wptrap"), i);
        a.label(trapSites.back().first);
        a.trap(TrapWatchpoint);
    };

    // t3 holds the value the store left; t4 gets the value last seen.
    auto emitValueCheck = [&](const WatchSpec &w, size_t i, size_t ent,
                              const std::string &next) {
        const RegId cmp = w.conditional ? t5 : t4;
        a.ldq(t4, entOff(ent, EntPrev), t0);
        a.cmpeq(t3, t4, cmp);
        a.bne(cmp, next); // silent store: pruned in-application
        a.stq(t3, entOff(ent, EntPrev), t0);
        if (w.conditional) {
            a.ldq(t5, entOff(ent, EntPred), t0);
            a.cmpeq(t3, t5, t5);
            a.beq(t5, next); // predicate false: pruned in-application
        }
        emitTrap(i);
    };

    auto emitScalarCheck = [&](const WatchSpec &w, size_t i, size_t ent,
                               const std::string &next) {
        a.ldq(t2, entOff(ent, EntAligned), t0);
        a.cmpeq(t1, t2, t3);
        a.beq(t3, next);
        a.ldq(t2, entOff(ent, EntReal), t0);
        switch (w.size) {
          case 8: a.ldq(t3, 0, t2); break;
          case 4: a.ldl(t3, 0, t2); break;
          case 2: a.ldw(t3, 0, t2); break;
          case 1: a.ldb(t3, 0, t2); break;
        }
        emitValueCheck(w, i, ent, next);
    };

    for (size_t i = 0; i < watches_.size(); ++i) {
        const WatchSpec &w = watches_[i].spec();
        const size_t entryIdx = slots_[i].entry;
        std::string next = a.genLabel("wpnext");
        switch (w.kind) {
          case WatchKind::Scalar:
            emitScalarCheck(w, i, entryIdx, next);
            a.label(next);
            break;

          case WatchKind::Indirect: {
            size_t entP = entryIdx;
            size_t entT = entryIdx + 1;
            // Serial matching keeps watched quads in entry order in the
            // two dar registers; the handler retargets the one (if any)
            // holding this target with d_mtr.
            size_t targetSlot = entT;
            std::string tgtChk = a.genLabel("tgtchk");
            // Pointer-cell write: retarget the watch.
            a.ldq(t2, entOff(entP, EntAligned), t0);
            a.cmpeq(t1, t2, t3);
            a.beq(t3, tgtChk);
            a.ldq(t2, entOff(entP, EntReal), t0);
            a.ldq(t3, 0, t2); // new pointer value
            a.ldq(t4, entOff(entP, EntPrev), t0);
            a.cmpeq(t3, t4, t4);
            a.bne(t4, tgtChk); // pointer unchanged
            a.stq(t3, entOff(entP, EntPrev), t0);
            a.stq(t3, entOff(entT, EntReal), t0);
            a.bic(t3, 7, t4);
            a.stq(t4, entOff(entT, EntAligned), t0);
            if (strategy_ == MultiMatch::Serial && targetSlot < 2) {
                // Refresh the dar register holding the target address.
                a.d_mtr(targetSlot == 0 ? dr(3) : dr(4), t4);
            } else if (strategy_ == MultiMatch::BloomByte) {
                a.srl(t4, 3, t5);
                a.li(t2, BloomBytes - 1);
                a.and_(t5, t2, t5);
                a.li(t2, bloomBase_);
                a.addq(t5, t2, t5);
                a.li(t2, 1);
                a.stb(t2, 0, t5);
            } else if (strategy_ == MultiMatch::BloomBit) {
                a.srl(t4, 3, t5); // quad index
                a.srl(t5, 3, t2); // byte index
                a.li(t4, BloomBytes - 1);
                a.and_(t2, t4, t2); // masked byte index
                a.li(t4, bloomBase_);
                a.addq(t2, t4, t2); // byte address
                a.and_(t5, 7, t5);  // bit index
                a.li(t4, 1);
                a.sll(t4, t5, t5);  // bit mask
                a.ldb(t4, 0, t2);
                a.bis(t4, t5, t4);
                a.stb(t4, 0, t2);
            }
            // Did the expression value change across the retarget?
            a.ldq(t2, entOff(entT, EntReal), t0);
            switch (w.size) {
              case 8: a.ldq(t3, 0, t2); break;
              case 4: a.ldl(t3, 0, t2); break;
              case 2: a.ldw(t3, 0, t2); break;
              case 1: a.ldb(t3, 0, t2); break;
            }
            emitValueCheck(w, i, entT, next);
            a.br(next);
            // The datum *p currently points at.
            a.label(tgtChk);
            emitScalarCheck(w, i, entT, next);
            a.label(next);
            break;
          }

          case WatchKind::Range: {
            a.ldq(t2, entOff(entryIdx, EntAligned), t0); // lo quad
            a.cmpult(t1, t2, t3);
            a.bne(t3, next);
            a.ldq(t4, entOff(entryIdx, EntReal), t0); // hi quad
            a.cmpult(t4, t1, t3);
            a.bne(t3, next);
            a.ldq(t3, 0, t1); // current quad at the store location
            a.ldq(t5, entOff(entryIdx, EntPrev), t0); // shadow base
            a.subq(t1, t2, t2);
            a.addq(t5, t2, t5);
            a.ldq(t4, 0, t5); // shadow quad
            const RegId cmp = w.conditional ? t2 : t4;
            a.cmpeq(t3, t4, cmp);
            a.bne(cmp, next);
            a.stq(t3, 0, t5);
            if (w.conditional) {
                a.ldq(t2, entOff(entryIdx, EntPred), t0);
                a.cmpeq(t3, t2, t2);
                a.beq(t2, next);
            }
            emitTrap(i);
            a.label(next);
            break;
          }
        }
    }

    // Epilogue.
    a.ldq(t1, SaveAreaOff + 8, t0);
    a.ldq(t2, SaveAreaOff + 16, t0);
    a.ldq(t3, SaveAreaOff + 24, t0);
    a.ldq(t4, SaveAreaOff + 32, t0);
    a.ldq(t5, SaveAreaOff + 40, t0);
    a.d_mfr(t0, dr(0));
    a.d_ret();

    Program handlerProg = a.finish("dise_handler");
    for (auto &seg : handlerProg.segments) {
        if (seg.name == "text") {
            handlerInsts_ = seg.bytes.size() / 4;
            seg.name = "dise_handler_text";
            target.program.segments.push_back(seg);
        }
    }
    handlerBase_ = handlerProg.symbol("dise_handler");
    for (const auto &[label, i] : trapSites)
        checkTraps_[handlerProg.symbol(label)] = i;
}

void
DiseBackend::installBreakpoints(DebugTarget &target)
{
    const bool cc = opts_.condCallTrap;
    // Segment bytes are shared with every copy of the program, so the
    // codeword flavor patches a private copy of each text segment it
    // lands in (by segment index) and swaps the copies in at the end.
    std::map<size_t, std::vector<uint8_t>> patchedText;
    std::vector<Program::Segment> &segs = target.program.segments;
    for (size_t i = 0; i < breaks_.size(); ++i) {
        const BreakSpec &bp = breaks_[i];
        Production p;
        p.name = "break-" + std::to_string(i);
        Inst original{};
        if (opts_.breakpointsByCodeword) {
            // Statically patch the breakpoint instruction into a
            // codeword (the paper's first breakpoint flavor).
            bool patched = false;
            for (size_t s = 0; s < segs.size(); ++s) {
                const Program::Segment &seg = segs[s];
                if (!seg.executable || bp.pc < seg.base ||
                    bp.pc + 4 > seg.base + seg.bytes.size())
                    continue;
                auto [it, fresh] = patchedText.try_emplace(s);
                if (fresh)
                    it->second = seg.bytes.copy();
                std::vector<uint8_t> &bytes = it->second;
                size_t off = bp.pc - seg.base;
                uint32_t w = 0;
                for (int b = 3; b >= 0; --b)
                    w = (w << 8) | bytes[off + b];
                auto dec = decode(w);
                DISE_ASSERT(dec, "breakpoint target is not code");
                original = *dec;
                uint32_t cw = encode(
                    makeSystem(Opcode::CODEWORD, static_cast<int64_t>(i)));
                for (int b = 0; b < 4; ++b)
                    bytes[off + b] = (cw >> (8 * b)) & 0xff;
                patched = true;
            }
            DISE_ASSERT(patched, "breakpoint pc not in any text segment");
            p.pattern = Pattern::forCodeword(static_cast<int64_t>(i));
        } else {
            // Hardware-breakpoint-register flavor: exact-PC pattern.
            p.pattern = Pattern::forPc(bp.pc);
            p.pattern.opclass.reset();
        }

        std::vector<TemplateInst> seq;
        int64_t code = TrapBreakBase + static_cast<int64_t>(i);
        if (bp.conditional) {
            // Compile the condition into the replacement (Section 4.3),
            // using DISE registers dr1/dr0 as temporaries.
            emitLi(seq, StoreAddr, bp.condAddr);
            seq.push_back(TemplateInst::mem(loadOpForSize(bp.condSize),
                                            R(StoreAddr), TImmField::imm(0),
                                            R(StoreAddr)));
            emitLi(seq, ScratchA, bp.condConst);
            seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(StoreAddr),
                                            R(ScratchA), R(MatchRes)));
            if (cc) {
                TemplateInst t;
                t.op = Opcode::CTRAP;
                t.ra = R(MatchRes);
                t.imm = TImmField::imm(code);
                seq.push_back(t);
            } else {
                TemplateInst b;
                b.op = Opcode::D_BEQ;
                b.ra = R(MatchRes);
                b.imm = TImmField::imm(1);
                seq.push_back(b);
                TemplateInst t;
                t.op = Opcode::TRAP;
                t.imm = TImmField::imm(code);
                seq.push_back(t);
            }
        } else {
            TemplateInst t;
            t.op = Opcode::TRAP;
            t.imm = TImmField::imm(code);
            seq.push_back(t);
        }
        if (opts_.breakpointsByCodeword)
            seq.push_back(TemplateInst::fixed(original));
        else
            seq.push_back(TemplateInst::trigInst());
        p.replacement = std::move(seq);
        target.engine.addProduction(std::move(p));
    }
    for (auto &[s, bytes] : patchedText)
        segs[s].bytes = std::move(bytes);
}

void
DiseBackend::bloomInsert(DebugTarget &target, Addr quadAddr)
{
    uint64_t quadIdx = quadAddr >> 3;
    if (strategy_ == MultiMatch::BloomByte) {
        Addr slot = bloomBase_ + (quadIdx & (BloomBytes - 1));
        target.mem.write(slot, 1, 1);
    } else {
        uint64_t byteIdx = (quadIdx >> 3) & (BloomBytes - 1);
        unsigned bit = quadIdx & 7;
        Addr slot = bloomBase_ + byteIdx;
        uint64_t v = target.mem.read(slot, 1);
        target.mem.write(slot, 1, v | (uint64_t{1} << bit));
    }
}

void
DiseBackend::prime(DebugTarget &target)
{
    for (auto &ws : watches_)
        ws.prime(target.mem);
    for (size_t i = 0; i < watches_.size(); ++i)
        primeWatch(target, i);
    primeRegisters(target);
}

void
DiseBackend::refreshWatch(DebugTarget &target, size_t i)
{
    primeWatch(target, i);
    primeRegisters(target);
}

void
DiseBackend::primeWatch(DebugTarget &target, size_t i)
{
    const bool bloom = strategy_ == MultiMatch::BloomByte ||
                       strategy_ == MultiMatch::BloomBit;
    const WatchSpec &w = watches_[i].spec();
    Addr entBase = dsegBase_ + EntriesOff + slots_[i].entry * EntryBytes;
    const Addr shadow = slots_[i].shadow;
    switch (w.kind) {
      case WatchKind::Scalar: {
        Addr aligned = alignDown(w.addr, 8);
        target.mem.write(entBase + EntAligned, 8, aligned);
        target.mem.write(entBase + EntReal, 8, w.addr);
        target.mem.write(entBase + EntPrev, 8,
                         readLikeTarget(target.mem, w.addr, w.size));
        target.mem.write(entBase + EntPred, 8, w.predConst);
        if (bloom)
            bloomInsert(target, aligned);
        break;
      }
      case WatchKind::Indirect: {
        Addr pAligned = alignDown(w.addr, 8);
        uint64_t pVal = target.mem.read(w.addr, 8);
        Addr tAligned = alignDown(pVal, 8);
        // Pointer-cell entry.
        target.mem.write(entBase + EntAligned, 8, pAligned);
        target.mem.write(entBase + EntReal, 8, w.addr);
        target.mem.write(entBase + EntPrev, 8, pVal);
        target.mem.write(entBase + EntPred, 8, 0);
        // Target entry.
        Addr entT = entBase + EntryBytes;
        target.mem.write(entT + EntAligned, 8, tAligned);
        target.mem.write(entT + EntReal, 8, pVal);
        target.mem.write(entT + EntPrev, 8,
                         readLikeTarget(target.mem, pVal, w.size));
        target.mem.write(entT + EntPred, 8, w.predConst);
        if (bloom) {
            bloomInsert(target, pAligned);
            bloomInsert(target, tAligned);
        }
        break;
      }
      case WatchKind::Range: {
        Addr lo = alignDown(w.addr, 8);
        Addr hi = alignDown(w.addr + w.length - 1, 8);
        target.mem.write(entBase + EntAligned, 8, lo);
        target.mem.write(entBase + EntReal, 8, hi);
        target.mem.write(entBase + EntPrev, 8, shadow);
        target.mem.write(entBase + EntPred, 8, w.predConst);
        // Fill the shadow copy quad by quad.
        for (Addr q = lo; q <= hi; q += 8) {
            target.mem.write(shadow + (q - lo), 8, target.mem.read(q, 8));
            if (bloom)
                bloomInsert(target, q);
        }
        break;
      }
    }
}

uint64_t
DiseBackend::checkedValue(size_t i, Addr quad) const
{
    const WatchSpec &w = watches_[i].spec();
    const MainMemory &mem = target_->mem;
    if (w.kind == WatchKind::Range) {
        Addr lo = alignDown(w.addr, 8);
        Addr hi = alignDown(w.addr + w.length - 1, 8);
        return quad >= lo && quad <= hi
                   ? mem.read(slots_[i].shadow + (quad - lo), 8)
                   : 0;
    }
    // An indirect watch's value lives in its target entry.
    size_t ent = slots_[i].entry + (w.kind == WatchKind::Indirect);
    return mem.read(dsegBase_ + EntriesOff + ent * EntryBytes + EntPrev, 8);
}

void
DiseBackend::primeRegisters(DebugTarget &target)
{
    ArchState &arch = target.arch;
    arch.writeDise(5, handlerBase_); // dhdlr
    if (opts_.protectDebuggerData)
        arch.writeDise(7, dsegBase_ >> protShift_);

    switch (opts_.variant) {
      case DiseVariant::EvalExpr:
      case DiseVariant::MatchAddrValue: {
        const WatchSpec &w = watches_[0].spec();
        arch.writeDise(3, w.addr); // dar: real address
        arch.writeDise(4, readLikeTarget(target.mem, w.addr, w.size));
        return;
      }
      case DiseVariant::MatchAddrEvalExpr:
        break;
    }

    switch (strategy_) {
      case MultiMatch::Serial: {
        // The first two watched quads, in entry order (an indirect
        // watch's target is where its pointer points now).
        std::vector<Addr> serialQuads;
        for (const auto &ws : watches_) {
            const WatchSpec &w = ws.spec();
            if (w.kind == WatchKind::Range)
                continue;
            serialQuads.push_back(alignDown(w.addr, 8));
            if (w.kind == WatchKind::Indirect)
                serialQuads.push_back(
                    alignDown(target.mem.read(w.addr, 8), 8));
        }
        if (serialQuads.size() > 0)
            arch.writeDise(3, serialQuads[0]);
        if (serialQuads.size() > 1)
            arch.writeDise(4, serialQuads[1]);
        break;
      }
      case MultiMatch::RangeCheck: {
        const WatchSpec &w = watches_[0].spec();
        arch.writeDise(6, alignDown(w.addr, 8));
        if (!opts_.protectDebuggerData)
            arch.writeDise(7, alignDown(w.addr + w.length - 1, 8));
        break;
      }
      case MultiMatch::BloomByte:
      case MultiMatch::BloomBit:
        arch.writeDise(4, BloomBytes - 1); // mask
        arch.writeDise(6, bloomBase_);
        break;
      case MultiMatch::Auto:
        panic("strategy not resolved");
    }
}

DebugAction
DiseBackend::onTrap(const MicroOp &op)
{
    ++seq_;
    int64_t code = op.inst.imm;
    // Traps raised inside the generated handler carry the trigger
    // store's PC in their saved <PC:DISEPC> context.
    Addr pc = op.inHandler ? op.handlerCallerPc : op.pc;

    if (code >= TrapBreakBase) {
        int idx = static_cast<int>(code - TrapBreakBase);
        recordBreak(idx, pc, seq_);
        return {TransitionKind::User};
    }
    if (code == TrapProtection) {
        // dr1 still holds the offending store address.
        recordProtection(pc, target_->arch.readDise(1));
        return {TransitionKind::User};
    }

    // Watchpoint trap: the in-application logic already filtered silent
    // stores and false predicates, so this transition reaches the user.
    const ArchState &arch = target_->arch;
    recordCheckedWatches(*target_, op.pc, arch.read(reg::t1),
                         arch.read(reg::t4), pc);
    if (opts_.variant != DiseVariant::MatchAddrEvalExpr) {
        // Inline variants keep dpv in dr4; the debugger refreshes it
        // during this (already user-bound) transition.
        const WatchSpec &w = watches_[0].spec();
        target_->arch.writeDise(
            4, readLikeTarget(target_->mem, w.addr, w.size));
    }
    return {TransitionKind::User};
}

} // namespace dise
