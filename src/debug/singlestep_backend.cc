#include "debug/singlestep_backend.hh"

#include "cpu/inst_stream.hh"
#include "isa/encoding.hh"

namespace dise {

bool
SingleStepBackend::install(DebugTarget &target,
                           const std::vector<WatchSpec> &watches,
                           const std::vector<BreakSpec> &breaks)
{
    target_ = &target;
    for (const auto &w : watches)
        watches_.emplace_back(w);
    breaks_ = breaks;
    stmtSet_.insert(target.program.stmtBoundaries.begin(),
                    target.program.stmtBoundaries.end());
    // The debugger also gets control at every instruction that halts
    // the program: no statement boundary follows the last statement,
    // so a store there is checked before the target exits.
    for (const Program::Segment &seg : target.program.segments) {
        if (!seg.executable)
            continue;
        for (size_t off = 0; off + 4 <= seg.bytes.size(); off += 4) {
            uint32_t word = 0;
            for (size_t b = 0; b < 4; ++b)
                word |= static_cast<uint32_t>(seg.bytes[off + b]) << (8 * b);
            std::optional<Inst> in = decode(word);
            if (in && (in->op == Opcode::HALT ||
                       (in->op == Opcode::SYSCALL && in->imm == SysExit)))
                stmtSet_.insert(seg.base + off);
        }
    }
    // Single-stepping supports everything (that is its sole virtue).
    return true;
}

void
SingleStepBackend::prime(DebugTarget &target)
{
    for (auto &w : watches_)
        w.prime(target.mem);
}

StreamEnv
SingleStepBackend::streamEnv(DebugTarget &target)
{
    StreamEnv env = DebugBackend::streamEnv(target);
    env.stmtTraps = &stmtSet_;
    return env;
}

DebugAction
SingleStepBackend::onStatement(Addr pc)
{
    ++seq_;
    bool anyUser = false;
    bool anyPredicateFail = false;

    for (const auto &bp : breaks_) {
        if (bp.pc != pc)
            continue;
        bool pass = !bp.conditional ||
                    target_->mem.read(bp.condAddr, bp.condSize) ==
                        bp.condConst;
        if (pass) {
            recordBreak(static_cast<int>(&bp - breaks_.data()), pc,
                        seq_);
            anyUser = true;
        } else {
            anyPredicateFail = true;
        }
    }

    for (size_t i = 0; i < watches_.size(); ++i) {
        auto ch = watches_[i].evaluate(target_->mem);
        if (!ch)
            continue;
        if (watches_[i].predicatePasses(ch->newValue)) {
            recordWatch(static_cast<int>(i), *ch, seq_, pc);
            anyUser = true;
        } else {
            anyPredicateFail = true;
        }
    }

    // Every statement is one debugger transition; classify it.
    if (anyUser)
        return {TransitionKind::User};
    if (anyPredicateFail)
        return {TransitionKind::SpuriousPredicate};
    return {TransitionKind::SpuriousAddress};
}

} // namespace dise
