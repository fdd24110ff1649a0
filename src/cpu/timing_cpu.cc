#include "cpu/timing_cpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dise {

TimingCpu::TimingCpu(ArchState &arch, MainMemory &mem, DiseEngine *engine,
                     StreamEnv env, TimingConfig cfg)
    : arch_(arch), stream_(arch, mem, engine, env), cfg_(cfg),
      memSys_(cfg.mem), bpred_(cfg.bpred)
{
    DISE_ASSERT(cfg_.robSize > 0 && cfg_.rsSize > 0 && cfg_.width > 0,
                "bad pipeline configuration");
    rob_.resize(cfg_.robSize);
    pool_.resize(cfg_.robSize + 2);
    freeSlots_.reserve(pool_.size());
    for (int i = static_cast<int>(pool_.size()) - 1; i > 0; --i)
        freeSlots_.push_back(i);
    pendingSlot_ = 0;
    std::fill(std::begin(renameMap_), std::end(renameMap_), -1);
}

void
TimingCpu::classifyControl(MicroOp &op)
{
    // Methodology: user-bound debugger transitions are free. Drop the
    // serializing flush for traps that reach the user.
    if (op.debug.kind == TransitionKind::User &&
        op.flush == FlushClass::Serialize && !op.isHalt) {
        op.flush = FlushClass::None;
    }

    // Multithreaded handler execution: DISE function call/return run on
    // a second context, eliminating their pipeline flushes.
    if (cfg_.mtHandlers && op.flush == FlushClass::DiseTransfer &&
        (op.inst.op == Opcode::D_CALL || op.inst.op == Opcode::D_CCALL ||
         op.inst.op == Opcode::D_RET)) {
        op.flush = FlushClass::None;
    }

    if (!op.isCtrl || op.fromExpansion)
        return;

    // Conventional control: fetched and therefore predicted.
    Opcode o = op.inst.op;
    if (op.inst.isCondBranch()) {
        bool pred = bpred_.predictDirection(op.pc);
        if (pred != op.taken)
            op.flush = FlushClass::Mispredict;
        bpred_.update(op.pc, op.taken, op.taken ? op.target : 0, true);
    } else if (o == Opcode::BSR) {
        bpred_.pushRas(op.pc + 4);
    } else if (o == Opcode::BR) {
        // Direct unconditional: target computable at fetch; free.
    } else if (o == Opcode::JSR || o == Opcode::JMP) {
        Addr predTarget = bpred_.predictTarget(op.pc);
        if (o == Opcode::JSR)
            bpred_.pushRas(op.pc + 4);
        if (predTarget != op.target)
            op.flush = FlushClass::Mispredict;
        bpred_.update(op.pc, true, op.target, false);
    } else if (o == Opcode::RET) {
        Addr predTarget = bpred_.popRas();
        if (predTarget != op.target)
            op.flush = FlushClass::Mispredict;
    }
}

bool
TimingCpu::sourcesReady(const RobEntry &e, uint64_t now) const
{
    for (int j = 0; j < 2; ++j) {
        int p = e.prod[j];
        if (p < 0)
            continue;
        const RobEntry &prod = rob_[p];
        if (prod.state == SlotState::Free || prod.op->seq != e.prodSeq[j])
            continue; // producer already retired
        if (prod.state != SlotState::Done || prod.doneCycle > now)
            return false;
    }
    return true;
}

bool
TimingCpu::olderStoresAddrKnown(int slot, uint64_t now) const
{
    if (cfg_.robCursors) {
        // Only in-flight stores matter; walk them oldest-first and
        // stop at the first one younger than the load.
        int age = robAge(slot);
        for (int s : storeSlots_) {
            if (robAge(s) >= age)
                return true;
            const RobEntry &e = rob_[s];
            if (e.state != SlotState::Done || e.doneCycle > now)
                return false;
        }
        return true;
    }
    for (int i = 0; i < robCount_; ++i) {
        int s = (robHead_ + i) % static_cast<int>(cfg_.robSize);
        if (s == slot)
            return true;
        const RobEntry &e = rob_[s];
        if (e.op->isStoreOp() &&
            (e.state != SlotState::Done || e.doneCycle > now))
            return false;
    }
    return true;
}

int
TimingCpu::forwardingStore(int slot) const
{
    const MicroOp &load = *rob_[slot].op;
    Addr lo = load.effAddr;
    Addr hi = lo + load.memBytes;
    if (cfg_.robCursors) {
        // Youngest older store first: walk the store ring backward,
        // skipping stores at or past the load's position.
        int age = robAge(slot);
        for (auto it = storeSlots_.rbegin(); it != storeSlots_.rend();
             ++it) {
            if (robAge(*it) >= age)
                continue;
            const RobEntry &e = rob_[*it];
            Addr slo = e.op->effAddr;
            Addr shi = slo + e.op->memBytes;
            if (slo < hi && lo < shi)
                return *it;
        }
        return -1;
    }
    // Scan older entries youngest-first.
    int offset = -1;
    for (int i = 0; i < robCount_; ++i) {
        int s = (robHead_ + i) % static_cast<int>(cfg_.robSize);
        if (s == slot) {
            offset = i;
            break;
        }
    }
    for (int i = offset - 1; i >= 0; --i) {
        int s = (robHead_ + i) % static_cast<int>(cfg_.robSize);
        const RobEntry &e = rob_[s];
        if (!e.op->isStoreOp())
            continue;
        Addr slo = e.op->effAddr;
        Addr shi = slo + e.op->memBytes;
        if (slo < hi && lo < shi)
            return s;
    }
    return -1;
}

void
TimingCpu::retireRenameRefs(int slot)
{
    for (unsigned r = 0; r < NumLogicalRegs; ++r)
        if (renameMap_[r] == slot)
            renameMap_[r] = -1;
}

RunStats
TimingCpu::run(const RunLimits &lim)
{
    RunStats stats;
    uint64_t now = 0;

    for (;;) {
        bool activity = false;
        portUsed_ = aluUsed_ = mulUsed_ = issuedThisCycle_ = 0;

        // ------------------------------------------------ commit stage
        unsigned committed = 0;
        while (committed < cfg_.width && robCount_ > 0) {
            RobEntry &e = rob_[robHead_];
            if (e.state != SlotState::Done || e.doneCycle > now)
                break;
            if (commitStallUntil_ > now)
                break;
            const MicroOp &op = *e.op;

            // A spurious debugger transition flushes and stalls for the
            // full round-trip before the op can retire.
            if (op.debug.spurious() && !e.stallCharged) {
                e.stallCharged = true;
                commitStallUntil_ = now + cfg_.transitionCost;
                stats.transitionStallCycles += cfg_.transitionCost;
                frontResumeCycle_ = std::max(
                    frontResumeCycle_, commitStallUntil_ + cfg_.frontDepth);
                frontBlocked_ = false;
                lastFetchLine_ = ~uint64_t{0};
                activity = true;
                break;
            }

            if (op.isStoreOp()) {
                if (portUsed_ >= cfg_.cachePorts)
                    break;
                ++portUsed_;
                memSys_.dataAccess(op.effAddr, true, now);
            }

            switch (op.debug.kind) {
              case TransitionKind::User:
                ++stats.transitionsUser;
                break;
              case TransitionKind::SpuriousAddress:
                ++stats.transitionsSpuriousAddr;
                break;
              case TransitionKind::SpuriousValue:
                ++stats.transitionsSpuriousValue;
                break;
              case TransitionKind::SpuriousPredicate:
                ++stats.transitionsSpuriousPred;
                break;
              case TransitionKind::None:
                break;
            }

            if (op.flush == FlushClass::Serialize) {
                ++stats.serializeFlushes;
                frontResumeCycle_ = std::max(frontResumeCycle_,
                                             now + 1 + cfg_.frontDepth);
                frontBlocked_ = false;
                lastFetchLine_ = ~uint64_t{0};
            } else if (op.debug.spurious()) {
                frontBlocked_ = false;
            } else if (op.flush == FlushClass::Mispredict) {
                ++stats.mispredictFlushes;
            } else if (op.flush == FlushClass::DiseTransfer) {
                ++stats.diseFlushes;
            }

            ++stats.microOps;
            if (op.isAppInst()) {
                ++stats.appInsts;
                if (op.isStoreOp())
                    ++stats.stores;
                if (op.isLoadOp())
                    ++stats.loads;
            } else if (op.inHandler) {
                ++stats.handlerOps;
            } else {
                ++stats.expansionOps;
            }

            bool wasHalt = op.isHalt;
            HaltReason hr = op.haltReason;
            retireRenameRefs(robHead_);
            if (op.isStoreOp() && !storeSlots_.empty() &&
                storeSlots_.front() == robHead_)
                storeSlots_.pop_front();
            if (issueSkip_ > 0)
                --issueSkip_; // offsets shift as the head advances
            e.state = SlotState::Free;
            freeSlots_.push_back(static_cast<int>(e.op - pool_.data()));
            robHead_ = (robHead_ + 1) % static_cast<int>(cfg_.robSize);
            --robCount_;
            ++committed;
            activity = true;

            if (wasHalt) {
                stats.cycles = now + 1;
                stats.halt = hr;
                stats.faultMessage = stream_.faultMessage();
                return stats;
            }
        }

        // ------------------------------------------------- issue stage
        // With cursors: start past the head-side prefix of entries
        // that already issued, and stop once every waiting entry has
        // been seen — the common full-window case (a long-latency op
        // at the head, everything behind it done) costs O(waiting)
        // instead of O(robSize).
        unsigned waiting = rsCount_;
        for (int i = cfg_.robCursors ? issueSkip_ : 0;
             i < robCount_ && issuedThisCycle_ < cfg_.width &&
             (!cfg_.robCursors || waiting > 0);
             ++i) {
            int slot = (robHead_ + i) % static_cast<int>(cfg_.robSize);
            RobEntry &e = rob_[slot];
            if (e.state != SlotState::Dispatched) {
                if (cfg_.robCursors && i == issueSkip_)
                    ++issueSkip_;
                continue;
            }
            --waiting;
            if (e.dispatchCycle >= now)
                continue;
            if (!sourcesReady(e, now))
                continue;

            const MicroOp &op = *e.op;
            uint64_t done;
            if (op.isLoadOp()) {
                if (!olderStoresAddrKnown(slot, now))
                    continue;
                int fwd = forwardingStore(slot);
                if (fwd >= 0) {
                    done = now + 2; // AGU + store-queue forward
                } else {
                    if (portUsed_ >= cfg_.cachePorts)
                        continue;
                    ++portUsed_;
                    uint64_t lat =
                        memSys_.dataAccess(op.effAddr, false, now);
                    done = now + 1 + lat;
                }
            } else if (op.inst.cls() == OpClass::IntMul) {
                if (mulUsed_ >= 1)
                    continue;
                ++mulUsed_;
                done = now + cfg_.mulLatency;
            } else {
                if (aluUsed_ >= cfg_.intAlus)
                    continue;
                ++aluUsed_;
                done = now + 1;
            }

            e.state = SlotState::Done;
            e.doneCycle = done;
            --rsCount_;
            ++issuedThisCycle_;
            activity = true;

            if (op.flush == FlushClass::Mispredict ||
                op.flush == FlushClass::DiseTransfer) {
                frontResumeCycle_ = std::max(frontResumeCycle_,
                                             done + cfg_.frontDepth);
                frontBlocked_ = false;
                lastFetchLine_ = ~uint64_t{0};
            }
        }

        // ----------------------------------------------- deliver stage
        if (!frontBlocked_ && now >= frontResumeCycle_ && !streamDone_) {
            unsigned delivered = 0;
            bool groupEnd = false;
            while (delivered < cfg_.width && !groupEnd && !frontBlocked_) {
                if (lim.maxAppInsts &&
                    deliveredAppInsts_ >= lim.maxAppInsts) {
                    streamDone_ = true;
                    break;
                }
                // The stream decodes straight into the pending pool
                // slot; no staging copy exists.
                MicroOp &op = pool_[pendingSlot_];
                if (!havePending_) {
                    if (!stream_.next(op)) {
                        streamDone_ = true;
                        break;
                    }
                    havePending_ = true;
                    classifyControl(op);
                }

                if (!op.fromExpansion) {
                    uint64_t line =
                        op.pc / memSys_.config().l1i.lineBytes;
                    if (line != lastFetchLine_) {
                        uint64_t lat = memSys_.fetchAccess(op.pc, now);
                        lastFetchLine_ = line;
                        if (lat > 0) {
                            frontResumeCycle_ = now + lat;
                            activity = true;
                            break;
                        }
                    }
                }

                // Nops are extracted at no simulated cost (paper §5).
                if (op.inst.op == Opcode::NOP &&
                    op.flush == FlushClass::None &&
                    !op.debug.transitions()) {
                    ++stats.microOps;
                    if (op.isAppInst()) {
                        ++stats.appInsts;
                        ++deliveredAppInsts_;
                    } else if (op.inHandler) {
                        ++stats.handlerOps;
                    } else {
                        ++stats.expansionOps;
                    }
                    havePending_ = false;
                    activity = true;
                    continue;
                }

                if (robCount_ >= static_cast<int>(cfg_.robSize) ||
                    rsCount_ >= cfg_.rsSize)
                    break;

                int slot = (robHead_ + robCount_) %
                           static_cast<int>(cfg_.robSize);
                RobEntry &e = rob_[slot];
                // Ownership of the pending slot transfers to the ROB
                // entry; the next decode gets a free slot.
                e.op = &pool_[pendingSlot_];
                DISE_ASSERT(!freeSlots_.empty(), "micro-op pool exhausted");
                pendingSlot_ = freeSlots_.back();
                freeSlots_.pop_back();
                e.state = SlotState::Dispatched;
                e.dispatchCycle = now;
                e.doneCycle = 0;
                e.prod[0] = e.prod[1] = -1;
                e.prodSeq[0] = e.prodSeq[1] = 0;
                e.stallCharged = false;

                SrcRegs srcs = srcRegs(op.inst);
                for (int j = 0; j < 2; ++j) {
                    RegId r = srcs.r[j];
                    if (!r.valid() || r.isZero())
                        continue;
                    int p = renameMap_[r.flat()];
                    if (p >= 0 && rob_[p].state != SlotState::Free) {
                        e.prod[j] = p;
                        e.prodSeq[j] = rob_[p].op->seq;
                    }
                }
                RegId dst = dstReg(op.inst);
                if (dst.valid() && !dst.isZero())
                    renameMap_[dst.flat()] = slot;

                if (op.isStoreOp())
                    storeSlots_.push_back(slot);
                ++robCount_;
                ++rsCount_;
                ++delivered;
                activity = true;
                if (op.isAppInst())
                    ++deliveredAppInsts_;

                if (op.flush != FlushClass::None || op.debug.spurious())
                    frontBlocked_ = true;
                if (op.isCtrl && op.taken)
                    groupEnd = true;
                if (op.isHalt)
                    streamDone_ = true;
                havePending_ = false;
            }
        }

        // ------------------------------------------------ end of cycle
        if (robCount_ == 0 && streamDone_) {
            stats.cycles = now;
            stats.halt = stream_.halted() ? stream_.haltReason()
                                          : HaltReason::InstLimit;
            if (stats.halt == HaltReason::None)
                stats.halt = HaltReason::InstLimit;
            stats.faultMessage = stream_.faultMessage();
            return stats;
        }
        if (lim.maxCycles && now >= lim.maxCycles) {
            stats.cycles = now;
            stats.halt = HaltReason::CycleLimit;
            return stats;
        }

        if (activity) {
            ++now;
            continue;
        }

        // Nothing happened: fast-forward to the next event.
        uint64_t next = ~uint64_t{0};
        auto cand = [&](uint64_t c) {
            if (c > now)
                next = std::min(next, c);
        };
        if (commitStallUntil_ > now)
            cand(commitStallUntil_);
        if (!frontBlocked_ && !streamDone_)
            cand(frontResumeCycle_);
        for (int i = 0; i < robCount_; ++i) {
            int s = (robHead_ + i) % static_cast<int>(cfg_.robSize);
            const RobEntry &e = rob_[s];
            if (e.state == SlotState::Done)
                cand(e.doneCycle);
        }
        if (next == ~uint64_t{0}) {
            // All in-flight work is ready but structurally blocked;
            // advance one cycle.
            bool anyInflight = robCount_ > 0;
            if (!anyInflight)
                panic("pipeline deadlock: empty ROB with no events at "
                      "cycle ", now);
            ++now;
        } else {
            now = next;
        }
    }
}

} // namespace dise
