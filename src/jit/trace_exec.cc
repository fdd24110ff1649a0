/**
 * @file
 * Trace recording and trace execution, as InstStream members (they are
 * the stream's hot path — recording rides next(), execution replaces
 * it). Kept beside the trace cache: the two halves share the trace
 * model's invariants.
 *
 * Recording: jitAfterOp() observes every µop next() delivers. Taken
 * backward raw transfers profile their targets; a hot target starts a
 * recording, and subsequent µops append until the run closes back on
 * its start PC (a loop trace), grows past the size cap, or hits an op
 * that cannot live in a trace — a syscall, a halt, a taken d_call or
 * d_ccall, any op of the DISE-called function it enters (d_mfr/d_mtr,
 * d_ret), or control that aborts an expansion mid-flight. Then the
 * recording finalizes at the last raw-op boundary or is discarded as
 * too short. A d_ccall whose condition was false records as a
 * DiseCallGuard and the recording goes on.
 *
 * Execution: runTraced() dispatches cached traces while they keep
 * applying. Every op retires exactly the counters and monitor
 * callbacks the interpreter would produce; any failed assumption
 * (branch direction, jump target, a guarded d_ccall whose condition is
 * now set, recorded-code write, recorded debugger event, budget)
 * restores interpreter state at an op boundary and side-exits. A guard
 * exits before its d_ccall, so the interpreter re-delivers the call and
 * runs the handler. The restore is exact — raw-op boundaries set the
 * architectural PC, in-expansion boundaries rebuild the full expansion
 * context from the trace's side table — so record-mode digests are
 * bit-identical with the cache on or off.
 */

#include "common/logging.hh"
#include "cpu/alu.hh"
#include "cpu/inst_stream.hh"
#include "jit/trace_cache.hh"

namespace dise {

void
InstStream::jitAfterOp(const MicroOp &op)
{
    TraceCache &jit = *env_.jit;
    if (!jit.config().enabled) {
        if (jitRec_.active)
            jitRec_ = JitRec{};
        return;
    }
    if (jitRec_.active) {
        jitRecordOp(op);
        return;
    }
    // Hotness profiling: taken backward transfers out of raw ops mark
    // loop heads. (A raw op can never leave the stream mid-expansion.)
    if (!op.fromExpansion && !op.inHandler && op.isCtrl && op.taken &&
        op.target <= op.pc && !halted_) {
        uint64_t tv = engine_ ? engine_->tableVersion() : 0;
        if (jit.noteBackEdge(op.target, tv))
            jitStartRecording(op.target);
    }
}

void
InstStream::jitStartRecording(Addr startPc)
{
    jitRec_.active = true;
    jitRec_.trace = std::make_shared<Trace>();
    jitRec_.trace->startPc = startPc;
    jitRec_.trace->tableVersion = engine_ ? engine_->tableVersion() : 0;
    jitRec_.trace->ops.reserve(TraceMaxOps);
    jitRec_.lastBoundaryOps = 0;
    jitRec_.lastBoundaryPc = startPc;
    jitRec_.lastExpId = 0;
}

void
InstStream::jitRecordOp(const MicroOp &op)
{
    Trace &t = *jitRec_.trace;

    // Ops a trace cannot carry finalize the recording at the last
    // raw-op boundary (or discard it when still too short). A not-taken
    // d_ccall stays: it becomes a guard.
    const Format fmt = op.inst.info().fmt;
    bool hostile =
        op.isHalt || halted_ || op.inHandler || inHandler_ ||
        (fmt == Format::System && op.inst.op == Opcode::SYSCALL) ||
        (fmt == Format::DiseCall && op.taken) || fmt == Format::DiseMove ||
        // Conventional control taken inside a replacement sequence
        // aborts the expansion mid-flight; not worth modelling.
        (op.fromExpansion && op.isCtrl && op.taken &&
         (fmt == Format::Branch || fmt == Format::Jump));
    // Monitored ops need the event counter to make debugger events
    // observable to the executor; without it they stay interpreted.
    if (!hostile && env_.monitor && !env_.events) {
        bool stmtSite = !op.fromExpansion && !op.inHandler &&
                        env_.stmtTraps && env_.stmtTraps->count(op.pc);
        hostile = stmtSite || fmt == Format::Ctrap ||
                  (fmt == Format::System && op.inst.op == Opcode::TRAP) ||
                  (env_.monitorStores && op.inst.isStore());
    }
    if (hostile) {
        jitFinalize(false);
        return;
    }

    TraceOp to;
    to.inst = op.inst;
    to.pc = op.pc;
    to.disepc = op.disepc;
    to.isApp = op.isAppInst();
    to.isTriggerCopy = op.isTriggerCopy;
    to.isAppLoad = to.isApp && op.inst.isLoad();
    to.isAppStore = to.isApp && op.inst.isStore();
    to.stmtSite = !op.fromExpansion && env_.monitor && env_.stmtTraps &&
                  env_.stmtTraps->count(op.pc);

    if (op.fromExpansion) {
        if (jitRec_.lastExpId != expId_) {
            // First op recorded from this expansion instance: capture
            // the side-exit context. The stream members still hold it
            // even if the expansion just finished.
            TraceExpCtx cx;
            cx.slot = curSlot_;
            cx.trigger = trigger_;
            cx.trigPc = trigPc_;
            cx.nextPc = seqNextPc_;
            cx.seq = seq_;
            t.ctxs.push_back(std::move(cx));
            jitRec_.lastExpId = expId_;
        }
        to.expCtx = static_cast<int16_t>(t.ctxs.size() - 1);
    }

    switch (fmt) {
      case Format::Operate:
        to.kind = TraceOpKind::AluReg;
        break;
      case Format::OperateImm:
        to.kind = TraceOpKind::AluImm;
        break;
      case Format::Memory:
        if (op.inst.op == Opcode::LDA)
            to.kind = TraceOpKind::Lda;
        else if (op.inst.op == Opcode::LDAH)
            to.kind = TraceOpKind::Ldah;
        else if (op.inst.isLoad())
            to.kind = TraceOpKind::Load;
        else
            to.kind = TraceOpKind::Store;
        break;
      case Format::Branch:
        to.kind = TraceOpKind::CondBranch;
        to.expectTaken = op.taken;
        break;
      case Format::Jump:
        to.kind = TraceOpKind::Jump;
        to.expectTaken = true;
        to.expectTarget = op.target;
        break;
      case Format::System:
        // SYSCALL was filtered above; TRAP executes in-trace, an
        // unmatched CODEWORD is a nop.
        to.kind = op.inst.op == Opcode::TRAP ? TraceOpKind::Trap
                                             : TraceOpKind::Nop;
        break;
      case Format::Ctrap:
        to.kind = TraceOpKind::Ctrap;
        // Informational (suppression eligibility); execution always
        // recomputes the condition.
        to.expectTaken = op.flush == FlushClass::Serialize;
        break;
      case Format::Nullary:
        to.kind = TraceOpKind::Nop; // HALT/D_RET filtered above
        break;
      case Format::DiseBranch:
        to.kind = TraceOpKind::DiseBranch;
        to.expectTaken = op.taken;
        break;
      case Format::DiseCall:
        to.kind = TraceOpKind::DiseCallGuard; // taken calls filtered above
        break;
      default:
        jitFinalize(false);
        return;
    }

    t.ops.push_back(to);

    if (!expanding_ && !inHandler_ && !halted_) {
        jitRec_.lastBoundaryOps = t.ops.size();
        jitRec_.lastBoundaryPc = arch_.pc;
        if (arch_.pc == t.startPc && t.ops.size() >= TraceMinOps) {
            jitFinalize(true);
            return;
        }
    }
    if (t.ops.size() >= TraceMaxOps)
        jitFinalize(false);
}

void
InstStream::jitFinalize(bool full)
{
    JitRec rec = std::move(jitRec_);
    jitRec_ = JitRec{};
    Trace &t = *rec.trace;
    if (full) {
        t.endPc = t.startPc;
    } else {
        t.ops.resize(rec.lastBoundaryOps);
        t.endPc = rec.lastBoundaryPc;
    }
    if (t.ops.size() < TraceMinOps) {
        ++env_.jit->stats().discarded;
        return;
    }
    env_.jit->insert(std::move(rec.trace));
}

InstStream::TracedCounts
InstStream::runTraced(uint64_t maxUops, uint64_t maxAppInsts,
                      bool appStopAtBoundary)
{
    TracedCounts c;
    TraceCache *jit = env_.jit;
    if (!jit || !jit->config().enabled || halted_ || expanding_ ||
        inHandler_ || jitRec_.active)
        return c;
    // Armed tools observe every µop through the interpreter's tap;
    // traces would have to replicate the callback stream op-for-op.
    // Tool runs are not the hot path this cache serves — refuse.
    if (env_.observer && env_.observer->armed())
        return c;

    const uint64_t tv = engine_ ? engine_->tableVersion() : 0;
    for (;;) {
        if (maxUops && c.uops >= maxUops)
            break;
        if (maxAppInsts && c.appInsts >= maxAppInsts)
            break;
        TraceRef t = jit->lookup(arch_.pc, tv);
        if (!t)
            break;
        ++jit->stats().runs;
        TraceExit exit =
            execTrace(*t, c, maxUops, maxAppInsts, appStopAtBoundary);
        if (exit != TraceExit::End) {
            ++jit->stats().sideExits;
            break;
        }
    }
    jit->stats().tracedUops += c.uops;
    return c;
}

InstStream::TraceExit
InstStream::execTrace(const Trace &t, TracedCounts &c, uint64_t maxUops,
                      uint64_t maxAppInsts, bool appStopAtBoundary)
{
    TraceCache &jit = *env_.jit;
    const uint64_t epoch0 = jit.writeEpoch();
    const uint64_t *evp = env_.events;
    uint64_t evSeen = evp ? *evp : 0;
    const size_t n = t.ops.size();

    // The position *before* op j is an inter-instruction boundary when
    // j is raw or the first op of an expansion instance — at that point
    // the interpreter has not matched the trigger yet, so it sits
    // between instructions (each instance owns a distinct ctx entry,
    // making the comparison exact even for back-to-back expansions of
    // one production).
    auto boundaryBefore = [&](size_t j) {
        return t.ops[j].expCtx < 0 || j == 0 ||
               t.ops[j - 1].expCtx != t.ops[j].expCtx;
    };

    // Restore interpreter state as if the next µop to execute were
    // t.ops[j]; j == n is the natural end.
    auto exitAt = [&](size_t j) {
        if (j >= n) {
            arch_.pc = t.endPc;
            return;
        }
        const TraceOp &o = t.ops[j];
        if (o.expCtx < 0) {
            arch_.pc = o.pc;
        } else if (boundaryBefore(j)) {
            // Between instructions, trigger not yet matched: resuming
            // at the trigger PC re-matches and re-expands identically
            // (the table cannot have mutated mid-trace), and
            // atBoundary() observers see the boundary the interpreter
            // would report.
            arch_.pc = t.ctxs[o.expCtx].trigPc;
        } else {
            const TraceExpCtx &cx = t.ctxs[o.expCtx];
            expanding_ = true;
            seq_ = cx.seq;
            seqIdx_ = o.disepc - 1;
            trigger_ = cx.trigger;
            trigPc_ = cx.trigPc;
            seqNextPc_ = cx.nextPc;
            curSlot_ = cx.slot;
            arch_.pc = cx.trigPc;
        }
    };
    auto materialize = [&](const TraceOp &o, MicroOp &mop) {
        mop.inst = o.inst;
        mop.pc = o.pc;
        mop.disepc = o.disepc;
        mop.fromExpansion = o.expCtx >= 0;
        mop.isTriggerCopy = o.isTriggerCopy;
        mop.seq = seqCounter_;
    };

    for (size_t i = 0; i < n; ++i) {
        const TraceOp &o = t.ops[i];
        if (maxUops && c.uops >= maxUops) {
            exitAt(i);
            return TraceExit::Budget;
        }
        if (maxAppInsts && c.appInsts >= maxAppInsts &&
            (!appStopAtBoundary || boundaryBefore(i))) {
            // Boundary mode stops exactly where the interpreter's
            // "first boundary with the count met" discipline would —
            // checkpoint placement stays bit-identical.
            exitAt(i);
            return TraceExit::Budget;
        }

        bool fired = false;    // a monitor callback ran for this op
        bool storeRan = false; // re-check the code-write epoch after

        if (o.stmtSite && env_.monitor) {
            // Interpreter order: onStatement before the op executes
            // (watch evaluation must see pre-store memory). But a
            // failed guard must exit *without* the callback — the
            // interpreter will re-deliver it — so pre-evaluate guards
            // here; they are pure register reads and onStatement
            // mutates neither registers nor memory.
            if (o.kind == TraceOpKind::CondBranch ||
                o.kind == TraceOpKind::DiseBranch) {
                if (branchTaken(o.inst.op, arch_.read(o.inst.ra)) !=
                    o.expectTaken) {
                    exitAt(i);
                    return TraceExit::Guard;
                }
            } else if (o.kind == TraceOpKind::Jump) {
                if (arch_.read(o.inst.rb) != o.expectTarget) {
                    exitAt(i);
                    return TraceExit::Guard;
                }
            }
            env_.monitor->onStatement(o.pc);
            fired = true;
        }

        switch (o.kind) {
          case TraceOpKind::AluReg:
            arch_.write(o.inst.rc,
                        aluCompute(o.inst.op, arch_.read(o.inst.ra),
                                   arch_.read(o.inst.rb)));
            break;
          case TraceOpKind::AluImm:
            arch_.write(o.inst.rc,
                        aluCompute(o.inst.op, arch_.read(o.inst.ra),
                                   static_cast<uint64_t>(o.inst.imm) &
                                       0xff));
            break;
          case TraceOpKind::Lda:
            arch_.write(o.inst.ra, arch_.read(o.inst.rb) + o.inst.imm);
            break;
          case TraceOpKind::Ldah:
            arch_.write(o.inst.ra,
                        arch_.read(o.inst.rb) +
                            (static_cast<int64_t>(o.inst.imm) << 16));
            break;
          case TraceOpKind::Load: {
            Addr addr = arch_.read(o.inst.rb) + o.inst.imm;
            unsigned bytes = o.inst.memBytes();
            uint64_t v =
                o.inst.op == Opcode::LDL
                    ? static_cast<uint64_t>(mem_.readSigned(addr, bytes))
                    : mem_.read(addr, bytes);
            arch_.write(o.inst.ra, v);
            break;
          }
          case TraceOpKind::Store: {
            Addr addr = arch_.read(o.inst.rb) + o.inst.imm;
            unsigned bytes = o.inst.memBytes();
            if (env_.monitor && env_.monitorStores) {
                MicroOp mop{};
                materialize(o, mop);
                mop.effAddr = addr;
                mop.memBytes = bytes;
                mop.storeOld = mem_.read(addr, bytes);
                mem_.write(addr, bytes, arch_.read(o.inst.ra));
                mop.storeNew = mem_.read(addr, bytes);
                env_.monitor->onStore(mop);
                fired = true;
            } else {
                // Reads of absent pages return zero without creating
                // them, so skipping the old/new reads the interpreter
                // performs cannot diverge memory state.
                mem_.write(addr, bytes, arch_.read(o.inst.ra));
            }
            storeRan = true;
            break;
          }
          case TraceOpKind::CondBranch: {
            bool taken = branchTaken(o.inst.op, arch_.read(o.inst.ra));
            if (taken != o.expectTaken) {
                exitAt(i);
                return TraceExit::Guard;
            }
            if (o.inst.op == Opcode::BSR)
                arch_.write(o.inst.ra, o.pc + 4);
            break;
          }
          case TraceOpKind::Jump: {
            Addr target = arch_.read(o.inst.rb);
            if (target != o.expectTarget) {
                exitAt(i);
                return TraceExit::Guard;
            }
            if (o.inst.op == Opcode::JSR)
                arch_.write(o.inst.ra, o.pc + 4);
            break;
          }
          case TraceOpKind::DiseBranch: {
            bool taken = branchTaken(o.inst.op, arch_.read(o.inst.ra));
            if (taken != o.expectTaken) {
                exitAt(i);
                return TraceExit::Guard;
            }
            break;
          }
          case TraceOpKind::Ctrap:
            if (arch_.read(o.inst.ra) != 0 && env_.monitor) {
                MicroOp mop{};
                materialize(o, mop);
                env_.monitor->onTrap(mop);
                fired = true;
            }
            break;
          case TraceOpKind::Trap:
            if (env_.monitor) {
                MicroOp mop{};
                materialize(o, mop);
                env_.monitor->onTrap(mop);
                fired = true;
            }
            break;
          case TraceOpKind::DiseCallGuard:
            if (arch_.read(o.inst.ra) != 0) {
                // The call is taken this time: leave before it, and
                // the interpreter calls the handler.
                exitAt(i);
                return TraceExit::Guard;
            }
            break;
          case TraceOpKind::Nop:
            break;
          case TraceOpKind::Suppressed:
            // Build-time proof: the registers already hold exactly the
            // values this op would compute. Retire counters only.
            ++jit.stats().suppressedExecs;
            break;
        }

        ++c.uops;
        ++seqCounter_;
        if (o.isApp) {
            ++c.appInsts;
            if (o.isAppLoad)
                ++c.appLoads;
            if (o.isAppStore)
                ++c.appStores;
        }

        if (fired && evp && *evp != evSeen) {
            // A debugger event was recorded at this µop: exit after it
            // so the caller pins the event at the exact time the
            // interpreter would have.
            exitAt(i + 1);
            return TraceExit::Event;
        }
        if (storeRan && jit.writeEpoch() != epoch0) {
            // The store hit recorded code (possibly this trace's own
            // body, already evicted under us — the shared_ptr keeps
            // the ops alive). The remainder is stale.
            exitAt(i + 1);
            return TraceExit::Guard;
        }
    }
    arch_.pc = t.endPc;
    return TraceExit::End;
}

} // namespace dise
