#include "replay/time_travel.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "debug/target.hh"
#include "obs/trace.hh"

namespace dise {

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Start: return "start-of-history";
      case StopReason::Event: return "event";
      case StopReason::Step: return "step";
      case StopReason::Halted: return "halted";
      case StopReason::Fault: return "fault";
      case StopReason::InstLimit: return "inst-limit";
    }
    return "?";
}

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Watch: return "watch";
      case EventKind::Break: return "break";
      case EventKind::Protection: return "protection";
    }
    return "?";
}

std::string
StopInfo::describe() const
{
    std::ostringstream os;
    os << "stopped: " << stopReasonName(reason);
    if (reason == StopReason::Event && eventIndex >= 0)
        os << " #" << eventIndex << " (" << eventKindName(mark.kind)
           << " " << mark.index << ")";
    os << " at pc=0x" << std::hex << pc << std::dec << ", t=" << time
       << ", " << appInsts << " insts";
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, StopReason reason)
{
    return os << stopReasonName(reason);
}

std::ostream &
operator<<(std::ostream &os, const StopInfo &stop)
{
    return os << stop.describe();
}

TimeTravel::TimeTravel(DebugTarget &target, DebugBackend &backend,
                       ReplayLog &log, TimeTravelConfig cfg)
    : target_(target), backend_(backend), log_(log), cfg_(cfg)
{
    DISE_ASSERT(target_.loaded(),
                "TimeTravel requires a loaded target (attach first)");
    DISE_ASSERT(cfg_.checkpointInterval > 0, "zero checkpoint interval");
    target_.mem.beginUndoLog();
    takeCheckpoint(); // time-zero checkpoint anchors the timeline
}

TimeTravel::TimeTravel(DebugTarget &target, DebugBackend &backend,
                       ReplayLog &log, const Checkpoint &start,
                       TimeTravelConfig cfg)
    : target_(target), backend_(backend), log_(log), cfg_(cfg)
{
    DISE_ASSERT(target_.loaded(), "TimeTravel requires a loaded target");
    DISE_ASSERT(cfg_.checkpointInterval > 0, "zero checkpoint interval");
    // Pokes before the checkpoint are already in the materialized image
    // and its registers. Engine-table mutations and tool enables are
    // host state the checkpoint does not carry: re-apply them before
    // resumeAt(), whose restoreHost refills the re-enabled tools.
    std::vector<Intervention> &ivs = log_.interventions;
    for (; nextIntervention_ < ivs.size() &&
           ivs[nextIntervention_].time < start.time;
         ++nextIntervention_) {
        Intervention &iv = ivs[nextIntervention_];
        if (iv.kind != InterventionKind::PokeMemory &&
            iv.kind != InterventionKind::PokeRegister)
            applyIntervention(iv);
    }
    resumeAt(start);
    // A replica only seeks forward: it anchors its timeline at the
    // start checkpoint and keeps no history past it (no undo log, no
    // further checkpoints).
    takeCheckpoint();
    keepsHistory_ = false;
    nextCheckpointAt_ = ~uint64_t{0};
}

TimeTravel::~TimeTravel()
{
    target_.mem.endUndoLog();
}

bool
TimeTravel::atBoundary() const
{
    // A fresh (or just-restored) stream is between instructions by
    // construction; otherwise we must not be mid-expansion or inside a
    // DISE-called function, so a checkpoint can re-enter cleanly.
    return !stream_ || (!stream_->inExpansion() && !stream_->inHandler());
}

void
TimeTravel::ensureStream()
{
    if (!stream_)
        stream_ = std::make_unique<InstStream>(
            target_.arch, target_.mem, &target_.engine,
            backend_.streamEnv(target_));
}

/**
 * Execute one micro-op and pin any events it fired to the timeline.
 * Newly discovered events extend the mark list; during replay the
 * re-fired events are verified against the recorded marks — any
 * divergence means determinism was broken.
 */
bool
TimeTravel::stepUop(bool &firedEvent)
{
    firedEvent = false;
    if (halted_)
        return false;
    ensureStream();

    // Reused scratch op: a local `MicroOp op` would zero-initialize
    // ~sizeof(MicroOp) bytes on every call *in addition to* the value
    // re-initialization next() performs internally; measured at
    // roughly the whole remaining record-mode overhead.
    MicroOp &op = scratchOp_;
    if (!stream_->next(op)) {
        halted_ = true;
        haltReason_ = stream_->haltReason();
        return false;
    }
    ++time_;
    ++stats_.uops;
    if (op.isAppInst())
        ++appInsts_;
    if (op.isHalt) {
        halted_ = true;
        haltReason_ = op.haltReason;
    }

    pollEvents(firedEvent);
    return true;
}

void
TimeTravel::pollEvents(bool &firedEvent)
{
    // Record-mode fast path: detection is batched behind the backend's
    // monotonic event counter, so the common no-event µop pays one
    // integer compare instead of three list polls.
    if (backend_.eventsRecorded() == seenRecorded_)
        return;
    seenRecorded_ = backend_.eventsRecorded();

    auto noteEvents = [&](EventKind kind, size_t &seen, size_t now,
                          auto pcOf) {
        for (; seen < now; ++seen) {
            EventMark mark{kind, static_cast<int>(seen), time_,
                           appInsts_, pcOf(seen)};
            if (curEvents_ == log_.marks.size()) {
                DISE_ASSERT(!travel_.replay,
                            "replay fired an event past the end of the "
                            "recorded timeline at t=", time_);
                log_.marks.push_back(mark);
            } else {
                const EventMark &rec = log_.marks[curEvents_];
                DISE_ASSERT(rec.kind == mark.kind &&
                                rec.index == mark.index &&
                                rec.time == mark.time &&
                                rec.pc == mark.pc,
                            "deterministic replay diverged from the "
                            "recorded event timeline at t=", time_);
            }
            ++curEvents_;
            firedEvent = true;
        }
    };
    noteEvents(EventKind::Watch, seenWatch_,
               backend_.watchEvents().size(),
               [&](size_t i) { return backend_.watchEvents()[i].pc; });
    noteEvents(EventKind::Break, seenBreak_,
               backend_.breakEvents().size(),
               [&](size_t i) { return backend_.breakEvents()[i].pc; });
    noteEvents(EventKind::Protection, seenProt_,
               backend_.protectionEvents().size(), [&](size_t i) {
                   return backend_.protectionEvents()[i].pc;
               });
}

uint64_t
TimeTravel::bulkStep(uint64_t stopTime, uint64_t stopAppInsts,
                     bool &firedEvent)
{
    firedEvent = false;
    if (halted_)
        return 0;
    ensureStream();

    // Absolute µop positions execution must not cross: the travel
    // target and the next logged intervention (callers run
    // replayPendingInterventions() first, so a pending one is strictly
    // in the future — if not, defer to the per-µop path).
    uint64_t maxUops = 0;
    auto capTime = [&](uint64_t absTime) {
        if (absTime <= time_)
            return false;
        uint64_t left = absTime - time_;
        if (!maxUops || left < maxUops)
            maxUops = left;
        return true;
    };
    if (stopTime && !capTime(stopTime))
        return 0;
    if (nextIntervention_ < log_.interventions.size() &&
        !capTime(log_.interventions[nextIntervention_].time))
        return 0;

    // Absolute app-instruction caps, tightest wins. nextCheckpointAt_
    // keeps checkpoint placement bit-identical to per-µop stepping:
    // the trace executor stops at exactly the boundary maybeCheckpoint
    // would fire on.
    uint64_t maxApp = nextCheckpointAt_;
    if (cfg_.maxAppInsts && cfg_.maxAppInsts < maxApp)
        maxApp = cfg_.maxAppInsts;
    if (stopAppInsts && stopAppInsts < maxApp)
        maxApp = stopAppInsts;
    if (maxApp <= appInsts_)
        return 0;

    InstStream::TracedCounts c = stream_->runTraced(
        maxUops, maxApp - appInsts_, /*appStopAtBoundary=*/true);
    if (!c.uops)
        return 0;
    time_ += c.uops;
    appInsts_ += c.appInsts;
    stats_.uops += c.uops;
    // An event exit retires the firing µop and stops immediately after
    // it, so the mark lands at the identical time_/appInsts_ a
    // stepUop-by-stepUop run would record.
    pollEvents(firedEvent);
    return c.uops;
}

void
TimeTravel::takeCheckpoint()
{
    TRACE_SPAN("travel", "travel.checkpoint");
    Checkpoint cp;
    cp.time = time_;
    cp.appInsts = appInsts_;
    cp.arch = target_.arch;
    cp.host = backend_.snapshotHost();
    cp.sinkText = target_.sink.text.size();
    cp.sinkMarks = target_.sink.marks.size();
    if (!cps_.empty()) {
        // Seal the interval since the previous checkpoint: those
        // pre-images are what roll the memory image back to it.
        UndoLog sealed = target_.mem.sealUndoInterval();
        stats_.pagesCopied += sealed.pages;
        stats_.bytesCopied += sealed.bytes();
        sealedBytes_ += sealed.bytes();
        cps_.back().undo = std::move(sealed);
    }
    cps_.push_back(std::move(cp));
    ++stats_.checkpointsTaken;
    nextCheckpointAt_ = appInsts_ + cfg_.checkpointInterval;
}

void
TimeTravel::maybeCheckpoint()
{
    if (appInsts_ < nextCheckpointAt_) // the per-µop fast path
        return;
    if (!halted_ && atBoundary())
        takeCheckpoint();
}

uint64_t
TimeTravel::historyBytes() const
{
    return sealedBytes_ + target_.mem.pendingUndo().bytes();
}

size_t
TimeTravel::checkpointAtOrBefore(uint64_t time) const
{
    size_t idx = cps_.size() - 1;
    while (idx > 0 && cps_[idx].time > time)
        --idx;
    return idx;
}

void
TimeTravel::restoreTo(size_t cpIdx)
{
    TRACE_SPAN("travel", "travel.restore");
    DISE_ASSERT(keepsHistory_, "a timeline started at a checkpoint "
                               "cannot travel back");
    MainMemory &mem = target_.mem;
    ++stats_.restores;

    // Roll memory back interval by interval, newest first: the open
    // interval takes us to the newest checkpoint, then each stored
    // interval takes us one checkpoint further into the past.
    UndoLog open = mem.sealUndoInterval();
    stats_.pagesRestored += open.pages;
    mem.applyUndo(open);
    for (size_t i = cps_.size() - 1; i > cpIdx; --i) {
        const UndoLog &u = cps_[i - 1].undo;
        stats_.pagesRestored += u.pages;
        sealedBytes_ -= u.bytes();
        mem.applyUndo(u);
    }

    // Unwind debugger interventions the rollback crossed, newest
    // first. (Memory and register effects were covered by the undo log
    // and the register snapshot; this reverts engine-table mutations.)
    const Checkpoint &cp = cps_[cpIdx];
    while (nextIntervention_ > 0 &&
           log_.interventions[nextIntervention_ - 1].time >= cp.time)
        unwindIntervention(log_.interventions[--nextIntervention_]);

    resumeAt(cp);

    // This checkpoint's interval was consumed; it is the open interval
    // now. Checkpoints past it describe a future we just left.
    cps_.resize(cpIdx + 1);
    cps_.back().undo = {};
    nextCheckpointAt_ = cps_.back().appInsts + cfg_.checkpointInterval;
}

void
TimeTravel::resumeAt(const Checkpoint &cp)
{
    target_.arch = cp.arch;
    backend_.restoreHost(cp.host);
    target_.sink.text.resize(cp.sinkText);
    target_.sink.marks.resize(cp.sinkMarks);

    // No stale fetch/decode/match state may survive the restore: drop
    // the stream (and with it the predecoded µop cache), advance the
    // engine generation, and flush the memory page-pointer caches.
    stream_.reset();
    target_.engine.invalidateMatchCaches();
    target_.mem.invalidatePagePointerCaches();

    time_ = cp.time;
    appInsts_ = cp.appInsts;
    halted_ = false;
    haltReason_ = HaltReason::None;
    seenWatch_ = cp.host.watchEvents;
    seenBreak_ = cp.host.breakEvents;
    seenProt_ = cp.host.protectionEvents;
    curEvents_ = seenWatch_ + seenBreak_ + seenProt_;
    seenRecorded_ = backend_.eventsRecorded();
}

StopInfo
TimeTravel::stopHere(StopReason reason, int eventIndex)
{
    StopInfo s;
    s.reason = reason;
    s.eventIndex = eventIndex;
    if (eventIndex >= 0 &&
        static_cast<size_t>(eventIndex) < log_.marks.size())
        s.mark = log_.marks[eventIndex];
    s.time = time_;
    s.appInsts = appInsts_;
    s.pc = target_.arch.pc;
    return s;
}

void
TimeTravel::replayPendingInterventions()
{
    while (nextIntervention_ < log_.interventions.size() &&
           log_.interventions[nextIntervention_].time == time_)
        applyIntervention(log_.interventions[nextIntervention_++]);
}

StopInfo
TimeTravel::travel(TravelVerb verb, uint64_t count)
{
    bool done = false;
    StopInfo s = travelBegin(verb, count, done);
    while (!done)
        s = travelStep(0, done);
    return s;
}

// -------------------------------------------------------------- travel

void
TimeTravel::replayToTime(uint64_t targetTime, int eventIndex,
                         StopReason reach)
{
    travel_.replay = true;
    travel_.byTime = true;
    travel_.targetTime = targetTime;
    travel_.eventIndex = eventIndex;
    travel_.reachReason = reach;
}

StopInfo
TimeTravel::travelBegin(TravelVerb verb, uint64_t count, bool &done)
{
    travel_ = TravelState{};
    switch (verb) {
      case TravelVerb::Cont:
        travel_.stopOnEvent = true;
        travel_.targetInsts = count;
        break;
      case TravelVerb::Stepi:
        travel_.targetInsts = appInsts_ + count;
        break;
      case TravelVerb::RunToEnd:
        break;
      case TravelVerb::ReverseContinue: {
        int target = static_cast<int>(curEvents_) - 1;
        // Stopped exactly on an event: travel to the one before it —
        // past ALL marks at the current position, since one micro-op
        // can fire several events at once (e.g. overlapping
        // watchpoints) and re-landing on the same position would make
        // no progress.
        while (target >= 0 && log_.marks[target].time == time_)
            --target;
        replayToTime(target < 0 ? 0 : log_.marks[target].time, target,
                     target < 0 ? StopReason::Start : StopReason::Event);
        break;
      }
      case TravelVerb::ReverseStep:
        travel_.replay = true;
        travel_.targetInsts = count >= appInsts_ ? 0 : appInsts_ - count;
        break;
      case TravelVerb::RunToEvent:
        if (count < log_.marks.size()) {
            replayToTime(log_.marks[count].time, static_cast<int>(count),
                         StopReason::Event);
        } else {
            // Forward discovery toward global event #count; known
            // marks crossed on the way are verified as usual.
            travel_.stopOnEvent = true;
            travel_.eventGoal = count;
        }
        break;
      case TravelVerb::Seek:
        replayToTime(count, -1, StopReason::Step);
        break;
    }
    travel_.active = true;
    done = false;
    if (!travel_.replay)
        return stopHere(StopReason::Step);

    // The restore is the cheap part (cost ∝ pages dirtied since the
    // target checkpoint); the replay that follows is what travelStep
    // meters out in quanta.
    if (travel_.byTime && travel_.targetTime < time_) {
        restoreTo(checkpointAtOrBefore(travel_.targetTime));
    } else if (!travel_.byTime && travel_.targetInsts < appInsts_) {
        size_t idx = cps_.size() - 1;
        while (idx > 0 && cps_[idx].appInsts > travel_.targetInsts)
            --idx;
        restoreTo(idx);
    }
    // The restore may land exactly on the goal (it often does for
    // reverse-continue: the target event sits at a checkpoint).
    return replayArrived() ? replayFinish(done) : stopHere(StopReason::Step);
}

/** A replay goal is reached at its µop position, or (reverse-step) at
 *  the first instruction boundary at or past its target. */
bool
TimeTravel::replayArrived() const
{
    if (travel_.byTime)
        return time_ >= travel_.targetTime;
    return halted_ || (appInsts_ >= travel_.targetInsts && atBoundary());
}

/**
 * The one execution loop. Forward goals discover (or re-verify) the
 * timeline µop by µop and stop on events, halts, faults, the
 * instruction cap, or their instruction target; a quantum expires at
 * an instruction boundary. Replay goals re-execute the explored
 * timeline to a µop position or an instruction boundary and may pause
 * mid-instruction. Each pass first applies the interventions stamped
 * at the current position, so every goal lands with them applied.
 */
StopInfo
TimeTravel::travelStep(uint64_t maxAppInsts, bool &done)
{
    DISE_ASSERT(travel_.active, "travelStep() without an active travel");
    TRACE_SPAN("travel", travel_.replay ? "travel.replay" : "travel.run");
    done = false;
    const TravelState &g = travel_;
    uint64_t budgetEnd = maxAppInsts ? appInsts_ + maxAppInsts : 0;
    // Absolute app-instruction cap for bulk execution (0 = none).
    uint64_t stopApp = g.byTime ? 0 : g.targetInsts;
    if (budgetEnd && (!stopApp || budgetEnd < stopApp))
        stopApp = budgetEnd;

    bool fired = false;
    for (;;) {
        replayPendingInterventions();
        // Discovery toward a specific event runs past earlier ones.
        if (fired && g.stopOnEvent &&
            (g.eventGoal == NoEventGoal || curEvents_ - 1 == g.eventGoal))
            return stopFinal(StopReason::Event, done,
                             static_cast<int>(curEvents_) - 1);
        if (g.replay) {
            if (replayArrived())
                return replayFinish(done);
            DISE_ASSERT(!halted_, "replay fell short of its target "
                                  "position (halted at t=", time_,
                        ", wanted t=", g.targetTime, ")");
            if (budgetEnd && appInsts_ >= budgetEnd)
                return stopHere(StopReason::Step); // quantum expired
        } else {
            if (halted_)
                return stopFinal(haltReason_ == HaltReason::Fault
                                     ? StopReason::Fault
                                     : StopReason::Halted,
                                 done);
            if (cfg_.maxAppInsts && appInsts_ >= cfg_.maxAppInsts)
                return stopFinal(StopReason::InstLimit, done);
            if (stopApp && appInsts_ >= stopApp && atBoundary()) {
                if (g.targetInsts && appInsts_ >= g.targetInsts)
                    return stopFinal(StopReason::Step, done);
                return stopHere(StopReason::Step); // quantum expired
            }
        }

        uint64_t n = bulkStep(g.byTime ? g.targetTime : 0, stopApp, fired);
        if (!n && stepUop(fired))
            n = 1;
        if (g.replay)
            stats_.replayedUops += n; // 0 once halted: see the loop top
        maybeCheckpoint();
    }
}

/** Close out the active travel with a stop built here. */
StopInfo
TimeTravel::stopFinal(StopReason reason, bool &done, int eventIndex)
{
    done = true;
    travel_.active = false;
    return stopHere(reason, eventIndex);
}

/** Close out a reached replay goal at the position it aimed for. */
StopInfo
TimeTravel::replayFinish(bool &done)
{
    replayPendingInterventions();
    DISE_ASSERT(!travel_.byTime || time_ == travel_.targetTime,
                "replay overshot its target position (at t=", time_,
                ", wanted t=", travel_.targetTime, ")");
    return stopFinal(travel_.reachReason, done, travel_.eventIndex);
}

uint64_t
TimeTravel::digest() const
{
    return stateDigest(target_, backend_);
}

void
TimeTravel::applyIntervention(Intervention &iv)
{
    switch (iv.kind) {
      case InterventionKind::PokeMemory:
        // Goes through the normal write path, so the undo log captures
        // the pre-image like any target store. The watches it overlaps
        // take the new bytes: the program's next store reports them as
        // the old value.
        target_.mem.write(iv.addr, iv.size, iv.value);
        backend_.onPoke(target_, iv.addr, iv.size);
        break;
      case InterventionKind::PokeRegister:
        target_.arch.write(iv.reg, iv.value);
        break;
      case InterventionKind::AddProduction:
        // The engine assigns a fresh id on every (re)application; keep
        // the record pointing at the live one.
        iv.engineId = target_.engine.addProduction(iv.production);
        break;
      case InterventionKind::RemoveProduction: {
        // An in-session production is found through its AddProduction
        // record; a pre-session one, once removed, by the table slot it
        // held (engine ids are fresh on every re-install and on every
        // replica).
        ProductionId id = iv.addIndex >= 0
                              ? log_.interventions[iv.addIndex].engineId
                          : iv.slot >= 0 ? target_.engine.idAt(iv.slot)
                                         : iv.engineId;
        DISE_ASSERT(id, "replay cannot re-target a logged production "
                        "removal");
        iv.engineId = id;
        iv.slot = target_.engine.slotOf(id);
        target_.engine.removeProduction(id);
        break;
      }
      case InterventionKind::ToolEnable: {
        // Fresh tool state; forward replay re-derives it µop by µop.
        // First-free slot insertion is deterministic given the same
        // table history, but record the slots anyway for journal
        // round-trips and exact-slot unwinds.
        std::vector<int> slots;
        std::string terr;
        bool ok = backend_.tools().enable(
            target_, iv.toolName, iv.toolConfig,
            backend_.usesDiseProductions(), &terr, &slots);
        DISE_ASSERT(ok, "tool-enable replay failed: ", terr);
        iv.toolSlots = std::move(slots);
        break;
      }
      case InterventionKind::ToolDisable: {
        // Remember the slots the tool's productions held so unwinding
        // this disable can re-install into exactly those slots.
        iv.toolSlots = backend_.tools().installedSlots(iv.toolName);
        std::string terr;
        bool ok = backend_.tools().disable(target_, iv.toolName, &terr);
        DISE_ASSERT(ok, "tool-disable replay failed: ", terr);
        break;
      }
    }
}

void
TimeTravel::unwindIntervention(Intervention &iv)
{
    switch (iv.kind) {
      case InterventionKind::PokeMemory:
      case InterventionKind::PokeRegister:
        // Covered by the memory undo log / register snapshot.
        break;
      case InterventionKind::AddProduction:
        target_.engine.removeProduction(iv.engineId);
        break;
      case InterventionKind::RemoveProduction: {
        // Back into its original slot: first-free insertion would
        // reorder the table and flip equal-specificity match ties.
        ProductionId id =
            target_.engine.addProductionAt(iv.production, iv.slot);
        iv.engineId = id;
        if (iv.addIndex >= 0)
            log_.interventions[iv.addIndex].engineId = id;
        break;
      }
      case InterventionKind::ToolEnable: {
        // Crossing back over the enable: the tool ceases to exist at
        // this position (the checkpoint restore that follows carries
        // no blob for it either).
        std::string terr;
        bool ok = backend_.tools().disable(target_, iv.toolName, &terr);
        DISE_ASSERT(ok, "tool-enable unwind failed: ", terr);
        break;
      }
      case InterventionKind::ToolDisable: {
        // Re-enable into the exact slots recorded at disable time; the
        // checkpoint restore that follows refills the tool's state.
        std::string terr;
        bool ok = backend_.tools().enable(
            target_, iv.toolName, iv.toolConfig,
            backend_.usesDiseProductions(), &terr, nullptr,
            &iv.toolSlots);
        DISE_ASSERT(ok, "tool-disable unwind failed: ", terr);
        break;
      }
    }
}

void
TimeTravel::recordIntervention(Intervention iv)
{
    // Between instructions is always fine. Mid-expansion is allowed
    // only while parked exactly on an event stop — the position a gdb
    // sits at when it writes memory at a watchpoint hit. The record
    // keeps the exact µop time (same-machinery replay re-applies it
    // there, preserving determinism) and flags the park so a machinery
    // rebuild can re-apply it at the re-found event instead.
    bool parked = !atBoundary() && curEvents_ > 0 &&
                  curEvents_ <= log_.marks.size() &&
                  log_.marks[curEvents_ - 1].time == time_;
    DISE_ASSERT(atBoundary() || parked,
                "interventions are only valid between instructions or "
                "parked at an event stop");
    iv.atEventPark = parked;
    // Intervening forks the timeline: the already-explored future can
    // no longer happen.
    log_.truncateAfter(time_);
    DISE_ASSERT(nextIntervention_ == log_.interventions.size(),
                "stale pending interventions survived a timeline fork");
    iv.time = time_;
    iv.appInsts = appInsts_;
    applyIntervention(iv);
    log_.interventions.push_back(std::move(iv));
    nextIntervention_ = log_.interventions.size();
}

void
TimeTravel::pokeMemory(Addr addr, unsigned size, uint64_t value)
{
    Intervention iv;
    iv.kind = InterventionKind::PokeMemory;
    iv.addr = addr;
    iv.size = size;
    iv.value = value;
    recordIntervention(std::move(iv));
}

void
TimeTravel::pokeRegister(RegId r, uint64_t value)
{
    Intervention iv;
    iv.kind = InterventionKind::PokeRegister;
    iv.reg = r;
    iv.value = value;
    recordIntervention(std::move(iv));
}

ProductionId
TimeTravel::addProduction(const Production &p)
{
    Intervention iv;
    iv.kind = InterventionKind::AddProduction;
    iv.production = p;
    recordIntervention(std::move(iv));
    return log_.interventions.back().engineId;
}

void
TimeTravel::removeProduction(ProductionId id)
{
    Intervention iv;
    iv.kind = InterventionKind::RemoveProduction;
    iv.engineId = id;
    const Production *p = target_.engine.production(id);
    DISE_ASSERT(p, "removeProduction: unknown production id ", id);
    iv.production = *p;
    for (size_t i = 0; i < log_.interventions.size(); ++i) {
        const Intervention &other = log_.interventions[i];
        if (other.kind == InterventionKind::AddProduction &&
            other.engineId == id) {
            iv.addIndex = static_cast<int>(i);
            break;
        }
    }
    recordIntervention(std::move(iv));
}

bool
TimeTravel::enableTool(const std::string &name,
                       const tools::ToolSet::Config &cfg,
                       std::string *err)
{
    // Validate before touching the timeline: recordIntervention forks
    // (truncates) the explored future, which a refused enable must not.
    if (!backend_.tools().canEnable(target_, name, cfg,
                                    backend_.usesDiseProductions(), err))
        return false;
    Intervention iv;
    iv.kind = InterventionKind::ToolEnable;
    iv.toolName = name;
    iv.toolConfig = cfg;
    recordIntervention(std::move(iv));
    return true;
}

bool
TimeTravel::disableTool(const std::string &name, std::string *err)
{
    if (!backend_.tools().isEnabled(name)) {
        if (err)
            *err = "tool '" + name + "' is not enabled";
        return false;
    }
    Intervention iv;
    iv.kind = InterventionKind::ToolDisable;
    iv.toolName = name;
    // Carry the config so unwinding the disable can re-enable.
    for (const Intervention &other : log_.interventions)
        if (other.kind == InterventionKind::ToolEnable &&
            other.toolName == name)
            iv.toolConfig = other.toolConfig;
    recordIntervention(std::move(iv));
    return true;
}

} // namespace dise
