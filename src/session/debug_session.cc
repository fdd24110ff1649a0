#include "session/debug_session.hh"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "replay/checkpoint.hh"

namespace dise {

namespace {

bool
sameWatch(const WatchSpec &a, const WatchSpec &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.size == b.size &&
           a.length == b.length && a.conditional == b.conditional &&
           a.predConst == b.predConst;
}

bool
sameBreak(const BreakSpec &a, const BreakSpec &b)
{
    return a.pc == b.pc && a.conditional == b.conditional &&
           a.condAddr == b.condAddr && a.condSize == b.condSize &&
           a.condConst == b.condConst;
}

/** The stable session index of a backend-installed spec index. */
int
ownerOf(const std::vector<int> &installed, int i)
{
    return i >= 0 && static_cast<size_t>(i) < installed.size() ? installed[i]
                                                               : i;
}

} // namespace

DebugSession::DebugSession(Program program, SessionOptions opts)
    : program_(std::move(program)), opts_(std::move(opts))
{
}

DebugSession::~DebugSession() = default;

// ------------------------------------------------------- configuration

bool
DebugSession::selectBackend(BackendKind kind)
{
    if (attached())
        return false;
    opts_.debugger.backend = kind;
    return true;
}

int
DebugSession::setWatch(const WatchSpec &spec)
{
    Request req;
    req.kind = RequestKind::SetWatch;
    req.watch = spec;
    Response resp = run(req);
    return resp.ok() ? static_cast<int>(resp.index) : -1;
}

int
DebugSession::setBreak(const BreakSpec &spec)
{
    Request req;
    req.kind = RequestKind::SetBreak;
    req.brk = spec;
    Response resp = run(req);
    return resp.ok() ? static_cast<int>(resp.index) : -1;
}

bool
DebugSession::removeWatch(int index)
{
    if (index < 0 || static_cast<size_t>(index) >= pendingWatches_.size())
        return false;
    // Removal mutes in every phase (never erases): indices previously
    // handed to clients stay stable, and re-adding the identical spec
    // re-arms the same slot.
    mutedWatches_.insert(index);
    return true;
}

bool
DebugSession::removeBreak(int index)
{
    if (index < 0 || static_cast<size_t>(index) >= pendingBreaks_.size())
        return false;
    mutedBreaks_.insert(index);
    return true;
}

bool
DebugSession::watchMuted(int index) const
{
    return mutedWatches_.count(index) > 0;
}

// ---------------------------------------------------------- attachment

DebugTarget &
DebugSession::ensurePeekTarget()
{
    if (attached())
        return *target_;
    if (!preview_) {
        preview_ = std::make_unique<DebugTarget>(program_);
        preview_->load();
        for (const Poke &p : pendingPokes_)
            applyPoke(*preview_, p);
    }
    return *preview_;
}

void
DebugSession::applyPoke(DebugTarget &t, const Poke &p)
{
    if (!p.isReg)
        t.mem.write(p.addr, p.size, p.value);
    else if (p.reg == PcRegIndex)
        t.arch.pc = p.value;
    else
        t.arch.write(ir(p.reg), p.value);
}

/** The unmuted specs, plus the muted owner of any of @p parks (a
 *  rebuild must re-find its event). A spec removed before attach is
 *  never installed, so a deleted breakpoint cannot make a
 *  capability-limited backend (hwreg, vm) refuse the whole session. */
DebugSession::InstallSet
DebugSession::specsToInstall(const std::vector<ParkGoal> &parks) const
{
    auto pick = [&](size_t n, const std::set<int> &muted, EventKind kind) {
        std::vector<int> set;
        for (int i = 0; i < static_cast<int>(n); ++i)
            if (!muted.count(i) ||
                std::any_of(parks.begin(), parks.end(),
                            [&](const ParkGoal &g) {
                                return g.mark.kind == kind &&
                                       g.sessIdx == i;
                            }))
                set.push_back(i);
        return set;
    };
    return {pick(pendingWatches_.size(), mutedWatches_, EventKind::Watch),
            pick(pendingBreaks_.size(), mutedBreaks_, EventKind::Break)};
}

bool
DebugSession::buildMachinery(Machinery &m, const InstallSet &set)
{
    m.target = std::make_unique<DebugTarget>(program_);
    if (opts_.prepare)
        opts_.prepare(*m.target);
    m.debugger = std::make_unique<Debugger>(*m.target, opts_.debugger);
    m.installed = set;
    for (int i : set.watches)
        m.debugger->watch(pendingWatches_[i]);
    for (int i : set.breaks)
        m.debugger->breakAt(pendingBreaks_[i]);
    // Configuration-phase pokes fold into the initial state between
    // load and prime, so watchpoint shadows snapshot the poked image
    // (and they precede the time-travel session's time-zero
    // checkpoint). Kept across rebuilds: every re-attach re-applies
    // the same initial state.
    auto applyPokes = [this](DebugTarget &t) {
        for (const Poke &p : pendingPokes_)
            applyPoke(t, p);
    };
    return m.debugger->attach(applyPokes);
}

void
DebugSession::commitMachinery(Machinery &m)
{
    // Order matters: the outgoing debugger references the outgoing
    // target, so it must die first.
    debugger_ = std::move(m.debugger);
    target_ = std::move(m.target);
    installed_ = std::move(m.installed);
    preview_.reset();

    // The fresh backend has empty event lists; everything re-crossed
    // during a replay is re-announced (the queue narrates traversal).
    markCursor_ = 0;
    announcedWatch_ = announcedBreak_ = announcedProt_ = 0;
    announcedCheckpoints_ = announcedRestores_ = 0;
    announcedPagesRestored_ = 0;
    announcedHalt_ = false;

    SessionEvent ev;
    ev.kind = SessionEventKind::Attached;
    ev.pc = target_->arch.pc;
    events_.push(ev);
}

bool
DebugSession::install(const InstallSet &set)
{
    Machinery m;
    if (!buildMachinery(m, set))
        return false;
    commitMachinery(m);
    return true;
}

bool
DebugSession::attach()
{
    if (attached())
        return true;
    DISE_ASSERT(!detached_, "session already detached");
    return install(specsToInstall({}));
}

/**
 * The stable identity of a mark across a machinery rebuild:
 * session-level spec index (owner-translated — stable across
 * re-installation) plus the event's data address. (kind, pc, appInsts)
 * alone is ambiguous when a newly added spec fires on the very same
 * instruction as the park event.
 */
void
DebugSession::markDetail(const EventMark &mk, int &sessIdx,
                         Addr &addr) const
{
    const DebugBackend &backend =
        const_cast<Debugger &>(*debugger_).backend();
    sessIdx = -1;
    addr = 0;
    if (mk.index < 0)
        return;
    size_t i = static_cast<size_t>(mk.index);
    switch (mk.kind) {
      case EventKind::Watch:
        if (i < backend.watchEvents().size()) {
            const WatchEvent &we = backend.watchEvents()[i];
            sessIdx = ownerOf(installed_.watches, we.wpIndex);
            addr = we.addr;
        }
        break;
      case EventKind::Break:
        if (i < backend.breakEvents().size())
            sessIdx = ownerOf(installed_.breaks,
                              backend.breakEvents()[i].bpIndex);
        break;
      case EventKind::Protection:
        if (i < backend.protectionEvents().size())
            addr = backend.protectionEvents()[i].addr;
        break;
    }
}

/** Is @p mk an occurrence of @p g's mark identity? Matching marks only
 *  exist at the park's own instruction. */
bool
DebugSession::isParkMark(const ParkGoal &g, const EventMark &mk) const
{
    if (mk.kind != g.mark.kind || mk.pc != g.mark.pc ||
        mk.appInsts != g.mark.appInsts)
        return false;
    int si = -1;
    Addr ad = 0;
    markDetail(mk, si, ad);
    return si == g.sessIdx && ad == g.addr;
}

/**
 * Plan a post-attach rebuild-replay and perform its instantaneous
 * part: capture the current position's instrumentation-invariant
 * identity and the intervention journal, build fresh machinery with
 * the enlarged spec set, and commit it. The replay back to the
 * captured position is metered out by replayRebuild(). Returns false —
 * leaving the live session untouched — when the backend cannot
 * implement the enlarged set.
 */
bool
DebugSession::rebuildBegin()
{
    refusal_.clear();
    rebuild_ = RebuildPlan{};
    rebuild_.hadTravel = debugger_->timeTraveling();
    if (rebuild_.hadTravel) {
        TimeTravel &tt = debugger_->timeTravel();
        const ReplayLog &log = debugger_->replayLog();
        rebuild_.targetInsts = tt.appInsts();
        rebuild_.parkedAtHalt = tt.halted();
        // The park on the last mark of the µop at @p time: the mark's
        // identity plus its absolute occurrence among identical earlier
        // marks. A park sits mid-instruction (inside the detecting
        // expansion), below app-instruction resolution, so the replay
        // navigates to it by this identity.
        auto parkAt = [&](uint64_t time) {
            if (!rebuild_.parks.empty() &&
                rebuild_.parks.back().mark.time == time)
                return static_cast<int>(rebuild_.parks.size()) - 1;
            size_t mi = log.marks.size();
            for (size_t i = 0; i < log.marks.size(); ++i)
                if (log.marks[i].time == time)
                    mi = i;
            DISE_ASSERT(mi < log.marks.size(), "event park at t=", time,
                        " has no event mark");
            ParkGoal g;
            g.mark = log.marks[mi];
            markDetail(g.mark, g.sessIdx, g.addr);
            for (size_t i = 0; i < mi; ++i)
                g.occurrence += isParkMark(g, log.marks[i]);
            rebuild_.parks.push_back(g);
            return static_cast<int>(rebuild_.parks.size()) - 1;
        };
        for (const Intervention &iv : log.interventions) {
            if (iv.time > tt.time())
                break; // truncated future
            rebuild_.journal.push_back(iv);
            rebuild_.journalPark.push_back(iv.atEventPark ? parkAt(iv.time)
                                                          : -1);
        }
        size_t cur = tt.eventsSoFar();
        if (!rebuild_.parkedAtHalt && cur > 0 &&
            log.marks[cur - 1].time == tt.time())
            rebuild_.finalPark = parkAt(tt.time());
    }

    if (!install(specsToInstall(rebuild_.parks))) {
        refusal_ = std::string("rebuild refused: the ") +
                   backendName(backendKind()) +
                   " backend cannot implement the enlarged spec set";
        return false;
    }
    if (rebuild_.hadTravel)
        debugger_->timeTravel(opts_.timeTravel);
    return true;
}

/**
 * Advance the rebuild-replay by up to @p maxInsts application
 * instructions (0 = run to completion). Stream positions (µops) shift
 * under different instrumentation, so the replay navigates by
 * instrumentation-invariant coordinates: a journal entry is re-recorded
 * at its application-instruction stamp, or, when it was recorded at an
 * event park, after that park is re-found as the corresponding event —
 * same (kind, pc, appInsts, owner, address) occurrence — of the rebuilt
 * timeline. The session's own park is found the same way. The new
 * spec's past hits materialize on the event queue as the replay
 * re-crosses them. Returns true when the session is back at its
 * position.
 */
bool
DebugSession::replayRebuild(uint64_t maxInsts)
{
    TimeTravel &tt = debugger_->timeTravel();
    uint64_t used = 0;
    auto budgetLeft = [&]() -> uint64_t {
        if (!maxInsts)
            return ~uint64_t{0};
        return maxInsts > used ? maxInsts - used : 0;
    };
    // Run exactly @p need instructions (or, @p toHalt, until the
    // target halts) within the budget; returns false when the budget
    // expired first.
    auto boundedStepi = [&](uint64_t need, bool toHalt = false) {
        while (need && !(toHalt && tt.halted())) {
            uint64_t n = std::min(need, budgetLeft());
            if (n == 0)
                return false;
            uint64_t before = tt.appInsts();
            tt.stepi(n);
            uint64_t ran = tt.appInsts() - before;
            DISE_ASSERT(ran > 0, "rebuild replay made no progress at ",
                        tt.appInsts(), " insts");
            used += ran;
            need -= std::min(need, ran);
        }
        return true;
    };

    // Feed every mark the replay has produced since the last scan to
    // every park goal. The single monotone cursor means goals sharing
    // an identity (two parks on the same instruction) count each mark
    // exactly once between them.
    auto scanMarks = [&]() {
        const auto &marks = debugger_->replayLog().marks;
        for (; rebuild_.scanned < tt.eventsSoFar(); ++rebuild_.scanned)
            for (ParkGoal &g : rebuild_.parks)
                if (!g.reached && isParkMark(g, marks[rebuild_.scanned]) &&
                    g.seen++ == g.occurrence)
                    g.reached = true;
    };
    // Run event to event until @p goal's occurrence shows up; the
    // replay then sits parked on that event's µop, exactly where the
    // original entry was recorded. The stepping before it may already
    // have crossed it (a backend that stops on an instruction boundary
    // records the park's mark and a poke at one instruction). Returns
    // false on budget expiry.
    auto runToPark = [&](ParkGoal &goal) {
        scanMarks();
        while (!goal.reached) {
            uint64_t chunk =
                std::min<uint64_t>(budgetLeft(), uint64_t{1} << 30);
            if (chunk == 0)
                return false;
            uint64_t before = tt.appInsts();
            StopInfo stop =
                tt.travel(TravelVerb::Cont, tt.appInsts() + chunk);
            used += tt.appInsts() - before;
            scanMarks();
            DISE_ASSERT(goal.reached ||
                            stop.reason == StopReason::Event ||
                            stop.reason == StopReason::Step,
                        "rebuild replay lost its event position (",
                        eventKindName(goal.mark.kind), " at pc=0x",
                        std::hex, goal.mark.pc, std::dec, ", ",
                        goal.mark.appInsts, " insts)");
        }
        return true;
    };

    // Journal entries at their app-inst stamps or re-found parks.
    while (rebuild_.nextJournal < rebuild_.journal.size()) {
        const Intervention &iv =
            rebuild_.journal[rebuild_.nextJournal];
        int parkIdx = rebuild_.journalPark[rebuild_.nextJournal];
        if (parkIdx >= 0) {
            if (!runToPark(rebuild_.parks[parkIdx]))
                return false;
        } else if (iv.appInsts > tt.appInsts() &&
                   !boundedStepi(iv.appInsts - tt.appInsts())) {
            return false;
        }
        tt.reapply(iv);
        ++rebuild_.nextJournal;
    }

    // Back to the captured position.
    if (rebuild_.parkedAtHalt) {
        if (!boundedStepi(uint64_t{1} << 62, true))
            return false;
    } else if (rebuild_.finalPark >= 0) {
        // The new spec's own hits pass by (and get announced) on the
        // way.
        if (!runToPark(rebuild_.parks[rebuild_.finalPark]))
            return false;
    } else if (rebuild_.targetInsts > tt.appInsts()) {
        if (!boundedStepi(rebuild_.targetInsts - tt.appInsts()))
            return false;
    }

    DISE_ASSERT(tt.appInsts() == rebuild_.targetInsts,
                "rebuild replay fell short: at ", tt.appInsts(),
                " insts, wanted ", rebuild_.targetInsts);
    pumpEvents();
    return true;
}

TimeTravel &
DebugSession::ensureTravel()
{
    DISE_ASSERT(attach(), "the ", backendName(backendKind()),
                " backend cannot implement this session's requests");
    return debugger_->timeTravel(opts_.timeTravel);
}

// ------------------------------------------------------ event delivery

const TimeTravel::Stats *
DebugSession::travelStats() const
{
    if (!debugger_ || !debugger_->timeTraveling())
        return nullptr;
    return &const_cast<Debugger &>(*debugger_).timeTravel().stats();
}

/**
 * Reconcile the queue with everything that happened during the last
 * operation: announce a restore if the timeline was rolled back, then
 * any newly discovered (or re-crossed) watch/break/protection events,
 * then checkpoint notices and halts.
 */
void
DebugSession::pumpEvents()
{
    if (!debugger_)
        return;
    DebugBackend &backend = debugger_->backend();
    const TimeTravel::Stats *ts = travelStats();
    uint64_t now = 0, insts = 0;
    bool halted = false;
    if (debugger_->timeTraveling()) {
        TimeTravel &tt = debugger_->timeTravel();
        now = tt.time();
        insts = tt.appInsts();
        halted = tt.halted();
    }

    if (ts && ts->restores > announcedRestores_) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Restore;
        ev.time = now;
        ev.appInsts = insts;
        ev.value = ts->pagesRestored - announcedPagesRestored_;
        events_.push(ev);
        announcedRestores_ = ts->restores;
        announcedPagesRestored_ = ts->pagesRestored;
    }

    const auto &ws = backend.watchEvents();
    const auto &bs = backend.breakEvents();
    const auto &ps = backend.protectionEvents();
    // A restore rolled the lists back: later positions will be
    // re-announced if execution re-crosses them.
    announcedWatch_ = std::min(announcedWatch_, ws.size());
    announcedBreak_ = std::min(announcedBreak_, bs.size());
    announcedProt_ = std::min(announcedProt_, ps.size());

    // Each announced event carries its OWN timeline position (the
    // recorded mark), not the position the announcement happens to be
    // made at — a runToEnd() that crosses five hits must deliver five
    // distinct stamps. Without a time-travel session there is no
    // stream position; the backend's detection sequence is the best
    // per-event stamp.
    bool hasTravel = debugger_->timeTraveling();
    auto stamp = [&](SessionEventKind kind, EventKind mk, size_t i,
                     uint64_t seq) {
        const EventMark *mark =
            hasTravel ? findMark(mk, static_cast<int>(i)) : nullptr;
        SessionEvent ev;
        ev.kind = kind;
        ev.time = mark ? mark->time : (hasTravel ? now : seq);
        ev.appInsts = mark ? mark->appInsts : insts;
        return ev;
    };
    for (; announcedWatch_ < ws.size(); ++announcedWatch_) {
        const WatchEvent &we = ws[announcedWatch_];
        int idx = ownerOf(installed_.watches, we.wpIndex);
        if (mutedWatches_.count(idx))
            continue; // muted: consume the position, deliver nothing
        SessionEvent ev = stamp(SessionEventKind::Watch, EventKind::Watch,
                                announcedWatch_, we.seq);
        ev.pc = we.pc;
        ev.index = idx;
        ev.addr = we.addr;
        ev.oldValue = we.oldValue;
        ev.newValue = we.newValue;
        events_.push(ev);
    }
    for (; announcedBreak_ < bs.size(); ++announcedBreak_) {
        const BreakEvent &be = bs[announcedBreak_];
        int idx = ownerOf(installed_.breaks, be.bpIndex);
        if (mutedBreaks_.count(idx))
            continue;
        SessionEvent ev = stamp(SessionEventKind::Break, EventKind::Break,
                                announcedBreak_, be.seq);
        ev.pc = be.pc;
        ev.index = idx;
        events_.push(ev);
    }
    for (; announcedProt_ < ps.size(); ++announcedProt_) {
        SessionEvent ev = stamp(SessionEventKind::Protection,
                                EventKind::Protection, announcedProt_, now);
        ev.pc = ps[announcedProt_].pc;
        ev.addr = ps[announcedProt_].addr;
        events_.push(ev);
    }

    // Tool findings ride the same ordered queue. The findings list
    // rolls back with the backend host state on restore, so (exactly
    // like the event lists above) re-crossing a stretch of the
    // timeline re-announces its findings.
    const auto &tfs = backend.tools().findings();
    announcedToolFindings_ = std::min(announcedToolFindings_, tfs.size());
    for (; announcedToolFindings_ < tfs.size();
         ++announcedToolFindings_) {
        const tools::ToolFinding &f = tfs[announcedToolFindings_];
        SessionEvent ev;
        ev.kind = SessionEventKind::ToolFinding;
        ev.time = now;
        ev.appInsts = insts;
        ev.pc = f.pc;
        ev.addr = f.addr;
        ev.value = f.value;
        ev.tool = f.tool;
        ev.detail = f.detail.empty() ? f.kind : f.kind + ": " + f.detail;
        events_.push(ev);
    }

    if (ts && ts->checkpointsTaken > announcedCheckpoints_) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Checkpoint;
        ev.time = now;
        ev.appInsts = insts;
        ev.value = ts->checkpointsTaken - announcedCheckpoints_;
        events_.push(ev);
        announcedCheckpoints_ = ts->checkpointsTaken;
    }

    if (halted && !announcedHalt_) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Halted;
        ev.time = now;
        ev.appInsts = insts;
        events_.push(ev);
        announcedHalt_ = true;
    } else if (!halted) {
        announcedHalt_ = false; // reverse travel un-halted the target
    }
}

/**
 * The recorded mark for the @p index -th backend event of @p kind.
 * Announcements arrive in per-kind index order, so a circular scan
 * from the last hit position amortizes to O(1) per event.
 */
const EventMark *
DebugSession::findMark(EventKind kind, int index)
{
    const auto &marks = debugger_->replayLog().marks;
    if (marks.empty())
        return nullptr;
    if (markCursor_ >= marks.size())
        markCursor_ = 0;
    for (size_t n = 0; n < marks.size(); ++n) {
        size_t i = (markCursor_ + n) % marks.size();
        if (marks[i].kind == kind && marks[i].index == index) {
            markCursor_ = i + 1;
            return &marks[i];
        }
    }
    return nullptr;
}

bool
DebugSession::stopIsMuted(StopInfo &stop) const
{
    if (stop.reason != StopReason::Event || !debugger_)
        return false;
    // One µop can fire several marks (overlapping watchpoints).
    const auto &marks =
        const_cast<Debugger &>(*debugger_).replayLog().marks;
    for (int i = stop.eventIndex; i >= 0 && marks[i].time == stop.mark.time;
         --i) {
        int idx = -1;
        Addr addr = 0;
        markDetail(marks[i], idx, addr);
        if (marks[i].kind == EventKind::Watch   ? !mutedWatches_.count(idx)
            : marks[i].kind == EventKind::Break ? !mutedBreaks_.count(idx)
                                                : true) {
            stop.eventIndex = i;
            stop.mark = marks[i];
            return false;
        }
    }
    return true;
}

// ------------------------------------------------------ the in-flight op

bool
DebugSession::isLongVerb(RequestKind kind)
{
    using K = RequestKind;
    return kind == K::Cont || kind == K::Stepi || kind == K::RunToEnd ||
           kind == K::ReverseContinue || kind == K::ReverseStep ||
           kind == K::RunToEvent || kind == K::SetWatch ||
           kind == K::SetBreak;
}

bool
DebugSession::opPinned() const
{
    return !op_.done && op_.started &&
           (op_.resurrect || op_.req.kind == RequestKind::SetWatch ||
            op_.req.kind == RequestKind::SetBreak);
}

bool
DebugSession::opFail(ResponseStatus status, const std::string &msg)
{
    op_.resp.status = status;
    op_.resp.error = msg;
    op_.done = true;
    return true;
}

bool
DebugSession::begin(const Request &req)
{
    DISE_ASSERT(isLongVerb(req.kind), requestKindName(req.kind),
                " is not a long verb");
    // A started rebuild or resurrection owns the machinery until it
    // lands: the new verb waits behind it (see step()).
    if (opPinned()) {
        queued_ = req;
        return false;
    }
    queued_.reset();
    return startOp(req);
}

bool
DebugSession::startOp(const Request &req)
{
    op_ = Op{};
    op_.req = req;
    if (req.kind == RequestKind::RunToEnd)
        op_.req.count = uint64_t{1} << 62; // a stepi that ends at the halt
    op_.done = false;
    op_.resp.seq = req.seq;
    op_.resp.inReplyTo = req.kind;
    if (detached_)
        return opFail(ResponseStatus::Error, "session is detached");
    if (req.kind == RequestKind::SetWatch ||
        req.kind == RequestKind::SetBreak)
        return beginSpec(req);
    // Attach is the capability gate ("no experiment" cells).
    bool ok = false;
    try {
        ok = attach();
    } catch (const std::exception &e) {
        return opFail(ResponseStatus::Error, e.what());
    }
    if (!ok)
        return opFail(ResponseStatus::Unsupported,
                      std::string("the ") + backendName(backendKind()) +
                          " backend cannot implement the requested "
                          "watchpoints");
    return false;
}

/** Index of the registered spec identical to @p req's, or -1. */
int
DebugSession::findSpec(const Request &req) const
{
    bool isWatch = req.kind == RequestKind::SetWatch;
    size_t n = isWatch ? pendingWatches_.size() : pendingBreaks_.size();
    for (size_t i = 0; i < n; ++i)
        if (isWatch ? sameWatch(pendingWatches_[i], req.watch)
                    : sameBreak(pendingBreaks_[i], req.brk))
            return static_cast<int>(i);
    return -1;
}

/** Register or re-arm a spec outright, unless it needs a machinery
 *  rebuild: a new post-attach spec, or one the live machinery does not
 *  install (muted before attach, or dropped by a rebuild). */
bool
DebugSession::beginSpec(const Request &req)
{
    bool isWatch = req.kind == RequestKind::SetWatch;
    int found = findSpec(req);
    std::set<int> &muted = isWatch ? mutedWatches_ : mutedBreaks_;
    const std::vector<int> &installed =
        isWatch ? installed_.watches : installed_.breaks;
    if (found >= 0 &&
        (!attached() ||
         std::binary_search(installed.begin(), installed.end(), found))) {
        muted.erase(found);
    } else if (!attached()) {
        found = registerSpec(req);
    } else if (batchRan_) {
        // A batch cycle-level/functional run advanced the target
        // outside the replayable timeline: no position to rebuild to.
        refusal_ = "rebuild refused: a batch cycle-level/functional "
                   "run advanced the target outside the replayable "
                   "timeline";
        return opFail(ResponseStatus::Unsupported, refusal_);
    } else if (backendKind() == BackendKind::Rewrite &&
               debugger_->timeTraveling() &&
               debugger_->timeTravel().time() > 0) {
        // Inline checks retire as application instructions, so a
        // larger spec set moves every instruction stamp the rebuild
        // would navigate by.
        refusal_ = "rebuild refused: the rewrite backend counts its "
                   "inline checks as application instructions, so a "
                   "spec added after the target ran has no position "
                   "to replay to";
        return opFail(ResponseStatus::Unsupported, refusal_);
    } else {
        return false;
    }
    op_.resp.index = found;
    op_.done = true;
    return true;
}

/** Append @p req's spec; returns its session index. */
int
DebugSession::registerSpec(const Request &req)
{
    if (req.kind == RequestKind::SetWatch) {
        pendingWatches_.push_back(req.watch);
        return static_cast<int>(pendingWatches_.size()) - 1;
    }
    pendingBreaks_.push_back(req.brk);
    return static_cast<int>(pendingBreaks_.size()) - 1;
}

/** The rebuild's first step: register the spec, plan the replay, and
 *  commit the enlarged machinery (or refuse, session untouched). */
bool
DebugSession::startRebuild()
{
    bool isWatch = op_.req.kind == RequestKind::SetWatch;
    std::set<int> &muted = isWatch ? mutedWatches_ : mutedBreaks_;
    // Re-arming a spec muted before attach, or adding a new one.
    int idx = findSpec(op_.req);
    bool rearm = idx >= 0;
    if (rearm)
        muted.erase(idx);
    else
        idx = registerSpec(op_.req);
    if (!rebuildBegin()) {
        if (rearm)
            muted.insert(idx);
        else if (isWatch)
            pendingWatches_.pop_back();
        else
            pendingBreaks_.pop_back();
        return opFail(ResponseStatus::Unsupported, refusal_);
    }
    op_.resp.index = idx;
    op_.done = !rebuild_.hadTravel; // nothing to replay
    return op_.done;
}

bool
DebugSession::step(uint64_t budget)
{
    if (op_.done)
        return true;
    if (!advance(budget, !std::exchange(op_.started, true)))
        return false;
    if (!queued_)
        return true;
    // The pinned op landed; now the verb that waited behind it.
    Request next = std::move(*queued_);
    queued_.reset();
    return startOp(next);
}

bool
DebugSession::advance(uint64_t budget, bool first)
{
    if (op_.resurrect)
        return stepResurrect(budget, first);
    switch (op_.req.kind) {
      case RequestKind::SetWatch:
      case RequestKind::SetBreak:
        if (first)
            return startRebuild();
        try {
            op_.done = replayRebuild(budget);
            return op_.done;
        } catch (...) {
            // A rebuild that lost its way back leaves machinery no
            // verb may run on.
            op_.done = true;
            queued_.reset();
            detach();
            throw;
        }
      default:
        return stepTravel(budget, first);
    }
}

/**
 * Resume verbs (see begin()). Muted events never surface: a forward
 * run passes over them within its bound, and a reverse-continue
 * begins another travel further into the past.
 */
bool
DebugSession::stepTravel(uint64_t budget, bool first)
{
    TimeTravel &tt = ensureTravel();
    StopInfo stop;
    bool done = false;
    switch (op_.req.kind) {
      case RequestKind::Cont: {
        uint64_t limit = budget ? tt.appInsts() + budget : 0;
        do {
            stop = tt.travel(TravelVerb::Cont, limit);
            pumpEvents();
        } while (stop.reason == StopReason::Event && stopIsMuted(stop));
        done = stop.reason != StopReason::Step;
        break;
      }
      case RequestKind::Stepi:
      case RequestKind::RunToEnd: {
        uint64_t &left = op_.req.count;
        uint64_t n = budget ? std::min(left, budget) : left;
        stop = tt.travel(TravelVerb::Stepi, n);
        pumpEvents();
        left -= n;
        done = left == 0 || stop.reason != StopReason::Step;
        break;
      }
      default: {
        if (first) {
            TravelVerb verb = op_.req.kind == RequestKind::ReverseStep
                                  ? TravelVerb::ReverseStep
                              : op_.req.kind == RequestKind::RunToEvent
                                  ? TravelVerb::RunToEvent
                                  : TravelVerb::ReverseContinue;
            stop = tt.travelBegin(verb, op_.req.count, done);
        } else {
            stop = tt.travelStep(budget, done);
        }
        pumpEvents();
        while (done && op_.req.kind == RequestKind::ReverseContinue &&
               stop.reason == StopReason::Event && stopIsMuted(stop)) {
            stop = tt.travelBegin(TravelVerb::ReverseContinue, 0, done);
            pumpEvents();
        }
      }
    }
    if (!done)
        return false;
    op_.resp.hasStop = true;
    op_.resp.stop = stop;
    op_.done = true;
    return true;
}

bool
DebugSession::begin(const persist::SessionImage &img)
{
    op_ = Op{};
    queued_.reset();
    op_.resurrect = true;
    op_.done = false;
    if (attached() || detached_ || !pendingWatches_.empty() ||
        !pendingBreaks_.empty() || !pendingPokes_.empty())
        return opFail(ResponseStatus::Error,
                      "resurrection requires a freshly constructed "
                      "session");
    resurrect_ = img;
    return false;
}

Response
DebugSession::finish()
{
    DISE_ASSERT(op_.done, "finish() before the op completed");
    return std::move(op_.resp);
}

Response
DebugSession::run(const Request &req)
{
    if (!begin(req))
        while (!step(0)) {
        }
    return finish();
}

Response
DebugSession::runBeside(const Request &req)
{
    Op saved = std::exchange(op_, Op{});
    std::optional<Request> savedQueue = std::exchange(queued_, {});
    auto resume = [&] {
        op_ = std::move(saved);
        queued_ = std::move(savedQueue);
    };
    try {
        Response resp = run(req);
        resume();
        return resp;
    } catch (...) {
        resume();
        throw;
    }
}

StopInfo
DebugSession::runStop(RequestKind kind, uint64_t count)
{
    Request req;
    req.kind = kind;
    req.count = count;
    Response resp = run(req);
    DISE_ASSERT(resp.ok(), resp.error);
    return resp.stop;
}

std::unique_ptr<IntervalReplay>
DebugSession::beginIntervalReplay()
{
    if (!attached() || !debugger_->timeTraveling() || batchRan_)
        return nullptr;
    // Each interval worker gets machinery built exactly the way this
    // session's was (the live install record, the same initial-state
    // pokes, the same prepare hook), so its replay is bit-deterministic
    // against the live timeline.
    IntervalReplay::ReplicaFactory factory =
        [this, set = installed_](std::unique_ptr<DebugTarget> &t,
                                 std::unique_ptr<Debugger> &d) {
            Machinery m;
            if (!buildMachinery(m, set))
                return false;
            t = std::move(m.target);
            d = std::move(m.debugger);
            return true;
        };
    return std::make_unique<IntervalReplay>(
        debugger_->timeTravel(), *target_, debugger_->backend(),
        debugger_->replayLog(), std::move(factory));
}

IntervalReplay::Report
DebugSession::verifyReplay(unsigned workers)
{
    std::unique_ptr<IntervalReplay> ir = beginIntervalReplay();
    if (!ir) {
        IntervalReplay::Report r;
        r.error = NoReplayableTimeline;
        return r;
    }
    return ir->run(workers);
}

Response
DebugSession::replayVerifyReply(Response resp,
                                const IntervalReplay::Report &rep)
{
    if (!rep.ok) {
        resp.status = ResponseStatus::Error;
        resp.error =
            rep.error.empty() ? "replay verification failed" : rep.error;
        return resp;
    }
    resp.value = rep.finalDigest;
    for (const IntervalReplay::Interval &iv : rep.intervals)
        resp.regs.push_back(iv.endDigest);
    return resp;
}

StopInfo
DebugSession::currentStop()
{
    StopInfo s;
    s.reason = StopReason::Step;
    if (debugger_ && debugger_->timeTraveling()) {
        TimeTravel &tt = debugger_->timeTravel();
        s.time = tt.time();
        s.appInsts = tt.appInsts();
        s.pc = target_->arch.pc;
    }
    return s;
}

RunStats
DebugSession::runCycles(TimingConfig cfg, RunLimits limits)
{
    DISE_ASSERT(attach(), "the ", backendName(backendKind()),
                " backend cannot implement this session's requests");
    batchRan_ = true;
    RunStats stats = debugger_->run(cfg, limits);
    pumpEvents();
    if (stats.halt != HaltReason::None && !announcedHalt_) {
        SessionEvent ev;
        ev.kind = SessionEventKind::Halted;
        ev.appInsts = stats.appInsts;
        events_.push(ev);
        announcedHalt_ = true;
    }
    return stats;
}

FuncResult
DebugSession::runFunctional(uint64_t maxAppInsts)
{
    DISE_ASSERT(attach(), "the ", backendName(backendKind()),
                " backend cannot implement this session's requests");
    batchRan_ = true;
    FuncResult res = debugger_->runFunctional(maxAppInsts);
    pumpEvents();
    return res;
}

// --------------------------------------------------------- peek / poke

std::vector<uint64_t>
DebugSession::readRegisters()
{
    DebugTarget &t = ensurePeekTarget();
    std::vector<uint64_t> regs(NumSessionRegs);
    for (unsigned i = 0; i < NumIntRegs; ++i)
        regs[i] = t.arch.read(ir(i));
    regs[PcRegIndex] = t.arch.pc;
    return regs;
}

uint64_t
DebugSession::readRegister(unsigned index)
{
    DebugTarget &t = ensurePeekTarget();
    if (index == PcRegIndex)
        return t.arch.pc;
    if (index < NumIntRegs)
        return t.arch.read(ir(index));
    return 0;
}

bool
DebugSession::writeRegister(unsigned index, uint64_t value)
{
    if (index >= NumSessionRegs)
        return false;
    if (attached() && debugger_->timeTraveling()) {
        if (index == PcRegIndex)
            return false; // the PC is not a loggable intervention
        debugger_->timeTravel().pokeRegister(ir(index), value);
        return true;
    }
    Poke p;
    p.isReg = true;
    p.reg = index;
    p.value = value;
    recordPoke(p);
    return true;
}

/**
 * Before the first resume the target sits at its initial state, so a
 * poke is part of that initial state: it joins the configuration-phase
 * pokes, which attach and every machinery rebuild (post-attach spec
 * addition) re-apply instead of silently reverting the write. An
 * attached backend already primed its shadows from the unpoked image,
 * so the machinery is rebuilt from the install record; nothing has run
 * yet, so there is nothing to replay.
 */
void
DebugSession::recordPoke(const Poke &p)
{
    pendingPokes_.push_back(p);
    if (batchRan_)
        applyPoke(*target_, p); // no initial state left to rebuild
    else if (attached())
        DISE_ASSERT(install(installed_), "the ", backendName(backendKind()),
                    " backend refused its own install record");
    else if (preview_)
        applyPoke(*preview_, p);
}

std::vector<uint8_t>
DebugSession::readMemory(Addr addr, size_t len)
{
    DebugTarget &t = ensurePeekTarget();
    std::vector<uint8_t> bytes(len);
    t.mem.readBlock(addr, bytes.data(), len);
    return bytes;
}

bool
DebugSession::writeMemory(Addr addr, unsigned size, uint64_t value)
{
    // Refused before it reaches the pending pokes or the timeline:
    // memory takes 1-, 2-, 4- and 8-byte writes only.
    if (size != 1 && size != 2 && size != 4 && size != 8)
        return false;
    if (attached() && debugger_->timeTraveling()) {
        debugger_->timeTravel().pokeMemory(addr, size, value);
        return true;
    }
    Poke p;
    p.addr = addr;
    p.size = size;
    p.value = value;
    recordPoke(p);
    return true;
}

// -------------------------------------------------------- introspection

SessionStats
DebugSession::stats() const
{
    SessionStats s;
    if (const TimeTravel::Stats *ts = travelStats()) {
        TimeTravel &tt = const_cast<Debugger &>(*debugger_).timeTravel();
        s.time = tt.time();
        s.appInsts = tt.appInsts();
        s.events = tt.eventCount();
        s.checkpoints = tt.checkpointCount();
        s.pagesCopied = ts->pagesCopied;
        s.restores = ts->restores;
        s.replayedUops = ts->replayedUops;
        s.historyBytes = tt.historyBytes();
    } else if (debugger_) {
        s.events = debugger_->backend().totalEvents();
    }
    if (attached()) {
        const TraceCacheStats &js = target_->jit()->stats();
        s.jitUops = js.tracedUops;
        s.jitExits = js.sideExits;
    }
    return s;
}

uint64_t
DebugSession::digest()
{
    DISE_ASSERT(attached(), "digest() requires an attached session");
    if (debugger_->timeTraveling())
        return debugger_->timeTravel().digest();
    return stateDigest(*target_, debugger_->backend());
}

size_t
DebugSession::eventCount() const
{
    if (debugger_ && debugger_->timeTraveling())
        return const_cast<Debugger &>(*debugger_).timeTravel()
            .eventCount();
    return debugger_ ? debugger_->backend().totalEvents() : 0;
}

DebugTarget &
DebugSession::target()
{
    return ensurePeekTarget();
}

Debugger &
DebugSession::debugger()
{
    DISE_ASSERT(attached(), "no debugger before attach");
    return *debugger_;
}

TimeTravel &
DebugSession::timeTravel()
{
    return ensureTravel();
}

bool
DebugSession::detach()
{
    debugger_.reset(); // tears down the time-travel session first
    target_.reset();
    preview_.reset();
    detached_ = true;
    return true;
}

// -------------------------------------------------------- debug tools

bool
DebugSession::toolEnable(
    const std::string &name,
    const std::vector<std::pair<std::string, std::string>> &cfg,
    std::string *err)
{
    if (detached_) {
        if (err)
            *err = "session is detached";
        return false;
    }
    if (!attach()) {
        if (err)
            *err = std::string("the ") + backendName(backendKind()) +
                   " backend cannot attach this session";
        return false;
    }
    TimeTravel &tt = ensureTravel();
    if (!tt.enableTool(name, cfg, err))
        return false;
    pumpEvents();
    return true;
}

bool
DebugSession::toolDisable(const std::string &name, std::string *err)
{
    if (!attached()) {
        if (err)
            *err = "tool '" + name + "' is not enabled";
        return false;
    }
    TimeTravel &tt = ensureTravel();
    if (!tt.disableTool(name, err))
        return false;
    pumpEvents();
    return true;
}

std::string
DebugSession::toolList() const
{
    std::string out;
    for (const std::string &n :
         tools::ToolRegistry::instance().names()) {
        if (!out.empty())
            out += ',';
        out += n;
        if (attached() && debugger_->backend().tools().isEnabled(n))
            out += '*';
    }
    return out;
}

bool
DebugSession::toolReport(const std::string &name, std::string *out,
                         uint64_t *digest, std::string *err)
{
    if (!attached()) {
        if (err)
            *err = tools::ToolRegistry::instance().make(name)
                       ? "tool '" + name + "' is not enabled"
                       : "unknown tool '" + name + "'";
        return false;
    }
    const tools::ToolSet &ts = debugger_->backend().tools();
    if (!ts.report(name, out, err))
        return false;
    if (digest)
        *digest = ts.digest(name);
    return true;
}

// ---------------------------------------------------- durable sessions

bool
DebugSession::exportImage(persist::SessionImage &img, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (detached_)
        return fail("a detached session has no state to persist");
    if (batchRan_)
        return fail("a batch cycle-level/functional run advanced the "
                    "target outside the replayable timeline; the "
                    "session cannot be reconstructed from its log");
    if (opPinned())
        return fail(op_.resurrect
                        ? "a resurrection replay is in flight"
                        : "a rebuild-replay is in flight; drive it to "
                          "completion before persisting");

    persist::SessionImage out;
    out.id = img.id;
    out.workload = img.workload;
    out.backend = opts_.debugger.backend;
    out.attached = attached();
    out.watches = pendingWatches_;
    out.breaks = pendingBreaks_;
    out.mutedWatches.assign(mutedWatches_.begin(), mutedWatches_.end());
    out.mutedBreaks.assign(mutedBreaks_.begin(), mutedBreaks_.end());
    out.pokes = pendingPokes_;
    out.installedWatches.assign(installed_.watches.begin(),
                                installed_.watches.end());
    out.installedBreaks.assign(installed_.breaks.begin(),
                               installed_.breaks.end());

    out.hasTravel = attached() && debugger_->timeTraveling();
    if (out.hasTravel) {
        TimeTravel &tt = debugger_->timeTravel();
        if (tt.travelActive())
            return fail("a sliced travel is in flight; drive it to "
                        "completion before persisting");
        const ReplayLog &log = debugger_->replayLog();
        out.seed = log.seed;
        out.programName = log.programName;
        out.interventions = log.interventions;
        out.marks = log.marks;
        out.time = tt.time();
        out.appInsts = tt.appInsts();
        out.digest = tt.digest();
        for (const Checkpoint &cp : tt.checkpoints())
            out.checkpoints.push_back({cp.time, cp.appInsts});
    } else if (attached()) {
        out.digest = digest();
    }
    if (attached()) {
        const tools::ToolSet &ts = debugger_->backend().tools();
        for (const std::string &n : ts.enabledNames())
            out.toolDigests.push_back({n, ts.digest(n)});
    }
    img = std::move(out);
    return true;
}

/** The resurrection's first step: adopt the image's configuration,
 *  re-attach identical machinery, inject the recorded log, and aim a
 *  seek at the persisted µop position. */
bool
DebugSession::startResurrect()
{
    persist::SessionImage &img = resurrect_;
    opts_.debugger.backend = img.backend;
    pendingWatches_ = img.watches;
    pendingBreaks_ = img.breaks;
    mutedWatches_ = {img.mutedWatches.begin(), img.mutedWatches.end()};
    mutedBreaks_ = {img.mutedBreaks.begin(), img.mutedBreaks.end()};
    pendingPokes_ = img.pokes;

    if (!img.attached) {
        op_.done = true; // config-only image: nothing to replay
        return true;
    }
    InstallSet set;
    set.watches.assign(img.installedWatches.begin(),
                       img.installedWatches.end());
    set.breaks.assign(img.installedBreaks.begin(),
                      img.installedBreaks.end());
    if (!install(set))
        return opFail(ResponseStatus::Error,
                      std::string("the ") + backendName(img.backend) +
                          " backend refused the persisted spec set");
    if (!img.hasTravel) {
        uint64_t live = digest();
        if (live != img.digest) {
            detach();
            return opFail(ResponseStatus::Error,
                          "re-attach digest mismatch: live " +
                              std::to_string(live) + ", image says " +
                              std::to_string(img.digest));
        }
        op_.done = true;
        return true;
    }
    // Create the controller FIRST (it holds a reference to the
    // debugger's log), then inject the recorded log underneath it: the
    // seek replays the interventions at their stamps and verifies
    // every recorded mark as it crosses it.
    TimeTravel &tt = ensureTravel();
    ReplayLog &log = debugger_->replayLog();
    log.seed = img.seed;
    log.programName = img.programName;
    log.interventions = std::move(img.interventions);
    log.marks = std::move(img.marks);
    bool done = false;
    tt.travelBegin(TravelVerb::Seek, img.time, done);
    pumpEvents();
    return done && resurrectFinish();
}

/** Divergence during the replay (a mark that does not re-fire at its
 *  recorded position, a production removal that cannot re-target)
 *  surfaces as an assertion; it becomes a typed failure with the
 *  session safely detached rather than half-replayed state. */
bool
DebugSession::stepResurrect(uint64_t budget, bool first)
{
    try {
        if (first)
            return startResurrect();
        bool done = false;
        debugger_->timeTravel().travelStep(budget, done);
        pumpEvents();
        return done && resurrectFinish();
    } catch (const std::exception &e) {
        detach();
        return opFail(ResponseStatus::Error,
                      std::string("resurrection replay diverged: ") +
                          e.what());
    }
}

/** Verify the completed resurrection replay against the image's
 *  anchors; any mismatch detaches the session (typed error, no
 *  divergent state admitted). */
bool
DebugSession::resurrectFinish()
{
    const persist::SessionImage &plan = resurrect_;
    auto fail = [&](const std::string &why) {
        detach();
        return opFail(ResponseStatus::Error, why);
    };
    TimeTravel &tt = debugger_->timeTravel();
    if (tt.time() != plan.time || tt.appInsts() != plan.appInsts)
        return fail("resurrection landed at t=" +
                    std::to_string(tt.time()) + ", " +
                    std::to_string(tt.appInsts()) +
                    " insts; image says t=" + std::to_string(plan.time) +
                    ", " + std::to_string(plan.appInsts) + " insts");
    uint64_t live = tt.digest();
    if (live != plan.digest)
        return fail("resurrection digest mismatch: replay produced " +
                    std::to_string(live) + ", image says " +
                    std::to_string(plan.digest));
    // The chain's positions are deterministic functions of the travel
    // history, so the re-taken chain must sit at the recorded
    // positions exactly.
    const auto &cps = tt.checkpoints();
    if (cps.size() != plan.checkpoints.size())
        return fail("resurrection re-took " +
                    std::to_string(cps.size()) +
                    " checkpoints; image recorded " +
                    std::to_string(plan.checkpoints.size()));
    for (size_t i = 0; i < cps.size(); ++i)
        if (cps[i].time != plan.checkpoints[i].time ||
            cps[i].appInsts != plan.checkpoints[i].appInsts)
            return fail("resurrection checkpoint #" +
                        std::to_string(i) + " sits at t=" +
                        std::to_string(cps[i].time) +
                        "; image recorded t=" +
                        std::to_string(plan.checkpoints[i].time));
    // Tool state is excluded from the user-visible digest, so verify
    // it separately: the replayed tool state must serialize to the
    // exact bytes the image was taken from.
    const tools::ToolSet &ts = debugger_->backend().tools();
    for (const persist::ToolDigest &td : plan.toolDigests) {
        uint64_t live = ts.digest(td.name);
        if (live != td.digest)
            return fail("resurrection tool '" + td.name +
                        "' digest mismatch: replay produced " +
                        std::to_string(live) + ", image says " +
                        std::to_string(td.digest));
    }
    op_.done = true;
    return true;
}

// ---------------------------------------------------------- wire entry

Response
DebugSession::dispatch(const Request &req)
{
    TRACE_SPAN("session", requestKindName(req.kind));
    Response resp;
    resp.seq = req.seq;
    resp.inReplyTo = req.kind;

    auto errorOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return resp;
    };
    auto unsupportedOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Unsupported;
        resp.error = msg;
        return resp;
    };
    std::string cantAttach =
        std::string("the ") + backendName(backendKind()) +
        " backend cannot implement the requested watchpoints";

    if (detached_ && req.kind != RequestKind::Ping)
        return errorOut("session is detached");
    if (isLongVerb(req.kind))
        return run(req);

    switch (req.kind) {
      case RequestKind::Ping:
        return resp;
      case RequestKind::SelectBackend:
        if (!selectBackend(req.backend))
            return errorOut("backend is fixed once attached");
        return resp;
      case RequestKind::RemoveWatch:
        if (!removeWatch(req.index))
            return errorOut("no such watchpoint");
        return resp;
      case RequestKind::RemoveBreak:
        if (!removeBreak(req.index))
            return errorOut("no such breakpoint");
        return resp;
      case RequestKind::Attach:
        if (!attach())
            return unsupportedOut(cantAttach);
        return resp;
      case RequestKind::ReadRegisters:
        resp.regs = readRegisters();
        return resp;
      case RequestKind::WriteRegister:
        if (!writeRegister(req.reg, req.value))
            return errorOut("cannot write that register here");
        return resp;
      case RequestKind::ReadMemory: {
        if (req.size > 65536)
            return errorOut("read too large");
        resp.bytes = readMemory(req.addr, req.size);
        return resp;
      }
      case RequestKind::WriteMemory:
        if (!writeMemory(req.addr, req.size, req.value))
            return errorOut("bad write size (1, 2, 4 or 8 bytes)");
        return resp;
      case RequestKind::Stats:
        resp.stats = stats();
        return resp;
      case RequestKind::Detach:
        detach();
        return resp;
      case RequestKind::ReplayVerify:
        return replayVerifyReply(
            resp, verifyReplay(
                      static_cast<unsigned>(req.count ? req.count : 1)));
      case RequestKind::ToolEnable: {
        if (!attach())
            return unsupportedOut(cantAttach);
        std::string terr;
        if (!toolEnable(req.name, req.toolConfig, &terr))
            return errorOut(terr);
        return resp;
      }
      case RequestKind::ToolDisable: {
        std::string terr;
        if (!toolDisable(req.name, &terr))
            return errorOut(terr);
        return resp;
      }
      case RequestKind::ToolList:
        resp.text = toolList();
        return resp;
      case RequestKind::ToolReport: {
        std::string terr;
        if (!toolReport(req.name, &resp.text, &resp.value, &terr))
            return errorOut(terr);
        return resp;
      }
      default:
        return errorOut("session management verbs are handled by the "
                        "multi-session server, not a session");
    }
}

Response
DebugSession::handle(const Request &req)
{
    try {
        return dispatch(req);
    } catch (const std::exception &e) {
        Response resp;
        resp.seq = req.seq;
        resp.inReplyTo = req.kind;
        resp.status = ResponseStatus::Error;
        resp.error = e.what();
        return resp;
    }
}

std::string
DebugSession::handleEncoded(const std::string &line)
{
    Request req;
    std::string err;
    if (!decodeRequest(line, req, &err)) {
        Response resp;
        resp.status = ResponseStatus::Error;
        resp.error = "decode: " + err;
        // Best-effort correlation: even a malformed line usually has a
        // parseable seq token, and the client needs it to match the
        // error to its outstanding request.
        size_t pos = line.find("seq=");
        if (pos != std::string::npos)
            resp.seq = std::strtoull(line.c_str() + pos + 4, nullptr, 0);
        return encodeResponse(resp);
    }
    return encodeResponse(handle(req));
}

} // namespace dise
