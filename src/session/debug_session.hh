/**
 * @file
 * The session-oriented debugger front end.
 *
 * A DebugSession owns one debugged target — the Program, the
 * DebugTarget it is loaded into, the Debugger (backend machinery), and
 * its timeline (a ReplayLog and the TimeTravel controller over it) —
 * and exposes every capability through the typed Request/Response
 * protocol (session/protocol.hh), so the same session can be driven by
 * linked-in C++ (examples, tests), by a wire peer via handleEncoded(),
 * or by a stock GDB through the RSP bridge (src/rsp/).
 *
 * Lifecycle: watchpoints, breakpoints, pokes, and the backend choice
 * are collected while the session is in its configuring phase. The
 * backend installs its machinery at the first resume request (or an
 * explicit Attach), honoring the install-before-load contract every
 * technique in the paper requires, while still letting a remote client
 * connect, inspect registers/memory, and place watchpoints before
 * anything runs. The timeline is part of the machinery: every install
 * (attach, a rebuild after a spec addition, resurrection) builds a
 * fresh log and controller next to the target and debugger, anchored
 * by a checkpoint at time zero, so an attached session always has
 * exactly one timeline and moves the target only along it. A write
 * after attach is a logged intervention on that timeline. Batch
 * cycle-level and functional runs belong to Debugger, which the
 * experiment harness drives directly.
 *
 * Post-attach watch/break removal mutes delivery (the machinery stays
 * installed); re-adding an identical spec unmutes it, which is exactly
 * the insert/remove cycle stock GDB performs around every continue.
 *
 * Every build of the machinery installs exactly one install record
 * (InstallSet: the session indices of the specs it installs), and the
 * live session keeps the record it was built from. Attach installs the
 * unmuted specs. A spec added after running installs the unmuted
 * specs, the new one, and every muted spec that owns an event park the
 * rebuild must re-find. Resurrection installs the record the image
 * carries, and interval-replay replicas install the live record, so a
 * rebuilt session reproduces the live machinery by construction.
 *
 * Every long verb (the resumes, a post-attach spec addition that
 * rebuilds the machinery, resurrection from an image) is the session's
 * one in-flight op: begin() / step(budget) / finish(). The job
 * scheduler slices any op the same way, and the typed one-shot verbs
 * run one to completion.
 *
 * All user-visible occurrences are delivered through the ordered
 * EventQueue (watch hits, break hits, protection faults,
 * checkpoint/restore notices, attach/halt), replacing the pull-style
 * event vectors of the pre-session front end. Re-traveling across a
 * stretch of the timeline re-announces its events: the queue narrates
 * the debugger's traversal.
 */

#ifndef DISE_SESSION_DEBUG_SESSION_HH
#define DISE_SESSION_DEBUG_SESSION_HH

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "debug/debugger.hh"
#include "debug/target.hh"
#include "persist/image.hh"
#include "replay/interval_replay.hh"
#include "replay/replay_log.hh"
#include "replay/time_travel.hh"
#include "session/event_queue.hh"
#include "session/protocol.hh"

namespace dise {

struct SessionOptions
{
    DebuggerOptions debugger{};
    TimeTravelConfig timeTravel{};
    /**
     * Called on the fresh DebugTarget before the backend installs and
     * the program loads — the hook point for non-debugging DISE use
     * (custom instrumentation productions, engine configuration).
     */
    std::function<void(DebugTarget &)> prepare;
};

class DebugSession
{
  public:
    explicit DebugSession(Program program, SessionOptions opts = {});
    ~DebugSession();

    DebugSession(const DebugSession &) = delete;
    DebugSession &operator=(const DebugSession &) = delete;

    /** @name Wire entry points */
    ///@{
    /** Execute one request; never throws on bad input. */
    Response handle(const Request &req);
    /** Decode, handle, and re-encode (one line in, one line out). */
    std::string handleEncoded(const std::string &line);
    ///@}

    /** @name Configuration (typed) */
    ///@{
    bool selectBackend(BackendKind kind);
    /** Register a new spec or re-arm a muted identical one. Before
     *  attach the spec is simply collected; after attach a *new* spec
     *  rebuilds the machinery from the initial state and replays the
     *  timeline (logged pokes included) back to the current position,
     *  so a gdb `Z` packet after `c` just works. Returns the watch
     *  index, or -1 when the spec is outside specLimitError()'s
     *  limits, the backend cannot implement the enlarged set (the
     *  original session is left untouched), or binary rewriting (whose
     *  inline checks count as application instructions) has run past
     *  time zero. */
    int setWatch(const WatchSpec &spec);
    int setBreak(const BreakSpec &spec);
    /** Mute delivery (stops and queue events). Indices stay stable;
     *  re-adding the identical spec re-arms the same slot. */
    bool removeWatch(int index);
    bool removeBreak(int index);
    bool watchMuted(int index) const;
    ///@}

    /** @name Attachment */
    ///@{
    /** Install the backend and load the target (idempotent). Returns
     *  false when the technique cannot implement the request. */
    bool attach();
    bool attached() const { return target_ != nullptr; }
    ///@}

    /** @name Execution (checkpointed functional session)
     * Typed one-shot verbs: each runs its op (below) to completion. */
    ///@{
    StopInfo cont() { return runStop(RequestKind::Cont, 0); }
    StopInfo stepi(uint64_t n = 1) { return runStop(RequestKind::Stepi, n); }
    StopInfo runToEnd() { return runStop(RequestKind::RunToEnd, 0); }
    StopInfo
    reverseContinue()
    {
        return runStop(RequestKind::ReverseContinue, 0);
    }
    StopInfo
    reverseStep(uint64_t n = 1)
    {
        return runStop(RequestKind::ReverseStep, n);
    }
    StopInfo
    runToEvent(uint64_t n)
    {
        return runStop(RequestKind::RunToEvent, n);
    }
    ///@}

    /** @name The in-flight operation
     * Forward verbs (cont, stepi, run-to-end) advance one bounded
     * travel per step; the reverse verbs and run-to-event drive one
     * TimeTravel goal whose restore is the first step. A post-attach
     * set-watch / set-break that needs a rebuild commits the new
     * machinery in its first step, then replays back to the session's
     * position by instrumentation-invariant coordinates (instruction
     * stamps, re-found event parks), because new instrumentation
     * shifts µop times. Resurrection re-attaches in its first step,
     * then seeks µop-exactly along the injected log, keeping the
     * explored future's marks.
     *
     * A travel in flight is abandoned by the next begin(). A started
     * rebuild or resurrection never is: a verb begun behind one waits,
     * and step() lands the leftover first, so no verb ever runs on
     * half-rebuilt machinery. */
    ///@{
    /** Is @p kind a verb begin() accepts (the exec verbs plus
     *  set-watch / set-break)? */
    static bool isLongVerb(RequestKind kind);
    /** Start @p req (never throws). True when it completed outright (a
     *  spec collected or re-armed without a rebuild, or a typed
     *  refusal): finish() is ready without any step(). */
    bool begin(const Request &req);
    /** Start resurrecting this freshly constructed session from
     *  @p img (see Durable sessions). */
    bool begin(const persist::SessionImage &img);
    /** Advance the op by up to @p budget application instructions
     *  (0 = to completion). True when it is done. */
    bool step(uint64_t budget);
    /** The finished op's Response: a stop, an index, or a typed
     *  refusal / error. */
    Response finish();
    /** begin + step(0) until done + finish. */
    Response run(const Request &req);
    /** run() with the in-flight op set aside and resumed afterwards:
     *  a spec edit landing at a slice boundary of a running job. */
    Response runBeside(const Request &req);
    ///@}

    /**
     * Interval-parallel reconstruction of the explored timeline on
     * share-nothing replicas (replay/interval_replay.hh): every
     * checkpoint interval is replayed independently and the results
     * are stitched by digest. The returned report's finalDigest must
     * equal digest() bit-for-bit — the determinism proof a client can
     * ask for over the wire (replay-verify).
     */
    IntervalReplay::Report verifyReplay(unsigned workers);
    /** The underlying plan, for callers that schedule the interval
     *  workers themselves (the server drains its pool with sibling
     *  jobs). Null before attach. */
    std::unique_ptr<IntervalReplay> beginIntervalReplay();
    /** Why beginIntervalReplay() returned null. */
    static constexpr const char *NoReplayableTimeline =
        "no replayable timeline (attach first)";
    /** The replay-verify reply to @p resp's request: the stitched
     *  digest and the per-range end digests, or @p rep's error. */
    static Response replayVerifyReply(Response resp,
                                      const IntervalReplay::Report &rep);

    /** Position-only stop record for the current state (reports an
     *  interrupted job's landing point). */
    StopInfo currentStop();

    /** @name Durable sessions (hibernation / resurrection)
     * exportImage() captures everything persist::SessionImage records —
     * the spec set and the replay log, not memory pages. A fresh
     * session resurrects from such an image (begin(img) + step()) by
     * re-attaching identical machinery, injecting the recorded log,
     * and seek-replaying from time zero to the persisted µop position
     * (checkpoints re-taken, marks re-verified on the way). Completion
     * verifies the landing position, the state digest, and the
     * checkpoint-chain positions against the image — any mismatch
     * detaches the session and finishes with a typed error rather
     * than admitting divergent state. */
    ///@{
    /** Fill @p img from the live session (id/workload left to the
     *  caller). Refuses — with a reason in @p err — while a rebuild,
     *  resurrection, or sliced travel is in flight. */
    bool exportImage(persist::SessionImage &img,
                     std::string *err = nullptr);
    ///@}

    /** Why the last refused verb (setWatch/setBreak rebuild) was
     *  refused — a typed, actionable message naming the offending
     *  journal entry when a rebuild has no instrumentation-invariant
     *  replay. Empty when nothing was refused. */
    const std::string &lastRefusal() const { return refusal_; }

    /** @name Debug tools (src/tools/)
     * Enable/disable are logged interventions: replay re-arms the tool
     * at the same stream position, reverse travel unwinds it, and a
     * resurrected session re-derives identical tool state. */
    ///@{
    bool toolEnable(const std::string &name,
                    const std::vector<std::pair<std::string,
                                                std::string>> &cfg,
                    std::string *err = nullptr);
    bool toolDisable(const std::string &name, std::string *err = nullptr);
    /** Registered tools, comma-joined; enabled ones carry a '*'. */
    std::string toolList() const;
    /** Report text + serialized-state digest of an enabled tool. */
    bool toolReport(const std::string &name, std::string *out,
                    uint64_t *digest, std::string *err = nullptr);
    ///@}

    /** @name State access
     * Reads work before attach (against a loaded preview of the
     * unmodified image); writes before attach are recorded and
     * re-applied when the real target comes up, and writes after
     * attach are logged interventions on the timeline. Register index
     * 32 addresses the PC, which only a write before attach may set. */
    ///@{
    std::vector<uint64_t> readRegisters();
    uint64_t readRegister(unsigned index);
    bool writeRegister(unsigned index, uint64_t value);
    std::vector<uint8_t> readMemory(Addr addr, size_t len);
    bool writeMemory(Addr addr, unsigned size, uint64_t value);
    ///@}

    /** Number of registers a session exposes (32 integer + pc). */
    static constexpr unsigned NumSessionRegs = NumIntRegs + 1;
    static constexpr unsigned PcRegIndex = NumIntRegs;

    /** @name Introspection */
    ///@{
    SessionStats stats() const;
    EventQueue &events() { return events_; }
    const Program &program() const { return program_; }
    BackendKind backendKind() const { return opts_.debugger.backend; }
    bool detached() const { return detached_; }
    /** Digest of the user-visible state (parity tests). */
    uint64_t digest();
    /** Timeline events discovered so far. */
    size_t eventCount() const;
    /** The timeline's cost counters; non-null whenever attached. */
    const TimeTravel::Stats *travelStats() const;
    ///@}

    /** @name Escape hatches (in-process callers only) */
    ///@{
    DebugTarget &target();
    Debugger &debugger();
    TimeTravel &timeTravel();
    ///@}

    bool detach();

  private:
    using Poke = persist::SessionImage::Poke;

    /** The specs one build installs: ascending session indices. The
     *  backend's watch (break) i is the session's watches[i]
     *  (breaks[i]). */
    struct InstallSet
    {
        std::vector<int> watches, breaks;
    };

    /** Freshly built (not yet committed) machinery for one attach. */
    struct Machinery
    {
        std::unique_ptr<DebugTarget> target;
        std::unique_ptr<Debugger> debugger;
        InstallSet installed;
    };

    /** An event park the rebuild-replay must re-find on the rebuilt
     *  timeline: the parked-on mark's instrumentation-invariant
     *  identity (kind, pc, appInsts, owner, address) plus its absolute
     *  occurrence index among identical marks of the old timeline.
     *  `seen`/`reached` are replay-side scan state. */
    struct ParkGoal
    {
        EventMark mark{};
        int sessIdx = -1;
        Addr addr = 0;
        int occurrence = 0;
        int seen = 0;
        bool reached = false;
    };

    /** Resumable state of a post-attach rebuild-replay. */
    struct RebuildPlan
    {
        bool parkedAtHalt = false;
        uint64_t targetInsts = 0;
        /** Event parks holding journal entries or the session's
         *  position, time order. */
        std::vector<ParkGoal> parks;
        /** Index into parks of the session's own park, or -1 when it
         *  sits on an instruction boundary or the halt. */
        int finalPark = -1;
        /** The old log's interventions up to the session's position,
         *  re-recorded in order. */
        std::vector<Intervention> journal;
        /** Journal-parallel: index into parks of the park the entry
         *  was recorded at, or -1 (an instruction boundary). */
        std::vector<int> journalPark;
        size_t nextJournal = 0;
        /** Mark scan cursor over the rebuilt timeline; every scanned
         *  mark feeds every goal's occurrence count, so goals sharing
         *  an identity stay consistent. */
        size_t scanned = 0;
    };

    /** The one in-flight op. */
    struct Op
    {
        /** The verb. A stepi's or run-to-end's count is the
         *  instructions still to run. */
        Request req;
        /** A resurrection from an image (req unused). */
        bool resurrect = false;
        bool started = false;
        bool done = true;
        Response resp;
    };

    bool startOp(const Request &req);
    bool beginSpec(const Request &req);
    int findSpec(const Request &req) const;
    int registerSpec(const Request &req);
    bool advance(uint64_t budget, bool first);
    bool stepTravel(uint64_t budget, bool first);
    bool startRebuild();
    bool startResurrect();
    bool stepResurrect(uint64_t budget, bool first);
    bool opFail(ResponseStatus status, const std::string &msg);
    /** A started rebuild or resurrection that must land before
     *  another verb runs. */
    bool opPinned() const;
    StopInfo runStop(RequestKind kind, uint64_t count);
    DebugTarget &ensurePeekTarget();
    static void applyPoke(DebugTarget &t, const Poke &p);
    void recordPoke(const Poke &p);
    bool resurrectFinish();
    InstallSet specsToInstall(const std::vector<ParkGoal> &parks) const;
    bool buildMachinery(Machinery &m, const InstallSet &set);
    void commitMachinery(Machinery &m);
    /** Build @p set and commit it; false (session untouched) when the
     *  backend cannot implement it. */
    bool install(const InstallSet &set);
    bool rebuildBegin();
    bool replayRebuild(uint64_t maxInsts);
    void markDetail(const EventMark &mk, int &sessIdx, Addr &addr) const;
    bool isParkMark(const ParkGoal &g, const EventMark &mk) const;
    void pumpEvents();
    const EventMark *findMark(EventKind kind, int index);
    /** An event stop is muted when every mark of its µop is; otherwise
     *  @p stop is moved to the last unmuted one. */
    bool stopIsMuted(StopInfo &stop) const;
    Response dispatch(const Request &req);

    Program program_;
    SessionOptions opts_;

    // Configuring-phase state.
    std::vector<WatchSpec> pendingWatches_;
    std::vector<BreakSpec> pendingBreaks_;
    std::vector<Poke> pendingPokes_;

    // Live-phase state, one install's machinery. Declared in
    // dependency order, so the timeline goes first, then the debugger,
    // then the target it runs on.
    std::unique_ptr<DebugTarget> target_;
    std::unique_ptr<Debugger> debugger_;
    ReplayLog log_;
    std::unique_ptr<TimeTravel> tt_;
    /** Loaded-but-undebugged image for pre-attach peeks. */
    std::unique_ptr<DebugTarget> preview_;
    bool detached_ = false;

    std::set<int> mutedWatches_;
    std::set<int> mutedBreaks_;
    /** What the live machinery installed (see InstallSet). */
    InstallSet installed_;

    Op op_;
    /** A verb begun while a pinned op was unfinished (see begin()). */
    std::optional<Request> queued_;
    RebuildPlan rebuild_;
    /** The image an in-flight resurrection replays and checks. */
    persist::SessionImage resurrect_;
    /** See lastRefusal(). */
    std::string refusal_;

    EventQueue events_;
    /** Circular-scan hint into the replay log's mark list (used to
     *  stamp announced events with their mark positions). */
    size_t markCursor_ = 0;
    // Backend event-list positions already announced on the queue.
    size_t announcedWatch_ = 0;
    size_t announcedBreak_ = 0;
    size_t announcedProt_ = 0;
    size_t announcedToolFindings_ = 0;
    uint64_t announcedCheckpoints_ = 0;
    uint64_t announcedRestores_ = 0;
    uint64_t announcedPagesRestored_ = 0;
    bool announcedHalt_ = false;
};

} // namespace dise

#endif // DISE_SESSION_DEBUG_SESSION_HH
