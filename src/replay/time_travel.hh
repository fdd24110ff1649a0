/**
 * @file
 * The time-travel controller: checkpointed, deterministically
 * replayable functional execution of a debugged target.
 *
 * Forward execution steps the InstStream one micro-op at a time,
 * polling the backend's event lists so every user-visible event
 * (watchpoint, breakpoint, protection violation) is pinned to an exact
 * stream position in the ReplayLog's event timeline. Periodic
 * checkpoints capture registers, the backend's host-side state, and —
 * via MainMemory's copy-on-write undo log — only the 64-byte blocks
 * dirtied since the previous checkpoint.
 *
 * Every verb — forward or reverse, a resurrection's seek included — is
 * one travel goal (TravelVerb) driven by one execution loop in bounded
 * quanta. Reverse goals are restore-and-replay: roll memory back
 * through the undo intervals to the nearest earlier checkpoint, then
 * re-execute forward to the exact target position. Because the
 * simulator is deterministic and the checkpoint restores every input
 * the stream consumes (registers, memory, backend shadow state, engine
 * match caches invalidated), replay reproduces the identical micro-op
 * and event sequence — which the controller asserts against the
 * recorded timeline as it goes.
 *
 * Debugger interventions (memory/register pokes, DISE pattern-table
 * mutations) are the nondeterministic inputs: each is stamped into the
 * ReplayLog at its stream position, re-applied when replay crosses that
 * position forward, unwound when a restore crosses it backward, and —
 * when performed after reverse travel — truncates the stale future
 * timeline. A checkpoint's state never includes the interventions
 * stamped at its own position: they apply when any goal, forward or
 * replay, continues from that position or lands on it.
 *
 * Only forward goals discover events. A replay goal re-executes the
 * recorded timeline, so every event it fires must match a recorded
 * mark; discovering one past the last mark is a divergence, asserted
 * like a mismatched mark.
 *
 * A controller can also start mid-history, at a checkpoint of another
 * timeline over identical machinery (an interval-replay replica): it
 * re-applies the engine-table and tool interventions stamped before
 * that checkpoint, restores the rest of it, and anchors its own first
 * checkpoint there. Seeks along a copy of the other timeline's log
 * then re-execute and verify it with the same loop as every verb.
 *
 * The controller works identically over all five debugger backends:
 * it only observes the DebugBackend interface.
 */

#ifndef DISE_REPLAY_TIME_TRAVEL_HH
#define DISE_REPLAY_TIME_TRAVEL_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cpu/inst_stream.hh"
#include "replay/checkpoint.hh"
#include "replay/replay_log.hh"
#include "tools/toolset.hh"

namespace dise {

class DebugTarget;
class DebugBackend;

struct TimeTravelConfig
{
    /** Application instructions between automatic checkpoints. */
    uint64_t checkpointInterval = 4096;
    /** Safety cap for cont()/runToEnd() (0 = none). */
    uint64_t maxAppInsts = 0;
};

/** Why the controller handed control back. */
enum class StopReason : uint8_t {
    Start,     ///< reached the beginning of time
    Event,     ///< a user-visible event (see eventIndex / mark)
    Step,      ///< requested step count reached
    Halted,    ///< target exited or halted
    Fault,     ///< target faulted
    InstLimit, ///< maxAppInsts safety cap
};

const char *stopReasonName(StopReason reason);
const char *eventKindName(EventKind kind);

/** The goals travelBegin() accepts: every way the controller moves. */
enum class TravelVerb : uint8_t {
    Cont,            ///< to the next event; count = absolute app-inst
                     ///< bound (0 = none), reached with reason Step
    Stepi,           ///< forward count application instructions
    RunToEnd,        ///< to the halt, passing events
    ReverseContinue, ///< back to the previous user-visible event
    ReverseStep,     ///< back count application instructions
    RunToEvent,      ///< position just after timeline event #count
    Seek,            ///< to the absolute µop position count
};

struct StopInfo
{
    StopReason reason = StopReason::Start;
    /** Global event index (position in the timeline), or -1. */
    int eventIndex = -1;
    EventMark mark{};
    /** Stream position at the stop. */
    uint64_t time = 0;
    uint64_t appInsts = 0;
    /** Architectural PC at the stop. */
    Addr pc = 0;

    /** One-line human rendering ("stopped: watch event #3 at
     *  pc=0x100005c, t=1234, 567 insts") for transcripts and test
     *  failure messages. */
    std::string describe() const;
};

std::ostream &operator<<(std::ostream &os, StopReason reason);
std::ostream &operator<<(std::ostream &os, const StopInfo &stop);

class TimeTravel
{
  public:
    /**
     * Attach to an already-loaded, backend-primed target (i.e. after
     * Debugger::attach()). Takes the time-zero checkpoint and starts
     * the copy-on-write undo log.
     */
    TimeTravel(DebugTarget &target, DebugBackend &backend, ReplayLog &log,
               TimeTravelConfig cfg = {});
    /**
     * Start at @p start, a checkpoint of another timeline recorded by
     * identical machinery, whose memory image (and the event-list and
     * output prefixes it only counts) the caller has already
     * materialized into @p target. @p log describes that timeline and
     * is written to by replay (engine ids, tool slots), so pass a copy.
     * The interventions stamped at the checkpoint's own position are
     * left pending: a Seek to time() applies them. Such a timeline
     * only moves forward: it takes no checkpoint past its start and
     * keeps no undo log, and a goal behind its position asserts.
     */
    TimeTravel(DebugTarget &target, DebugBackend &backend, ReplayLog &log,
               const Checkpoint &start, TimeTravelConfig cfg);
    ~TimeTravel();

    TimeTravel(const TimeTravel &) = delete;
    TimeTravel &operator=(const TimeTravel &) = delete;

    /** @name Travel
     * travelBegin() sets a goal (performing the cheap restore when it
     * lies in the past) and travelStep() advances toward it in bounded
     * quanta; the typed verbs below run one to completion. A travel
     * abandoned mid-way leaves the session at a valid intermediate
     * position. Forward goals (every cont, stepi and run-to-end)
     * discover events live, re-verifying the recorded marks they cross,
     * and report the last event of the stopping µop. Replay goals
     * (reverse verbs, run-to-event to a known mark, seek) re-execute
     * the recorded timeline to an exact position and report the mark
     * they aimed at.
     */
    ///@{
    /**
     * Set the goal (count: the verb's distance, bound, event number or
     * µop position). @p done is set when it was reached outright (the
     * returned stop is final); otherwise the caller must travelStep()
     * until done.
     */
    StopInfo travelBegin(TravelVerb verb, uint64_t count, bool &done);
    /**
     * Advance toward the goal by up to @p maxAppInsts application
     * instructions (0 = unbounded). Sets @p done (and finishes the
     * travel) when the goal is reached; otherwise returns the interim
     * position with reason Step.
     */
    StopInfo travelStep(uint64_t maxAppInsts, bool &done);
    bool travelActive() const { return travel_.active; }
    /** travelBegin + travelStep(0) until done. */
    StopInfo travel(TravelVerb verb, uint64_t count);

    /** Run to the next user-visible event (or halt/fault/limit). */
    StopInfo cont() { return travel(TravelVerb::Cont, 0); }
    /** Run to program end (reporting the halt, not each event). */
    StopInfo runToEnd() { return travel(TravelVerb::RunToEnd, 0); }
    /** Execute @p n application instructions. */
    StopInfo stepi(uint64_t n = 1) { return travel(TravelVerb::Stepi, n); }
    /** Travel back to the previous user-visible event. */
    StopInfo
    reverseContinue()
    {
        return travel(TravelVerb::ReverseContinue, 0);
    }
    /** Travel back @p n application instructions. */
    StopInfo
    reverseStep(uint64_t n = 1)
    {
        return travel(TravelVerb::ReverseStep, n);
    }
    /**
     * Position the session just after event @p n fired — traveling
     * backward to a known mark, or forward (discovering new events) if
     * the timeline has not reached it yet.
     */
    StopInfo
    runToEvent(size_t n)
    {
        return travel(TravelVerb::RunToEvent, n);
    }
    ///@}

    /** @name Logged debugger interventions */
    ///@{
    void pokeMemory(Addr addr, unsigned size, uint64_t value);
    void pokeRegister(RegId r, uint64_t value);
    ProductionId addProduction(const Production &p);
    void removeProduction(ProductionId id);
    /**
     * Enable/disable a debug tool as a logged intervention, so replay
     * re-arms it at the same stream position and reverse travel
     * unwinds it. Validated up front; failures leave the timeline
     * untouched.
     */
    bool enableTool(const std::string &name,
                    const tools::ToolSet::Config &cfg, std::string *err);
    bool disableTool(const std::string &name, std::string *err);
    /**
     * Record @p iv, an entry of another log over this program, anew at
     * the current position: a machinery rebuild re-records the old
     * log's prefix in order, so a RemoveProduction's addIndex names the
     * same entry here.
     */
    void reapply(Intervention iv) { recordIntervention(std::move(iv)); }
    ///@}

    /** @name Position and introspection */
    ///@{
    const TimeTravelConfig &config() const { return cfg_; }
    uint64_t time() const { return time_; }
    uint64_t appInsts() const { return appInsts_; }
    bool halted() const { return halted_; }
    /** Events fired at or before the current position. */
    size_t eventsSoFar() const { return curEvents_; }
    /** Events discovered on the whole known timeline. */
    size_t eventCount() const { return log_.marks.size(); }
    size_t checkpointCount() const { return cps_.size(); }
    const std::vector<Checkpoint> &checkpoints() const { return cps_; }
    /** Undo-log bytes held now: every sealed interval plus the open
     *  one. A restore drops the intervals it consumed. */
    uint64_t historyBytes() const;
    /** Digest of the current user-visible state (replay validation). */
    uint64_t digest() const;
    ///@}

    /** Cumulative cost counters (bench/checkpoint.cc). */
    struct Stats
    {
        uint64_t checkpointsTaken = 0;
        /** Each sealed interval's distinct dirtied pages, summed. */
        uint64_t pagesCopied = 0;
        uint64_t bytesCopied = 0; ///< UndoLog::bytes() of those intervals
        uint64_t restores = 0;
        /** Each applied interval's distinct pages, summed. */
        uint64_t pagesRestored = 0;
        uint64_t replayedUops = 0; ///< µops re-executed by travel
        uint64_t uops = 0;         ///< total µops executed (incl. replay)
    };
    const Stats &stats() const { return stats_; }

  private:
    bool atBoundary() const;
    void ensureStream();
    bool stepUop(bool &firedEvent);
    /** Pin any events the backend recorded since the last poll to the
     *  current stream position (verifying against the known timeline
     *  when replaying). Shared by stepUop() and bulkStep(). */
    void pollEvents(bool &firedEvent);
    /**
     * Retire µops in bulk through the target's trace cache, stopping at
     * whichever comes first: @p stopTime (absolute µop position, 0 =
     * none), @p stopAppInsts (absolute app-instruction position at a
     * boundary, 0 = none), the next pending intervention, the next
     * checkpoint position, cfg_.maxAppInsts, an event, or a trace side
     * exit. Returns the µops retired (0 = no trace applied; fall back
     * to stepUop). Event pinning and position accounting are identical
     * to the equivalent stepUop sequence.
     */
    uint64_t bulkStep(uint64_t stopTime, uint64_t stopAppInsts,
                      bool &firedEvent);
    void takeCheckpoint();
    void maybeCheckpoint();
    size_t checkpointAtOrBefore(uint64_t time) const;
    void restoreTo(size_t cpIdx);
    /** Take @p cp's registers, host state, output lengths and position;
     *  memory and interventions are the caller's. */
    void resumeAt(const Checkpoint &cp);
    void replayToTime(uint64_t targetTime, int eventIndex,
                      StopReason reach);
    StopInfo stopHere(StopReason reason, int eventIndex = -1);
    StopInfo stopFinal(StopReason reason, bool &done,
                       int eventIndex = -1);
    bool replayArrived() const;
    StopInfo replayFinish(bool &done);
    void applyIntervention(Intervention &iv);
    void unwindIntervention(Intervention &iv);
    void recordIntervention(Intervention iv);
    void replayPendingInterventions();

    DebugTarget &target_;
    DebugBackend &backend_;
    ReplayLog &log_;
    TimeTravelConfig cfg_;

    std::unique_ptr<InstStream> stream_;
    std::vector<Checkpoint> cps_;
    /** False on a timeline started at a checkpoint (forward only). */
    bool keepsHistory_ = true;
    /** Sum of cps_[i].undo.bytes(), kept as checkpoints come and go. */
    uint64_t sealedBytes_ = 0;

    uint64_t time_ = 0;     ///< µops executed at the current position
    uint64_t appInsts_ = 0; ///< app instructions retired
    bool halted_ = false;
    HaltReason haltReason_ = HaltReason::None;

    /** Events (watch+break+protection) at the current position. */
    size_t curEvents_ = 0;
    /** Per-kind backend event-list sizes already accounted for. */
    size_t seenWatch_ = 0;
    size_t seenBreak_ = 0;
    size_t seenProt_ = 0;
    /** Backend eventsRecorded() value already accounted for: while it
     *  is unchanged the per-µop event-list polling is skipped. */
    uint64_t seenRecorded_ = 0;
    /** Next intervention to re-apply while replaying forward. */
    size_t nextIntervention_ = 0;

    static constexpr size_t NoEventGoal = ~size_t{0};

    /** The active travel goal (see travelBegin). */
    struct TravelState
    {
        bool active = false;
        /** Re-executing the explored timeline: counts replayedUops,
         *  and a quantum may end mid-instruction. */
        bool replay = false;
        bool byTime = false; ///< replay goal in µops (targetTime)
        uint64_t targetTime = 0;
        /** Replay: the reverse-step goal. Forward: the instruction
         *  position that ends the travel (0 = none). */
        uint64_t targetInsts = 0;
        bool stopOnEvent = false;
        /** Forward discovery runs past events before this index. */
        size_t eventGoal = NoEventGoal;
        int eventIndex = -1;
        StopReason reachReason = StopReason::Step;
    };
    TravelState travel_;

    /** App-inst position of the next automatic checkpoint — the
     *  record-mode loop pays one compare instead of re-deriving it
     *  from cps_.back() (and probing the stream for a boundary) every
     *  µop. */
    uint64_t nextCheckpointAt_ = 0;
    /** Scratch µop reused across stepUop() calls (avoids the
     *  caller-side zero-initialization of a fresh local per µop;
     *  InstStream::next() fully re-initializes it anyway). */
    MicroOp scratchOp_{};

    Stats stats_;
};

} // namespace dise

#endif // DISE_REPLAY_TIME_TRAVEL_HH
