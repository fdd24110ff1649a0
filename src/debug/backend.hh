/**
 * @file
 * The debugger-backend interface: one implementation per watchpoint
 * technique the paper evaluates (single-stepping, virtual memory,
 * hardware registers, static binary rewriting, and DISE).
 *
 * A backend (1) installs its machinery into the target before it is
 * loaded, and (2) acts as the DebugMonitor observing the run in
 * functional order to classify debugger transitions and record
 * user-visible events. The common host-side state (shadow values,
 * event lists, and the event sequence counter) lives here, which also
 * lets the checkpoint subsystem snapshot and restore any backend's
 * dynamic state uniformly (BackendSnapshot).
 */

#ifndef DISE_DEBUG_BACKEND_HH
#define DISE_DEBUG_BACKEND_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/microop.hh"
#include "debug/target.hh"
#include "debug/watch.hh"
#include "tools/toolset.hh"

namespace dise {

/** Breakpoint request. */
struct BreakSpec
{
    Addr pc = 0;
    std::string name;
    /** Conditional: only invoke the user when mem[condAddr] == const. */
    bool conditional = false;
    Addr condAddr = 0;
    unsigned condSize = 8;
    uint64_t condConst = 0;
};

/**
 * Everything host-side a backend mutates while the target runs:
 * watchpoint shadow state, the recorded event lists, and the event
 * sequence counter. A checkpoint captures this alongside the target's
 * architectural state so that deterministic re-execution from the
 * checkpoint re-derives the exact same event stream.
 */
struct BackendSnapshot
{
    size_t watchEvents = 0;
    size_t breakEvents = 0;
    size_t protectionEvents = 0;
    uint64_t seq = 0;
    std::vector<WatchStateSnap> watches;
    /** Serialized debug-tool state, one blob per enabled tool. */
    tools::ToolSet::Blobs tools;
};

class DebugBackend : public DebugMonitor
{
  public:
    ~DebugBackend() override = default;

    virtual std::string name() const = 0;

    /**
     * Install watchpoints/breakpoints. Called once, before
     * target.load(). May modify target.program (rewriting), the engine
     * (DISE), page protections, etc. Returns false if the technique
     * cannot implement the request (the paper's "no experiment" cases,
     * e.g. INDIRECT under virtual memory).
     */
    virtual bool install(DebugTarget &target,
                         const std::vector<WatchSpec> &watches,
                         const std::vector<BreakSpec> &breaks) = 0;

    /** Called after target.load() for memory-dependent setup. */
    virtual void prime(DebugTarget &target) {}

    /**
     * A debugger write of @p bytes at @p addr (a poke) has just reached
     * target memory. A debugger write is never a watch event: every
     * watch it overlaps takes the written bytes into its host shadow
     * (WatchState::refresh) and its in-application state
     * (refreshWatch); watches it misses are left alone.
     */
    void
    onPoke(DebugTarget &target, Addr addr, unsigned bytes)
    {
        for (size_t i = 0; i < watches_.size(); ++i)
            if (watches_[i].refresh(target.mem, addr, bytes))
                refreshWatch(target, i);
    }

    /** Stream hooks this backend needs. */
    virtual StreamEnv
    streamEnv(DebugTarget &target)
    {
        StreamEnv env;
        env.monitor = this;
        env.sink = &target.sink;
        tools_.bind(&target);
        env.observer = &tools_;
        env.jit = target.jit();
        env.events = &eventsRecorded_;
        return env;
    }

    /**
     * Whether enabled debug tools should install their DISE production
     * sets into the target's engine (DISE backend only; the others run
     * the same host-side detection without in-pipeline payloads).
     */
    virtual bool usesDiseProductions() const { return false; }

    /** The debug tools enabled on this backend. */
    tools::ToolSet &tools() { return tools_; }
    const tools::ToolSet &tools() const { return tools_; }

    const std::vector<WatchEvent> &watchEvents() const
    {
        return watchEvents_;
    }
    const std::vector<BreakEvent> &breakEvents() const
    {
        return breakEvents_;
    }
    const std::vector<ProtectionEvent> &protectionEvents() const
    {
        return protectionEvents_;
    }

    size_t
    totalEvents() const
    {
        return watchEvents_.size() + breakEvents_.size() +
               protectionEvents_.size();
    }

    /**
     * Monotonic count of events ever recorded (never decremented, not
     * even when restoreHost() rolls the event lists back). Record-mode
     * pollers compare it against their last-seen value and skip the
     * per-µop event-list scans entirely while it is unchanged —
     * batching detection behind one integer compare.
     */
    uint64_t eventsRecorded() const { return eventsRecorded_; }

    /** @name Checkpoint support (time-travel debugging) */
    ///@{
    BackendSnapshot
    snapshotHost() const
    {
        BackendSnapshot s;
        s.watchEvents = watchEvents_.size();
        s.breakEvents = breakEvents_.size();
        s.protectionEvents = protectionEvents_.size();
        s.seq = seq_;
        s.watches.reserve(watches_.size());
        for (const auto &w : watches_)
            s.watches.push_back(w.save());
        s.tools = tools_.snapshot();
        return s;
    }

    /**
     * Seed the event lists with an already-recorded history prefix (an
     * interval-replay replica adopting the live session's events up to
     * its starting checkpoint, so per-kind indices — and state digests
     * — line up with the original). Does not advance eventsRecorded():
     * these are adopted, not detected.
     */
    void
    adoptEvents(const std::vector<WatchEvent> &watches,
                const std::vector<BreakEvent> &breaks,
                const std::vector<ProtectionEvent> &protections)
    {
        watchEvents_ = watches;
        breakEvents_ = breaks;
        protectionEvents_ = protections;
    }

    void
    restoreHost(const BackendSnapshot &s)
    {
        watchEvents_.resize(s.watchEvents);
        breakEvents_.resize(s.breakEvents);
        protectionEvents_.resize(s.protectionEvents);
        seq_ = s.seq;
        for (size_t i = 0; i < watches_.size() && i < s.watches.size();
             ++i)
            watches_[i].restore(s.watches[i]);
        tools_.restore(s.tools);
    }
    ///@}

  protected:
    /** Re-derive watch @p i's in-application state from memory (after
     *  a poke overlapped it). Backends that check in the host have
     *  none. */
    virtual void refreshWatch(DebugTarget &target, size_t i) {}

    /**
     * Record the watches that changed at a trap raised by an
     * in-application check (DISE's handler, binary rewriting's). A
     * conditional check keeps the values of the changes its predicate
     * prunes, so the host's last seen value of a conditional watch may
     * be older than the check's. When @p trapPc is a check's trap site
     * (checkTraps_), the conditional watches from its watch on take
     * the values their checks hold: the trapping one its @p old value
     * of the quad at @p quad, the later ones checkedValue(). A later
     * one that changed is reported here and re-primed, so its own check
     * in the same run of the handler stays quiet.
     */
    void
    recordCheckedWatches(DebugTarget &target, Addr trapPc, Addr quad,
                         uint64_t old, Addr pc)
    {
        auto site = checkTraps_.find(trapPc);
        const size_t fired =
            site == checkTraps_.end() ? watches_.size() : site->second;
        for (size_t i = 0; i < watches_.size(); ++i) {
            WatchState &w = watches_[i];
            const bool adopt = w.spec().conditional && i >= fired;
            if (adopt)
                w.adoptCheck(target.mem, quad,
                             i == fired ? old : checkedValue(i, quad));
            auto ch = w.evaluate(target.mem);
            if (ch && w.predicatePasses(ch->newValue))
                recordWatch(static_cast<int>(i), *ch, seq_, pc);
            if (ch && adopt && i > fired)
                refreshWatch(target, i);
        }
    }

    /** The value watch @p i's in-application check last saw: the
     *  watched value, or a range watch's shadow of the quad at
     *  @p quad. Backends that check in the host have none. */
    virtual uint64_t checkedValue(size_t i, Addr quad) const { return 0; }

    void
    recordWatch(int idx, const WatchChange &ch, uint64_t seq,
                Addr pc = 0)
    {
        watchEvents_.push_back({idx, ch.addr, ch.oldValue, ch.newValue,
                                pc, seq});
        ++eventsRecorded_;
    }

    void
    recordBreak(int idx, Addr pc, uint64_t seq)
    {
        breakEvents_.push_back({idx, pc, seq});
        ++eventsRecorded_;
    }

    void
    recordProtection(Addr pc, Addr addr)
    {
        protectionEvents_.push_back({pc, addr});
        ++eventsRecorded_;
    }

    std::vector<WatchEvent> watchEvents_;
    std::vector<BreakEvent> breakEvents_;
    std::vector<ProtectionEvent> protectionEvents_;

    // Host-side per-watchpoint shadow state and the event sequence
    // counter, shared by every backend implementation.
    std::vector<WatchState> watches_;
    /** Trap sites of generated watch checks: trap PC -> watch index. */
    std::map<Addr, size_t> checkTraps_;
    std::vector<BreakSpec> breaks_;
    uint64_t seq_ = 0;
    uint64_t eventsRecorded_ = 0;
    tools::ToolSet tools_;
};

} // namespace dise

#endif // DISE_DEBUG_BACKEND_HH
