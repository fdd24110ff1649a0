/**
 * @file
 * The session table of the multi-session debug server: every session
 * the one server process hosts, as N independent DebugSession
 * instances — each with its own backend, TimeTravel controller,
 * EventQueue and memory image — created, looked up, and destroyed
 * under one admission cap. Resurrection from the store is the one path
 * that builds a session from an image.
 *
 * Sessions are share-nothing: no mutable target state is shared
 * between them, so slices of different sessions run in parallel
 * without coordination. What IS shared is the bookkeeping, and each
 * workload's program, built once and read-only:
 *
 *  - the workload name → Program cache (its own mutex; sessions copy
 *    the metadata and share the segment bytes);
 *  - the id → session map (guarded by the manager's mutex);
 *  - per-session progress counters (µops, instructions, events),
 *    published as atomics after every execution slice so
 *    server-level stat rollups never block on a running session;
 *  - admission counters (created / destroyed / rejected / peak).
 *
 * Lifetime: sessions are handed out as shared_ptr. destroy() removes
 * a session from the table and marks it closing; a client mid-run
 * observes the flag at its next slice boundary and aborts, and the
 * object is reclaimed when the last holder lets go — teardown mid-run
 * is safe by construction.
 */

#ifndef DISE_SERVER_SESSION_MANAGER_HH
#define DISE_SERVER_SESSION_MANAGER_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "persist/store.hh"
#include "session/debug_session.hh"

namespace dise::server {

/**
 * Destination for pushed session events (one per subscribed
 * connection). deliver() returning false drops the subscription — the
 * hangup path for dead or hopelessly slow consumers.
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;
    virtual bool deliver(const SessionEvent &ev) = 0;
    /** Last-gasp notification as the subscription is dropped (deliver
     *  failed). Must not block: the peer is known to be wedged, so
     *  implementations send best-effort or not at all. */
    virtual void farewell(const SessionEvent &ev) { (void)ev; }
};

/** One hosted target plus the concurrency state the serving layer
 *  needs around it. */
class ManagedSession
{
  public:
    ManagedSession(uint64_t id, std::string workload, Program prog,
                   SessionOptions opts, bool exclusive)
        : id(id), workload(std::move(workload)), exclusive(exclusive),
          session(std::move(prog), std::move(opts))
    {
    }

    const uint64_t id;
    const std::string workload;
    /** Bound to one connection (RSP's one-target model): never handed
     *  out by select; its one connection holds mu per packet. */
    const bool exclusive;

    DebugSession session;
    /** Serializes access to the session: held per wire verb on shared
     *  sessions and per packet on exclusive RSP ones. */
    std::mutex mu;
    /** Held by the scheduler worker for the duration of each job
     *  slice; RSP busy peeks (`g`/`m`/`p`, monitor tool verbs while a
     *  non-stop job runs) take it to land at a slice boundary. */
    std::mutex sliceMu;
    /** Set by destroy(); observed at the next slice boundary. */
    std::atomic<bool> closing{false};

    /** @name Published progress (read without the session lock) */
    ///@{
    std::atomic<uint64_t> uops{0};
    std::atomic<uint64_t> appInsts{0};
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> slices{0};
    /** Preemptible jobs completed on this session. */
    std::atomic<uint64_t> jobs{0};
    /** Events delivered to subscribers. */
    std::atomic<uint64_t> eventsPushed{0};
    /** Subscriptions dropped because the peer stopped draining. */
    std::atomic<uint64_t> droppedSinks{0};
    /** Logical-clock stamp of the last verb served (LRU eviction
     *  order; set via SessionManager::touch()). */
    std::atomic<uint64_t> lastTouch{0};

    /** Refresh the published counters from the session (call with
     *  exclusive session access, e.g. after a slice). */
    void
    publishProgress()
    {
        SessionStats st = session.stats();
        uops.store(st.time, std::memory_order_relaxed);
        appInsts.store(st.appInsts, std::memory_order_relaxed);
        events.store(st.events, std::memory_order_relaxed);
    }
    ///@}

    /** @name Async event push
     * Subscribers receive every queued session event in delivery
     * order. Drains happen wherever exclusive session access is
     * already held (after each job slice and each wire verb), so the
     * queue itself needs no extra locking; the sink list has its own
     * mutex because subscribe/unsubscribe arrive from other
     * connections' threads. Backpressure is the transport's: a slow
     * subscriber blocks the pushing slice boundary until its socket
     * drains or its send times out (then the sink reports failure and
     * is dropped). */
    ///@{
    void
    addSink(std::shared_ptr<EventSink> sink)
    {
        std::lock_guard<std::mutex> lk(sinkMu_);
        sinks_.push_back(std::move(sink));
    }

    void
    removeSink(const std::shared_ptr<EventSink> &sink)
    {
        std::lock_guard<std::mutex> lk(sinkMu_);
        for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
            if (*it == sink) {
                sinks_.erase(it);
                return;
            }
        }
    }

    size_t
    subscriberCount() const
    {
        std::lock_guard<std::mutex> lk(sinkMu_);
        return sinks_.size();
    }

    /** Drain the event queue to the subscribers (call with exclusive
     *  session access). With no subscribers the queue keeps
     *  accumulating for in-process consumers, as before. */
    void
    pushEvents()
    {
        std::lock_guard<std::mutex> lk(sinkMu_);
        if (sinks_.empty())
            return;
        // Spans any backpressure stall: a full socket buffer parks
        // deliver() inside this scope until TCP drains or times out.
        TRACE_SPAN("session", "session.push");
        uint64_t t0 = obs::nowNs();
        bool pushed = false;
        for (const SessionEvent &ev : session.events().drain()) {
            pushed = true;
            eventsPushed.fetch_add(1, std::memory_order_relaxed);
            for (auto it = sinks_.begin(); it != sinks_.end();) {
                if ((*it)->deliver(ev)) {
                    ++it;
                    continue;
                }
                // Graceful drop: a final best-effort farewell line so
                // the peer (if it ever drains again) learns WHY its
                // event stream went quiet, then the unsubscribe
                // bookkeeping instead of a silent erase.
                SessionEvent bye;
                bye.kind = SessionEventKind::SubscriberDropped;
                bye.time = ev.time;
                bye.appInsts = ev.appInsts;
                (*it)->farewell(bye);
                it = sinks_.erase(it);
                droppedSinks.fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (pushed)
            obs::metrics().eventPushUs.observe(obs::usSince(t0));
    }
    ///@}

  private:
    mutable std::mutex sinkMu_;
    std::vector<std::shared_ptr<EventSink>> sinks_;
};

using ManagedSessionPtr = std::shared_ptr<ManagedSession>;

struct SessionManagerOptions
{
    /** Admission cap; 0 = unlimited. */
    unsigned maxSessions = 8;
    /** Template for new sessions (backend overridden per create). */
    SessionOptions session{};
};

class SessionManager
{
  public:
    /**
     * Resolves a workload name to a Program. The default factory
     * serves "demo" (the heisenbug scenario) and the six synthetic
     * SPEC workloads by name.
     *
     * Contract: the manager calls the factory at most once per name it
     * accepts and keeps the result for every later session of that
     * name (creates, resurrections), so the factory must be a pure
     * function of the name. A name it rejects is asked again on the
     * next request.
     */
    using ProgramFactory =
        std::function<bool(const std::string &name, Program &out)>;

    explicit SessionManager(SessionManagerOptions opts = {},
                            ProgramFactory factory = {});

    /**
     * The program @p workload names, built by the factory on first
     * request and kept for the manager's lifetime; nullptr when the
     * factory rejects the name. Sessions get copies, which share the
     * kept program's segment bytes.
     */
    std::shared_ptr<const Program> program(const std::string &workload);

    /**
     * Create a session for @p workload under the admission cap. At the
     * cap, a store-backed manager hibernates the least-recently-used
     * idle session (not exclusive, no subscribers, not held by any
     * connection or job) to make room; only when nothing is evictable
     * does admission reject. Returns nullptr (and fills @p err) on an
     * unknown workload or a genuine rejection.
     */
    ManagedSessionPtr create(const std::string &workload,
                             BackendKind backend,
                             bool exclusive = false,
                             std::string *err = nullptr);

    /** Look a session up; nullptr when unknown. A hibernated id is
     *  transparently resurrected from the store (rebuild + replay to
     *  its persisted position, digest-verified); a resurrection
     *  failure quarantines the image and reports a typed error in
     *  @p err. @p forSelect additionally refuses exclusive
     *  (per-connection) sessions. */
    ManagedSessionPtr find(uint64_t id, bool forSelect = false,
                           std::string *err = nullptr);

    /**
     * Remove @p id from the table and mark it closing. In-flight
     * drivers abort at their next slice; the final per-session
     * counters fold into the retired totals. A hibernated id is
     * erased from the store instead.
     */
    bool destroy(uint64_t id);

    /** Live AND hibernated session ids. */
    std::vector<uint64_t> ids() const;
    size_t count() const;
    unsigned maxSessions() const { return opts_.maxSessions; }
    const SessionOptions &sessionTemplate() const { return opts_.session; }

    /** @name Durable sessions */
    ///@{
    /** Attach an (opened) on-disk store and re-admit its entries as
     *  hibernated sessions, resurrected lazily on first find(). */
    void adoptStore(persist::SessionStore *store);
    persist::SessionStore *store() const { return store_; }

    /** Evict @p id to the store (export + put + drop from the live
     *  table). Refuses — session intact — when it is exclusive, has
     *  subscribers, is held by a connection or job, or the persistence
     *  path fails. */
    bool hibernate(uint64_t id, std::string *err = nullptr);

    /** Write a crash-consistent image of @p id without evicting it.
     *  Fills @p digest (when given) with the persisted state digest. */
    bool persist(uint64_t id, std::string *err = nullptr,
                 uint64_t *digest = nullptr);

    /** Stamp @p ms as just-used (LRU eviction order). */
    void touch(ManagedSession &ms);
    ///@}

    /** Steps a session's begun op to completion; false (with @p err)
     *  when the run itself fails (interrupted, injected fault,
     *  scheduler stopped). The server's runs it as a scheduler job;
     *  without one, resurrection steps inline. */
    using OpRunner =
        std::function<bool(ManagedSession &s, std::string *err)>;
    void setRunner(OpRunner runner) { runner_ = std::move(runner); }

    /** Admission counters + per-session rollups (live + retired).
     *  Never blocks on a running session. */
    ServerStats stats() const;

  private:
    ManagedSessionPtr resurrect(uint64_t id, std::string *err);
    ManagedSessionPtr takeIdle(uint64_t id, std::string *err);
    bool putBack(const ManagedSessionPtr &ms);
    /** Admit the session @p make returns (called under mu_ once there
     *  is room). At the cap LRU idle victims hibernate, outside mu_, to
     *  make room; nullptr (with @p err) when nothing is evictable. */
    ManagedSessionPtr admit(const std::function<ManagedSessionPtr()> &make,
                            std::string *err);
    /** Fold @p ms's published counters into the retired totals. Call
     *  with mu_ held. */
    void retireLocked(const ManagedSession &ms);
    bool exportToStore(ManagedSession &ms, std::string *err,
                       uint64_t *digest = nullptr);
    /** Pick the LRU evictable victim id not in @p tried (0 = none).
     *  Call with mu_ held. */
    uint64_t victimLocked(const std::set<uint64_t> &tried) const;

    SessionManagerOptions opts_;
    ProgramFactory factory_;
    OpRunner runner_;

    /** Workload name → kept program; programMu_ is held across the
     *  lookup and the factory call. */
    std::mutex programMu_;
    std::map<std::string, std::shared_ptr<const Program>> programs_;

    persist::SessionStore *store_ = nullptr;
    /** Serializes resurrections (so two selects of one hibernated id
     *  produce one rebuild, the second finding it live). */
    std::mutex resurrectMu_;

    mutable std::mutex mu_;
    std::map<uint64_t, ManagedSessionPtr> sessions_;
    /** id → workload of sessions living only in the store. */
    std::map<uint64_t, std::string> hibernated_;
    std::atomic<uint64_t> clock_{0};
    uint64_t nextId_ = 1;
    uint64_t created_ = 0;
    uint64_t destroyed_ = 0;
    uint64_t rejected_ = 0;
    uint64_t peak_ = 0;
    uint64_t evictions_ = 0;
    uint64_t resurrections_ = 0;
    // Totals folded in from destroyed (or hibernated) sessions.
    uint64_t retiredUops_ = 0;
    uint64_t retiredInsts_ = 0;
    uint64_t retiredEvents_ = 0;
    uint64_t retiredJobs_ = 0;
    uint64_t retiredPushed_ = 0;
    uint64_t retiredDropped_ = 0;
};

/** The stock name → Program mapping ("demo" + the six synthetic
 *  SPEC2000 kernels). */
bool defaultProgramFactory(const std::string &name, Program &out);

} // namespace dise::server

#endif // DISE_SERVER_SESSION_MANAGER_HH
