/**
 * @file
 * The multi-session debug server: one process, one TCP port, many
 * concurrent targets, two protocols. Every session lives in this
 * process's one session table; the scheduler's worker pool spreads
 * their slices across the cores.
 *
 * Every accepted connection is sniffed on its first byte:
 *
 *  - GDB-RSP traffic ('+', '-', '$', 0x03) gets a dedicated,
 *    per-connection session (gdb's one-target model) created under
 *    the --max-sessions admission cap and destroyed when the client
 *    detaches — two gdbs against one daemon debug two independent
 *    targets.
 *  - Anything else speaks the typed line protocol
 *    (session/protocol.hh), extended with the session-* verbs:
 *    session-create / session-select / session-destroy bind the
 *    connection to any shared session in the table, session-list
 *    enumerates, and server-stats reports the rolled-up aggregates.
 *
 * Every long-running operation from either protocol — forward resumes,
 * reverse replays, post-attach rebuild-replays (wire set-watch, RSP
 * `Z`), resurrection, interval-parallel replay workers — runs as a
 * preemptible Job on the JobScheduler, which bounds concurrent
 * simulation and round-robins runnable jobs in µop slices; everything
 * else touches the session directly, under its lock (held per wire
 * verb on shared sessions, per packet on exclusive RSP ones).
 *
 * Typed-wire clients may `subscribe` to their selected session: every
 * queued SessionEvent is then pushed as a server-initiated `event`
 * line (ordered by queue seq) at job-slice and verb boundaries, so
 * clients stop polling. RSP clients get the async analogue via
 * non-stop `%Stop` notifications (src/rsp/).
 */

#ifndef DISE_SERVER_SERVER_HH
#define DISE_SERVER_SERVER_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/vfs.hh"
#include "server/job_scheduler.hh"
#include "server/listener.hh"
#include "server/session_manager.hh"

namespace dise::server {

struct DebugServerOptions
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;
    /** Admission cap on concurrent sessions (0 = unlimited). */
    unsigned maxSessions = 8;
    /** Scheduler worker threads (0 = hardware concurrency). */
    unsigned slots = 0;
    /** Application instructions per execution slice. */
    uint64_t sliceInsts = 50000;
    bool verbose = false;
    /** Template for new sessions (checkpoint interval etc.). */
    SessionOptions session{};
    /** Defaults for per-connection RSP sessions. */
    BackendKind defaultBackend = BackendKind::Dise;
    std::string defaultWorkload = "demo";
    /** Session-store directory; empty = no durability (hibernate /
     *  persist verbs report errors, crashes lose sessions). start()
     *  opens the store, quarantines anything corrupt, and re-admits
     *  every valid image as a hibernated session. */
    std::string storeDir;
    /** When set, every store filesystem primitive and every scheduler
     *  slice boundary consults it (chaos testing). Not owned. */
    persist::FaultInjector *faults = nullptr;
};

class DebugServer
{
  public:
    explicit DebugServer(DebugServerOptions opts = {},
                         SessionManager::ProgramFactory factory = {});
    ~DebugServer();

    DebugServer(const DebugServer &) = delete;
    DebugServer &operator=(const DebugServer &) = delete;

    /** Bind + listen on 127.0.0.1 and start accepting in the
     *  background. Returns false on socket errors. */
    bool start();
    /** The bound port (valid after start()). */
    uint16_t port() const { return listener_.port(); }
    /** Block until stop() (the daemon's foreground wait). */
    void wait();
    /** Close the listener, hang up every client, join all threads. */
    void stop();

    SessionManager &sessions() { return manager_; }
    JobScheduler &scheduler() { return sched_; }
    /** The on-disk store (nullptr without --store-dir). */
    persist::SessionStore *store() { return store_.get(); }
    /** Session rollups + scheduler counters, one snapshot. */
    ServerStats stats() const;
    uint64_t connectionsServed() const { return listener_.accepted(); }

  private:
    /** Per-connection outbound line channel: responses and pushed
     *  events interleave whole-line-atomically under one mutex. */
    struct WireOut;
    /** EventSink writing `event` lines onto a wire connection. */
    class WireSink;
    /** A wire connection's state: selected session + subscriptions. */
    struct WireConn;

    void serveRsp(int fd);
    void serveWire(int fd);
    /** One typed-wire request → one response, with connection-local
     *  session selection. */
    Response handleWire(const Request &req, WireConn &conn);
    Response driveReplayVerify(ManagedSession &s, const Request &req);

    DebugServerOptions opts_;
    SessionManager manager_;
    JobScheduler sched_;

    /** Durable-session machinery (only with a storeDir). The real VFS
     *  is wrapped by a FaultyVfs when a FaultInjector is configured,
     *  so chaos runs exercise the exact production code paths. */
    persist::RealVfs realVfs_;
    std::unique_ptr<persist::FaultyVfs> faultyVfs_;
    std::unique_ptr<persist::SessionStore> store_;

    /** trace-dump render cache: chunked fetches re-read one rendered
     *  JSON string instead of re-walking the rings per chunk. The
     *  tracer generation invalidates it across re-arms. */
    std::mutex traceMu_;
    std::string traceJson_;
    uint64_t traceJsonGen_ = ~0ull;

    /** Last: its connection threads use every member above. */
    Listener listener_;
};

} // namespace dise::server

#endif // DISE_SERVER_SERVER_HH
