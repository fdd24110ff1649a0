/**
 * @file
 * A GDB Remote Serial Protocol stub over a DebugSession.
 *
 * Implements the core packet set a stock gdb needs to drive any of the
 * five watchpoint backends over TCP — `qSupported`, `?`, `g`/`G`,
 * `p`/`P`, `m`/`M`, `Z`/`z`, `c`/`s`, `vCont`/`vCont?` — plus the
 * reverse-execution packets `bc`/`bs`, which map straight onto the
 * time-travel session's reverseContinue()/reverseStep(), a minimal
 * `qXfer:features:read` target description (so gdb stops guessing
 * register layouts), and — when the multi-session server provides an
 * async execution hook — non-stop mode: `QNonStop:1` makes execution
 * verbs reply OK immediately, run as preemptible scheduler jobs, and
 * report their landing via server-initiated `%Stop` notifications
 * (`vStopped` acknowledges; a Ctrl-C interrupt cancels the job at a
 * slice boundary and lands as `%Stop:T02`). The protocol work is
 * transport-free (RspConnection::handlePacket() maps one decoded
 * payload to one reply payload), so tests drive the full command set
 * in-process; RspConnection::serve() adds the framing, ack handling,
 * and retransmit on NAK over any connected socket.
 *
 * An RspConnection holds one client's protocol state (Z-packet maps,
 * last stop) over one DebugSession. Long verbs go through an optional
 * ExecFn hook, which the multi-session server (src/server/) uses to
 * route `c`/`s`/`bc`/`bs` and `Z` onto its job scheduler so many
 * sessions share a bounded worker pool. That server's listener accepts
 * the TCP connections and hands each RSP client its own session.
 *
 * Session mapping notes:
 *  - `Z2`/`Z4` (write/access watchpoint) and `Z0`/`Z1` (breakpoints)
 *    register specs on the session; the machinery installs at the
 *    first resume, and a `Z` after the target ran rebuilds + replays
 *    as a scheduler job, so post-attach insertion just works without
 *    freezing the server. Re-inserting an identical spec re-arms it
 *    and `z` mutes it — answered on the connection thread, with no
 *    scheduler round trip — which matches gdb's remove/insert cycle
 *    around every continue.
 *  - A watchpoint stop replies `T05watch:<addr>;` with the trapped
 *    data address and the PC as register 0x20, so the client sees the
 *    identical stop location the in-process session reports.
 *  - `bc` from the beginning of history replies
 *    `T05replaylog:begin;`, gdb's "end of replay log" notation.
 */

#ifndef DISE_RSP_SERVER_HH
#define DISE_RSP_SERVER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "rsp/packet.hh"
#include "session/debug_session.hh"

namespace dise::rsp {

/** One RSP client's protocol state over one DebugSession. */
class RspConnection
{
  public:
    /**
     * Execution hook: run the long verb @p req (a resume, or a `Z`),
     * filling @p out. Returns false (with @p err) when the session
     * cannot run — e.g. it was destroyed mid-request. When empty,
     * verbs execute directly on the session in the calling thread.
     */
    using ExecFn = std::function<bool(const Request &req, Response &out,
                                      std::string *err)>;

    /**
     * Async completion of a non-stop execution verb: @p interrupted
     * marks a job stopped between slices by an interrupt (gdb Ctrl-C
     * → `%Stop:T02`). Runs on a scheduler worker thread.
     */
    using AsyncDoneFn = std::function<void(
        bool ok, bool interrupted, const StopInfo &stop,
        const std::string &err)>;
    /**
     * Start @p kind asynchronously; returns a canceller (empty on
     * failure) that interrupts the job at its next slice boundary.
     * Provided by the multi-session server (the job scheduler); when
     * absent, QNonStop is not advertised and execution stays
     * synchronous.
     */
    using AsyncExecFn = std::function<std::function<void()>(
        RequestKind kind, uint64_t count, AsyncDoneFn done)>;

    /**
     * Peek serialization: returns a held lock that excludes the
     * scheduler worker driving this session's job, so a read-only
     * packet (`g`/`p`/`m`, monitor tool verbs) lands exactly at a
     * slice boundary while a non-stop job is in flight. When empty,
     * busy peeks run unlocked (single-threaded embeddings).
     */
    using PeekLockFn = std::function<std::unique_lock<std::mutex>()>;

    explicit RspConnection(DebugSession &session, ExecFn exec = {},
                           bool verbose = false);

    /** Enable non-stop support (see AsyncExecFn). */
    void setAsyncExec(AsyncExecFn fn) { asyncExecFn_ = std::move(fn); }
    /** Serialize busy peeks against the job's slices (see PeekLockFn). */
    void setPeekLock(PeekLockFn fn) { peekLockFn_ = std::move(fn); }
    /** Hold the returned lock around every packet serve() handles, so
     *  other readers of the session (a server's stats) see it only
     *  between packets. */
    void setPacketLock(PeekLockFn fn) { packetLockFn_ = std::move(fn); }

    /**
     * The transport-free core: map one decoded packet payload to the
     * reply payload. Sets wantClose() on `D`/`k`.
     */
    std::string handlePacket(const std::string &payload);
    bool wantClose() const { return wantClose_; }

    /**
     * Serve a connected socket until detach/kill/EOF: framing, acks,
     * retransmit on NAK. Blocking; shut the fd down to unblock.
     */
    void serve(int fd);

    /** Packets served (tests/diagnostics). */
    uint64_t packetsHandled() const { return packetsHandled_; }

  private:
    /**
     * State shared between the serving thread and async-completion
     * callbacks (scheduler workers). Lives in a shared_ptr so a
     * callback landing after the connection object died only touches
     * this — and finds the socket closed.
     */
    struct AsyncState
    {
        std::mutex mu;
        int fd = -1;       ///< valid while open
        bool open = false; ///< serve() is inside its socket loop
        bool running = false; ///< a non-stop job is in flight
        bool havePending = false;
        std::string pendingReply; ///< stop-reply payload for vStopped
        std::function<void()> cancel;

        /** Frame and send a `%payload#xx` notification (no-op once
         *  the socket closed). */
        bool notify(const std::string &payload);
    };

    bool exec(const Request &req, Response &out, std::string *err);
    /** Run a resume verb; returns its stop reply (or, non-stop, the
     *  immediate reply). */
    std::string execReply(RequestKind kind, uint64_t count);
    int insertSpec(const Request &req);
    /** Start a non-stop job for @p kind; returns the immediate reply
     *  ("OK", or an error). */
    std::string execAsync(RequestKind kind, uint64_t count);
    std::string stopReply(const StopInfo &stop);
    /** Payload-only builder, safe from any thread. */
    static std::string buildStopReply(DebugSession &session,
                                      const StopInfo &stop,
                                      bool interrupted);
    std::string handleQuery(const std::string &payload);
    std::string handleVPacket(const std::string &payload);
    std::string handleInsert(const std::string &payload, bool insert);
    std::string handleReadMem(const std::string &payload);
    std::string handleWriteMem(const std::string &payload);
    std::string handleReadRegs();
    std::string handleWriteRegs(const std::string &payload);
    /** The target description served via qXfer:features:read. */
    static const std::string &targetXml();

    DebugSession &session_;
    ExecFn execFn_;
    AsyncExecFn asyncExecFn_;
    PeekLockFn peekLockFn_;
    PeekLockFn packetLockFn_;
    bool verbose_ = false;
    bool wantClose_ = false;
    bool nonStop_ = false;
    /** The packet being handled holds the peek lock beside a running
     *  non-stop job: spec edits apply in place (runBeside). */
    bool beside_ = false;
    uint64_t packetsHandled_ = 0;
    std::shared_ptr<AsyncState> async_;

    /** Z-packet spec → session watch/break index (for z lookups). */
    std::map<std::string, int> zWatches_;
    std::map<std::string, int> zBreaks_;

    /** Last stop, replayed by `?`. */
    bool haveStop_ = false;
    StopInfo lastStop_{};
};

} // namespace dise::rsp

#endif // DISE_RSP_SERVER_HH
