/**
 * @file
 * The session-oriented debug protocol: every debugger capability
 * (watch/break registration, backend selection, forward and reverse
 * execution, register/memory peek-poke, statistics) expressed as typed
 * Request/Response structs with a stable, line-oriented wire encoding,
 * plus the asynchronous SessionEvent records an ordered EventQueue
 * delivers (watch hits, break hits, protection faults,
 * checkpoint/restore notices).
 *
 * The wire format is one request or response per line:
 *
 *     <verb> key=value key=value ...
 *
 * Verbs are kebab-case request names (responses use "ok" / "error" /
 * "unsupported"); integer values are decimal or 0x-hex; string values
 * are %XX-escaped (space, '%', '=', newline). Unknown keys are ignored
 * on decode, so the encoding can grow fields without breaking older
 * peers. Both the in-process DebugSession and the GDB-RSP bridge
 * (src/rsp/) speak this protocol; a remote client gets byte-identical
 * semantics to a linked-in caller.
 *
 * Each message is described once, by a table of rows in protocol.cc: a
 * row names the key, the member it reads and writes, how the value is
 * written (decimal, hex, signed, escaped string, enum token, a
 * prefix.<name>=<list> family), when encode emits it, and whether
 * decode requires it. Encode and decode both walk those rows, so adding
 * a field is adding one row.
 *
 * Decode is strict about values: a key that is present fails the
 * decode when its value does not parse, carries a minus sign on an
 * unsigned field, overflows, or does not fit its member's type —
 * whether the key is required or optional. A missing (or empty)
 * optional key keeps the member's default.
 */

#ifndef DISE_SESSION_PROTOCOL_HH
#define DISE_SESSION_PROTOCOL_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "debug/backend.hh"
#include "debug/debugger.hh"
#include "replay/time_travel.hh"

namespace dise {

/** Every operation a debug session can be asked to perform. */
enum class RequestKind : uint8_t {
    Ping,          ///< liveness / protocol check
    SelectBackend, ///< choose the watchpoint technique (pre-attach)
    SetWatch,      ///< register (or unmute) a watchpoint
    SetBreak,      ///< register (or unmute) a breakpoint
    RemoveWatch,   ///< mute delivery (indices stay stable)
    RemoveBreak,   ///< mute delivery (indices stay stable)
    Attach,        ///< install machinery + load (otherwise lazy)
    Cont,          ///< run to the next unmuted user-visible event
    Stepi,         ///< execute count application instructions
    RunToEnd,      ///< run to halt/fault/limit
    ReverseContinue, ///< travel back to the previous unmuted event
    ReverseStep,     ///< travel back count application instructions
    RunToEvent,      ///< position just after timeline event #count
    ReadRegisters,   ///< all integer registers + pc
    WriteRegister,   ///< poke one register (logged intervention)
    ReadMemory,      ///< peek bytes
    WriteMemory,     ///< poke bytes (logged intervention)
    Stats,           ///< session statistics snapshot
    Detach,          ///< end the session
    ReplayVerify,    ///< interval-parallel timeline reconstruction
                     ///< (count = worker hint); value = state digest

    // Multi-session verbs, handled by the server front end
    // (src/server/), never by a DebugSession itself.
    SessionCreate,  ///< create a target (name= workload, backend=)
    SessionSelect,  ///< bind this connection to session id=
    SessionDestroy, ///< tear a session down (even mid-run)
    SessionList,    ///< ids of every live session
    ServerStats,    ///< server-level aggregate statistics
    Subscribe,      ///< push this session's events to the connection
    Unsubscribe,    ///< stop pushing

    // Durable-session verbs (require a server started with a store).
    SessionHibernate, ///< evict session id= (default: selected) to disk
    SessionPersist,   ///< write a crash-consistent image, keep it live
    StoreStats,       ///< on-disk store statistics

    // Observability verbs, handled by the server front end.
    TraceStart, ///< arm the flight recorder (count = ring KiB/thread)
    TraceStop,  ///< disarm; recorded spans stay dumpable
    TraceDump,  ///< fetch Chrome trace JSON chunk at offset value=,
                ///< up to count= bytes; response value = total bytes
    Metrics,    ///< Prometheus text exposition of latency histograms

    // Debug-tool verbs (src/tools/): name= selects the tool; enable
    // accepts cfg.<key>=<value> pairs. With session=, the server
    // front end resolves (and if needed resurrects) that session.
    ToolEnable,  ///< arm a tool (logged intervention)
    ToolDisable, ///< disarm a tool (logged intervention)
    ToolList,    ///< registered tools, enabled ones marked
    ToolReport,  ///< tool findings/report text + state digest
};

const char *requestKindName(RequestKind kind);

/** Wire token for a backend ("dise", "single-step", "vm", "hwreg",
 *  "rewrite") and its parse — shared by the protocol decoder and the
 *  CLI tools so the two can never drift. */
const char *backendToken(BackendKind kind);
bool parseBackendToken(const std::string &token, BackendKind &kind);

/** One debug-session request. Which payload fields are meaningful
 *  depends on kind (see each kind's comment). */
struct Request
{
    RequestKind kind = RequestKind::Ping;
    /** Client-chosen id echoed in the response. */
    uint64_t seq = 0;

    BackendKind backend = BackendKind::Dise; ///< SelectBackend
    WatchSpec watch;                         ///< SetWatch
    BreakSpec brk;                           ///< SetBreak
    int index = -1;      ///< RemoveWatch / RemoveBreak
    uint64_t count = 1;  ///< Stepi / ReverseStep / RunToEvent
    Addr addr = 0;       ///< Read/WriteMemory
    unsigned size = 8;   ///< Read/WriteMemory byte count
    uint64_t value = 0;  ///< WriteMemory / WriteRegister
    unsigned reg = 0;    ///< WriteRegister flat index (32 = pc)
    uint64_t session = 0;  ///< SessionSelect / SessionDestroy id
    std::string name;      ///< SessionCreate: workload ("demo", ...);
                           ///< Tool*: tool name
    /** ToolEnable configuration, wire-encoded cfg.<key>=<value>. */
    std::vector<std::pair<std::string, std::string>> toolConfig;

    std::string describe() const;
};

enum class ResponseStatus : uint8_t {
    Ok,
    Error,       ///< malformed or invalid in the current state
    Unsupported, ///< the chosen technique cannot implement it
};

/** Session cost/position counters (Stats request). */
struct SessionStats
{
    uint64_t time = 0;     ///< stream position (µops)
    uint64_t appInsts = 0;
    size_t events = 0;       ///< timeline events discovered
    size_t checkpoints = 0;
    uint64_t pagesCopied = 0;
    uint64_t restores = 0;
    uint64_t replayedUops = 0;
    uint64_t historyBytes = 0; ///< undo-log bytes held now
    uint64_t jitUops = 0;      ///< µops retired from JIT traces
    uint64_t jitExits = 0;     ///< trace side exits
};

/** Server-level aggregates (ServerStats request): per-session stats
 *  rolled up across every live session plus totals retired by
 *  destroyed ones, and the scheduler / admission counters. */
struct ServerStats
{
    uint64_t activeSessions = 0;
    uint64_t peakSessions = 0;
    uint64_t created = 0;
    uint64_t destroyed = 0;
    uint64_t rejected = 0;    ///< admission-cap rejections
    uint64_t maxSessions = 0; ///< admission cap (0 = unlimited)
    uint64_t workers = 0;     ///< scheduler worker threads
    uint64_t slices = 0;      ///< bounded execution slices run
    uint64_t jobs = 0;        ///< preemptible jobs completed
    uint64_t totalUops = 0;   ///< µops executed, all sessions ever
    uint64_t totalAppInsts = 0;
    uint64_t totalEvents = 0;
    uint64_t eventsPushed = 0; ///< events delivered to subscribers
    uint64_t subscribers = 0;  ///< live event subscriptions

    // Durable-session counters (a server with no store reports 0s).
    uint64_t dropped = 0;       ///< subscribers dropped (wedged peers)
    uint64_t hibernated = 0;    ///< sessions currently on disk only
    uint64_t evictions = 0;     ///< LRU hibernations at the cap
    uint64_t resurrections = 0; ///< sessions rebuilt from the store
    uint64_t quarantined = 0;   ///< corrupt artifacts set aside
    uint64_t faultsInjected = 0; ///< injected-fault hits (chaos runs)

    /** Latency distributions (src/obs/metrics.hh families). Encoded
     *  one per key: hist.<family>=<count>:<sum>:<b0>,<b1>,... */
    std::vector<HistogramSnapshot> hists;

    /** Per-tool counters rolled up across live sessions. Encoded one
     *  per key: tool.<name>=<uops>:<checks>:<suppressed>:<findings>. */
    std::vector<tools::ToolStatsRow> tools;
};

/** On-disk store aggregates (StoreStats request). */
struct StoreStats
{
    uint64_t images = 0; ///< live entries in the store
    uint64_t bytes = 0;  ///< bytes across live entries
    uint64_t puts = 0;
    uint64_t loads = 0;
    uint64_t erases = 0;
    uint64_t quarantined = 0;
    uint64_t orphansRemoved = 0;
};

/** One debug-session response. */
struct Response
{
    ResponseStatus status = ResponseStatus::Ok;
    uint64_t seq = 0;                     ///< echoed request seq
    RequestKind inReplyTo = RequestKind::Ping;
    std::string error;                    ///< Error/Unsupported detail

    int index = -1;  ///< SetWatch/SetBreak: watch/break index
    bool hasStop = false;
    StopInfo stop;   ///< execution verbs: where and why we stopped
    std::vector<uint64_t> regs;  ///< ReadRegisters
    std::vector<uint8_t> bytes;  ///< ReadMemory
    uint64_t value = 0;          ///< scalar result (peek / session id)
    std::string text;            ///< bulk text payload (TraceDump chunk,
                                 ///< Metrics exposition)
    SessionStats stats;          ///< Stats
    ServerStats server;          ///< ServerStats
    StoreStats store;            ///< StoreStats

    bool ok() const { return status == ResponseStatus::Ok; }
    std::string describe() const;
};

std::ostream &operator<<(std::ostream &os, const Response &resp);

/** Kinds of records the session event queue carries. */
enum class SessionEventKind : uint8_t {
    Watch,      ///< watchpoint hit
    Break,      ///< breakpoint hit
    Protection, ///< debugger-data protection fault
    Checkpoint, ///< checkpoint(s) taken (value = how many this op)
    Restore,    ///< timeline restore (value = pages rolled back)
    Attached,   ///< backend installed and target loaded
    Halted,     ///< target exited / halted / faulted
    SubscriberDropped, ///< farewell line: this subscription is being
                       ///< dropped (the peer stopped draining)
    ToolFinding,       ///< a debug tool detected something (tool=,
                       ///< detail=; addr/pc/value carry the specifics)
};

const char *sessionEventKindName(SessionEventKind kind);

/**
 * One asynchronous session event. Events are delivered in queue order
 * (seq); re-traveling across a region of the timeline re-announces its
 * events, so the queue reflects the debugger's traversal, not a
 * deduplicated history.
 */
struct SessionEvent
{
    SessionEventKind kind = SessionEventKind::Watch;
    uint64_t seq = 0;      ///< queue order, assigned by the queue
    /** Stream position; when no time-travel session is active (batch
     *  runCycles/runFunctional), the backend detection sequence. */
    uint64_t time = 0;
    uint64_t appInsts = 0;
    Addr pc = 0;
    int index = -1;        ///< watch/break index
    Addr addr = 0;         ///< watch: changed location
    uint64_t oldValue = 0;
    uint64_t newValue = 0;
    uint64_t value = 0;    ///< checkpoint/restore payload
    std::string tool;      ///< ToolFinding: emitting tool name
    std::string detail;    ///< ToolFinding: "<kind>: <free text>"

    std::string describe() const;
};

std::ostream &operator<<(std::ostream &os, const SessionEvent &ev);

/** @name Wire encoding
 * Stable one-line encodings with lossless round-trip. Decoders return
 * false (and fill @p err when given) on malformed input rather than
 * asserting: wire input is untrusted.
 */
///@{
std::string encodeRequest(const Request &req);
bool decodeRequest(const std::string &line, Request &req,
                   std::string *err = nullptr);
std::string encodeResponse(const Response &resp);
bool decodeResponse(const std::string &line, Response &resp,
                    std::string *err = nullptr);
std::string encodeEvent(const SessionEvent &ev);
bool decodeEvent(const std::string &line, SessionEvent &ev,
                 std::string *err = nullptr);
///@}

} // namespace dise

#endif // DISE_SESSION_PROTOCOL_HH
