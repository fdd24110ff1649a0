/**
 * @file
 * Trace-JIT data model.
 *
 * A Trace is a recorded straight-line run of correct-path µops spanning
 * basic blocks, with DISE replacement sequences baked in at build time
 * (the DynamoRIO model applied to the functional interpreter). The
 * executor (InstStream::runTraced) dispatches trace ops from a dense
 * vector with all fetch/decode/match work pre-resolved, side-exiting
 * back to the interpreter at any point where the recorded assumptions
 * stop holding: a branch goes the other way, a DISE conditional call
 * whose condition was false at recording now calls its handler, an
 * instrumentation callback records a debugger event, a store modifies
 * cached code, or an execution budget runs out.
 *
 * What a trace carries: app ops, replacement-sequence ops, traps, and
 * a not-taken d_ccall as a DiseCallGuard. What ends a recording: a
 * syscall, a halt, a taken call into a DISE-called function (d_call, or
 * a d_ccall whose condition held), anything run inside that function
 * (d_mfr/d_mtr, d_ret), and control that aborts an expansion mid-flight.
 * So a DISE watch check stays in the trace until the rare store that
 * matches; that store leaves at its guard and the interpreter runs the
 * generated handler.
 *
 * Determinism contract: a trace retires exactly the µops the
 * interpreter would produce, in the same order, with the same
 * architectural effects and the same monitor callbacks — or it exits at
 * an op boundary where interpreter state has been restored exactly.
 * Record-mode digests (checkpoints, replay-log µop stamps, tool state)
 * are therefore bit-identical with the cache on or off.
 */

#ifndef DISE_JIT_TRACE_HH
#define DISE_JIT_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dise/engine.hh"
#include "isa/inst.hh"

namespace dise {

struct TraceJitConfig
{
    bool enabled = true;
    /** Taken backward transfers to one target before recording starts. */
    unsigned hotThreshold = 16;
};

/** Longest trace recorded (µops); longer runs trim to a boundary. */
constexpr unsigned TraceMaxOps = 256;
/** Shortest trace worth keeping; tighter loops unroll until this. */
constexpr unsigned TraceMinOps = 3;

/** How the executor must treat one trace op. */
enum class TraceOpKind : uint8_t {
    AluReg,
    AluImm,
    Lda,
    Ldah,
    Load,
    Store,
    CondBranch, ///< raw or in-expansion PC-relative branch (direction guard)
    Jump,       ///< jump through a register (dynamic-target guard)
    DiseBranch, ///< intra-expansion skip (direction guard)
    Ctrap,      ///< conditional trap; fires monitor->onTrap when taken
    Trap,       ///< unconditional trap (rewrite-backend machinery)
    /** d_ccall recorded not taken: a set condition side-exits before
     *  it, so the interpreter makes the call. */
    DiseCallGuard,
    Nop,        ///< NOP / unmatched CODEWORD
    Suppressed, ///< provably redundant: retires counters, executes nothing
};

/**
 * Mid-expansion stream context, restored verbatim when a side exit
 * lands inside a replacement sequence. Holding the ExpansionRef keeps
 * the instantiated sequence alive independent of the engine's memo
 * table, exactly like an in-flight interpreter expansion.
 */
struct TraceExpCtx
{
    int slot = -1; ///< pattern-table slot of the matched production
    Inst trigger{};
    Addr trigPc = 0;
    Addr nextPc = 0; ///< PC the stream resumes at after the expansion
    DiseEngine::ExpansionRef seq;
};

struct TraceOp
{
    Inst inst{};
    Addr pc = 0;
    uint16_t disepc = 0;
    int16_t expCtx = -1; ///< index into Trace::ctxs; -1 = raw op
    TraceOpKind kind = TraceOpKind::Nop;
    bool isApp = false;
    bool isTriggerCopy = false;
    bool isAppLoad = false;
    bool isAppStore = false;
    /** Raw op at a statement boundary: call monitor->onStatement first. */
    bool stmtSite = false;
    /** Recorded direction (CondBranch/DiseBranch guards; Ctrap takenness
     *  is informational — the executor always recomputes it). */
    bool expectTaken = false;
    /** Recorded dynamic target (Jump guard). */
    Addr expectTarget = 0;
};

struct Trace
{
    Addr startPc = 0;
    Addr endPc = 0; ///< architectural PC after a complete run
    /** DiseEngine::tableVersion() the expansions were instantiated
     *  under; any semantic table change makes the trace stale. */
    uint64_t tableVersion = 0;
    std::vector<TraceOp> ops;
    std::vector<TraceExpCtx> ctxs;
    uint64_t suppressedOps = 0; ///< ops elided by the build-time pass
};

using TraceRef = std::shared_ptr<const Trace>;

struct TraceCacheStats
{
    uint64_t built = 0;
    uint64_t discarded = 0; ///< recordings too short to keep
    uint64_t invalidated = 0;
    uint64_t runs = 0;        ///< trace executions entered
    uint64_t tracedUops = 0;  ///< µops retired from traces
    uint64_t sideExits = 0;   ///< guard/event/SMC exits (not natural ends)
    uint64_t suppressedExecs = 0; ///< elided op executions at run time
};

} // namespace dise

#endif // DISE_JIT_TRACE_HH
