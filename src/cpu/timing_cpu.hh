/**
 * @file
 * Cycle-level 4-wide dynamically-scheduled pipeline, configured per
 * Section 5 of the paper: 12-stage pipe (modeled as an 8-cycle
 * front-end refill after any redirect), 128-entry re-order buffer,
 * 80 reservation stations, hybrid branch prediction with BTB and RAS,
 * two cache ports, and the paper's memory hierarchy.
 *
 * Functional-first structure: the InstStream oracle supplies
 * pre-executed correct-path micro-ops; this model charges time.
 * Wrong-path work is modeled as a fetch gap between a flush-inducing
 * op and its resolution (mispredict-recovery style), which is also
 * exactly how DISE control transfers are specified to behave.
 *
 * Debugger-transition methodology (Section 5): user-bound transitions
 * are free; spurious transitions flush the pipe and stall for
 * transitionCost cycles (default 100,000).
 */

#ifndef DISE_CPU_TIMING_CPU_HH
#define DISE_CPU_TIMING_CPU_HH

#include <deque>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cpu/arch_state.hh"
#include "cpu/inst_stream.hh"
#include "mem/hierarchy.hh"

namespace dise {

struct TimingConfig
{
    unsigned width = 4;        ///< fetch/rename/issue/commit width
    unsigned robSize = 128;    ///< re-order buffer entries
    unsigned rsSize = 80;      ///< reservation stations
    unsigned frontDepth = 8;   ///< redirect-to-rename refill cycles
    unsigned cachePorts = 2;   ///< data-cache ports per cycle
    unsigned intAlus = 4;
    unsigned mulLatency = 3;
    uint64_t transitionCost = 100000; ///< spurious debugger transition
    bool mtHandlers = false;   ///< run DISE-called functions flush-free
    /**
     * Host-side perf switch (simulated behavior is identical): issue
     * and memory-disambiguation scans use a head cursor plus an
     * age-ordered store ring instead of walking the whole ROB every
     * cycle. Off runs the linear scans, the reference pipeline_test
     * and bench_throughput's timing section compare the cursors
     * against.
     */
    bool robCursors = true;
    MemSystemConfig mem{};
    BranchPredictorConfig bpred{};
};

struct RunLimits
{
    uint64_t maxAppInsts = 0; ///< 0 = unlimited
    uint64_t maxCycles = 0;   ///< 0 = unlimited
};

/** Timing run outcome. */
struct RunStats
{
    uint64_t cycles = 0;
    uint64_t microOps = 0;   ///< all retired micro-ops
    uint64_t appInsts = 0;   ///< application instructions retired
    uint64_t expansionOps = 0;
    uint64_t handlerOps = 0;
    uint64_t loads = 0;
    uint64_t stores = 0; ///< application stores
    uint64_t mispredictFlushes = 0;
    uint64_t diseFlushes = 0;
    uint64_t serializeFlushes = 0;
    uint64_t transitionsUser = 0;
    uint64_t transitionsSpuriousAddr = 0;
    uint64_t transitionsSpuriousValue = 0;
    uint64_t transitionsSpuriousPred = 0;
    uint64_t transitionStallCycles = 0;
    HaltReason halt = HaltReason::None;
    std::string faultMessage;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(appInsts) / cycles : 0.0;
    }
    uint64_t
    spuriousTransitions() const
    {
        return transitionsSpuriousAddr + transitionsSpuriousValue +
               transitionsSpuriousPred;
    }
};

class TimingCpu
{
  public:
    TimingCpu(ArchState &arch, MainMemory &mem, DiseEngine *engine,
              StreamEnv env = {}, TimingConfig cfg = {});

    /** Simulate until program halt or a limit. */
    RunStats run(const RunLimits &limits = {});

    MemSystem &memSystem() { return memSys_; }
    BranchPredictor &predictor() { return bpred_; }

  private:
    enum class SlotState : uint8_t { Free, Dispatched, Done };

    struct RobEntry
    {
        /** Stable µop storage: a pool_ slot. Valid while the entry is
         *  in flight; stale once the slot is Free. */
        const MicroOp *op = nullptr;
        SlotState state = SlotState::Free;
        uint64_t dispatchCycle = 0;
        uint64_t doneCycle = 0;
        int prod[2] = {-1, -1};
        uint64_t prodSeq[2] = {0, 0};
        bool stallCharged = false;
    };

    bool deliverOne(uint64_t now, RunStats &stats, const RunLimits &lim);
    void classifyControl(MicroOp &op);
    bool sourcesReady(const RobEntry &e, uint64_t now) const;
    bool olderStoresAddrKnown(int slot, uint64_t now) const;
    int forwardingStore(int slot) const;
    void retireRenameRefs(int slot);

    ArchState &arch_;
    InstStream stream_;
    TimingConfig cfg_;
    MemSystem memSys_;
    BranchPredictor bpred_;

    // ROB ring buffer.
    std::vector<RobEntry> rob_;
    int robHead_ = 0;
    int robCount_ = 0;
    unsigned rsCount_ = 0;

    /** Age of @p slot relative to the ROB head (0 = oldest). */
    int
    robAge(int slot) const
    {
        return (slot - robHead_ + static_cast<int>(cfg_.robSize)) %
               static_cast<int>(cfg_.robSize);
    }

    // Scan accelerators (cfg_.robCursors). The issue stage skips the
    // head-side prefix of already-issued entries and stops once every
    // waiting entry has been seen; the memory stages walk only the
    // in-flight stores, oldest first, instead of the whole window.
    int issueSkip_ = 0;           ///< head-relative all-issued prefix
    std::deque<int> storeSlots_;  ///< in-flight store slots, age order

    // µop storage: the stream decodes each micro-op directly into a
    // pool slot and the ROB holds stable pointers, so an op is never
    // copied between delivery and retirement. robSize + 2 slots cover
    // the full window plus the pending op; freeSlots_ is a stack of
    // unowned slot indices and pendingSlot_ is the slot the stream
    // decodes into next.
    std::vector<MicroOp> pool_;
    std::vector<int> freeSlots_;
    int pendingSlot_ = 0;

    // Rename map: logical register -> producing ROB slot.
    int renameMap_[NumLogicalRegs];

    // Front-end state.
    bool frontBlocked_ = false;
    uint64_t frontResumeCycle_ = 0;
    uint64_t lastFetchLine_ = ~uint64_t{0};
    bool havePending_ = false;
    bool streamDone_ = false;
    uint64_t deliveredAppInsts_ = 0;

    // Commit state.
    uint64_t commitStallUntil_ = 0;

    // Per-cycle structural counters.
    unsigned portUsed_ = 0;
    unsigned aluUsed_ = 0;
    unsigned mulUsed_ = 0;
    unsigned issuedThisCycle_ = 0;
};

} // namespace dise

#endif // DISE_CPU_TIMING_CPU_HH
