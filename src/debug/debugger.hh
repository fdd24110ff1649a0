/**
 * @file
 * The debugger engine room: one backend (watchpoint technique) bound
 * to one target.
 *
 * A Debugger installs its backend's machinery before the program loads
 * and owns the backend's event lists. The harness and the benchmarks
 * drive it directly for batch runs: run() under the cycle-level timing
 * model, runFunctional() without timing. Interactive debugging goes
 * through a DebugSession (src/session/), which builds a Debugger next
 * to its target and timeline at every install and moves the target
 * only along that timeline.
 *
 * The same code runs over the DISE backend or any of the four
 * incumbent implementations the paper compares against — the debugger
 * auto-generates productions/machinery from user requests; users never
 * write productions themselves.
 */

#ifndef DISE_DEBUG_DEBUGGER_HH
#define DISE_DEBUG_DEBUGGER_HH

#include <functional>
#include <memory>

#include "cpu/func_cpu.hh"
#include "cpu/timing_cpu.hh"
#include "debug/backend.hh"
#include "debug/dise_backend.hh"

namespace dise {

/** Which watchpoint implementation to use. */
enum class BackendKind : uint8_t {
    Dise,
    SingleStep,
    VirtualMemory,
    HardwareReg,
    Rewrite,
};

const char *backendName(BackendKind kind);

struct DebuggerOptions
{
    BackendKind backend = BackendKind::Dise;
    DiseOptions dise{};
    unsigned hwRegs = 4;
};

class Debugger
{
  public:
    Debugger(DebugTarget &target, DebuggerOptions opts = {});
    ~Debugger();

    /** Register a watchpoint. Returns its index. */
    int watch(const WatchSpec &spec);

    /** Register a breakpoint. Returns its index. */
    int breakAt(const BreakSpec &spec);
    int
    breakAt(Addr pc)
    {
        BreakSpec bp;
        bp.pc = pc;
        return breakAt(bp);
    }

    /**
     * Install the backend machinery, load the program, and prime
     * shadow state. Returns false when the chosen technique cannot
     * implement the request (the paper's "no experiment" cells).
     * @p postLoad, when given, runs between load() and prime() — the
     * session front end uses it to fold configuration-phase pokes into
     * the initial state before watchpoint shadows snapshot it.
     */
    bool attach(const std::function<void(DebugTarget &)> &postLoad = {});
    bool attached() const { return attached_; }

    /** Cycle-level run under the timing model. */
    RunStats run(TimingConfig cfg = {}, RunLimits limits = {});

    /** Timing-free functional run (tests, calibration). */
    FuncResult runFunctional(uint64_t maxAppInsts = 0);

    /** The backend: its event lists, tools and host state. */
    DebugBackend &backend() { return *backend_; }
    DebugTarget &target() { return target_; }

  private:
    DebugTarget &target_;
    DebuggerOptions opts_;
    std::unique_ptr<DebugBackend> backend_;
    std::vector<WatchSpec> watches_;
    std::vector<BreakSpec> breaks_;
    bool attached_ = false;
};

} // namespace dise

#endif // DISE_DEBUG_DEBUGGER_HH
