/**
 * @file
 * Experiment harness: builds workloads, runs baseline and debugged
 * configurations under the paper's Section 5 methodology, and computes
 * slowdowns. Every table/figure binary in bench/ drives this.
 */

#ifndef DISE_HARNESS_EXPERIMENT_HH
#define DISE_HARNESS_EXPERIMENT_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hh"
#include "cpu/timing_cpu.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

namespace dise {

/** Command-line options shared by all bench binaries. */
struct HarnessOptions
{
    unsigned scale = 1;               ///< workload size multiplier
    uint64_t transitionCost = 100000; ///< spurious-transition cycles
    bool csv = false;                 ///< machine-readable output
    uint64_t seed = 12345;
};

/** Parse --scale/--transition-cost/--csv/--seed; exits on --help. */
HarnessOptions parseHarnessArgs(int argc, char **argv);

/** One debugged run's result. */
struct RunOutcome
{
    bool supported = true; ///< false: the paper's "no experiment" cell
    RunStats stats;
    size_t watchEvents = 0;
    size_t breakEvents = 0;
    double slowdown = 0.0; ///< cycles vs the undebugged baseline
};

/** Builds workloads and runs experiments with caching of baselines. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(HarnessOptions opts = {});

    /** The workload (built once per name). */
    const Workload &workload(const std::string &name);

    /** Undebugged cycle-level run (cached per workload). */
    const RunStats &baseline(const std::string &name);

    /** Debugged cycle-level run. */
    RunOutcome debugged(const std::string &name,
                        const std::vector<WatchSpec> &watches,
                        DebuggerOptions dopts,
                        bool mtHandlers = false,
                        const std::vector<BreakSpec> &breaks = {});

    /**
     * One checkpointed (time-travel) functional run: execute to
     * completion under the TimeTravel controller, then reverse-continue
     * to the last event and replay back to the end, verifying the
     * replayed final state digests identically. Returns the cost
     * counters the checkpoint bench reports.
     */
    struct CheckpointedOutcome
    {
        bool supported = true;
        uint64_t appInsts = 0;
        size_t events = 0;
        size_t checkpoints = 0;
        uint64_t pagesCopied = 0;
        uint64_t bytesCopied = 0;
        uint64_t pagesRestored = 0;
        uint64_t replayedUops = 0;
        uint64_t digest = 0;
        /** Wall time of the forward (record-mode) run. */
        double forwardSeconds = 0.0;
        /** Wall time of the reverse-continue restore + replay. */
        double reverseContinueSeconds = 0.0;
        /** reverse-continue landed on the final event's exact mark. */
        bool reverseLanded = false;
        /** replayed end state digested identically. */
        bool replayExact = false;
    };
    CheckpointedOutcome checkpointedRun(
        const std::string &name, const std::vector<WatchSpec> &watches,
        DebuggerOptions dopts, uint64_t checkpointInterval = 4096,
        uint64_t maxAppInsts = 0);

    /** The paper's standard per-benchmark watchpoint. */
    WatchSpec standardWatch(const std::string &name, WatchSel sel,
                            bool conditional);

    const HarnessOptions &options() const { return opts_; }
    TimingConfig timingConfig(bool mtHandlers = false) const;

    /** Functional measurement of watched-location write frequencies
     *  (Table 2): writes per 100K stores and silent-store percentage. */
    struct FreqRow
    {
        double per100k = 0.0;
        double silentPct = 0.0;
    };
    std::map<WatchSel, FreqRow> measureFrequencies(
        const std::string &name);

    /** Functional workload summary (Table 1 feed + tests). */
    struct FuncSummary
    {
        uint64_t appInsts = 0;
        uint64_t stores = 0;
        uint64_t loads = 0;
        double storeDensity = 0.0;
    };
    FuncSummary functionalSummary(const std::string &name);

  private:
    HarnessOptions opts_;
    std::map<std::string, Workload> workloads_;
    std::map<std::string, RunStats> baselines_;
};

/** Render "n/a" or a slowdown cell. */
std::string slowdownCell(const RunOutcome &outcome);

} // namespace dise

#endif // DISE_HARNESS_EXPERIMENT_HH
