#include "harness/experiment.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "debug/target.hh"

namespace dise {

HarnessOptions
parseHarnessArgs(int argc, char **argv)
{
    HarnessOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--scale") {
            opts.scale = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--transition-cost") {
            opts.transitionCost =
                static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--seed") {
            opts.seed = static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options:\n"
                "  --scale N            workload size multiplier\n"
                "  --transition-cost N  spurious debugger-transition "
                "cycles (default 100000)\n"
                "  --seed N             workload RNG seed\n"
                "  --csv                CSV output\n");
            std::exit(0);
        } else {
            fatal("unknown option '", arg, "' (try --help)");
        }
    }
    return opts;
}

ExperimentRunner::ExperimentRunner(HarnessOptions opts) : opts_(opts)
{
}

TimingConfig
ExperimentRunner::timingConfig(bool mtHandlers) const
{
    TimingConfig cfg;
    cfg.transitionCost = opts_.transitionCost;
    cfg.mtHandlers = mtHandlers;
    return cfg;
}

const Workload &
ExperimentRunner::workload(const std::string &name)
{
    auto it = workloads_.find(name);
    if (it == workloads_.end()) {
        WorkloadParams params;
        params.scale = opts_.scale;
        params.seed = opts_.seed;
        it = workloads_.emplace(name, buildWorkload(name, params)).first;
    }
    return it->second;
}

const RunStats &
ExperimentRunner::baseline(const std::string &name)
{
    auto it = baselines_.find(name);
    if (it == baselines_.end()) {
        const Workload &w = workload(name);
        DebugTarget target(w.program);
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        TimingCpu cpu(target.arch, target.mem, &target.engine, env,
                      timingConfig());
        RunStats stats = cpu.run({});
        if (stats.halt != HaltReason::Exited &&
            stats.halt != HaltReason::Halted)
            fatal("baseline run of '", name, "' did not complete: ",
                  stats.faultMessage);
        it = baselines_.emplace(name, stats).first;
    }
    return it->second;
}

RunOutcome
ExperimentRunner::debugged(const std::string &name,
                           const std::vector<WatchSpec> &watches,
                           DebuggerOptions dopts, bool mtHandlers,
                           const std::vector<BreakSpec> &breaks)
{
    const Workload &w = workload(name);
    const RunStats &base = baseline(name);

    SessionOptions sopts;
    sopts.debugger = dopts;
    DebugSession session(w.program, sopts);
    for (const auto &spec : watches)
        session.setWatch(spec);
    for (const auto &bp : breaks)
        session.setBreak(bp);

    RunOutcome outcome;
    if (!session.attach()) {
        outcome.supported = false;
        return outcome;
    }
    outcome.stats = session.runCycles(timingConfig(mtHandlers), {});
    if (outcome.stats.halt != HaltReason::Exited &&
        outcome.stats.halt != HaltReason::Halted)
        fatal("debugged run of '", name, "' under ",
              backendName(dopts.backend), " did not complete: ",
              outcome.stats.faultMessage);
    // User-visible events arrive on the session's ordered queue.
    for (const SessionEvent &ev : session.events().drain()) {
        outcome.watchEvents += ev.kind == SessionEventKind::Watch;
        outcome.breakEvents += ev.kind == SessionEventKind::Break;
    }
    outcome.slowdown = static_cast<double>(outcome.stats.cycles) /
                       static_cast<double>(base.cycles);
    return outcome;
}

ExperimentRunner::CheckpointedOutcome
ExperimentRunner::checkpointedRun(const std::string &name,
                                  const std::vector<WatchSpec> &watches,
                                  DebuggerOptions dopts,
                                  uint64_t checkpointInterval,
                                  uint64_t maxAppInsts)
{
    const Workload &w = workload(name);
    SessionOptions sopts;
    sopts.debugger = dopts;
    sopts.timeTravel.checkpointInterval = checkpointInterval;
    sopts.timeTravel.maxAppInsts = maxAppInsts;
    DebugSession session(w.program, sopts);
    for (const auto &spec : watches)
        session.setWatch(spec);

    CheckpointedOutcome outcome;
    if (!session.attach()) {
        outcome.supported = false;
        return outcome;
    }
    session.debugger().replayLog().seed = opts_.seed;
    session.debugger().replayLog().programName = name;

    auto t0 = std::chrono::steady_clock::now();
    StopInfo end = session.runToEnd();
    outcome.forwardSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (end.reason != StopReason::Halted &&
        end.reason != StopReason::InstLimit)
        fatal("checkpointed run of '", name, "' did not complete: ",
              end.describe());
    uint64_t endDigest = session.digest();
    uint64_t endTime = end.time;

    if (session.eventCount() > 0) {
        auto t1 = std::chrono::steady_clock::now();
        StopInfo hit = session.reverseContinue();
        outcome.reverseContinueSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t1)
                .count();
        outcome.reverseLanded =
            hit.reason == StopReason::Event &&
            hit.eventIndex ==
                static_cast<int>(session.eventCount()) - 1;
        StopInfo end2 = session.runToEnd();
        outcome.replayExact =
            end2.time == endTime && session.digest() == endDigest;
    }

    const TimeTravel::Stats *ts = session.travelStats();
    outcome.appInsts = end.appInsts;
    outcome.events = session.eventCount();
    outcome.checkpoints = session.stats().checkpoints;
    const MainMemory &mem = session.target().mem;
    outcome.pagesCopied = ts->pagesCopied + mem.undoPagesPending();
    outcome.bytesCopied = ts->bytesCopied + mem.pendingUndo().bytes();
    outcome.pagesRestored = ts->pagesRestored;
    outcome.replayedUops = ts->replayedUops;
    outcome.digest = endDigest;
    return outcome;
}

WatchSpec
ExperimentRunner::standardWatch(const std::string &name, WatchSel sel,
                                bool conditional)
{
    WatchSpec spec = workload(name).watch(sel);
    if (conditional) {
        // The paper's Figure 4 predicate: compare the watched
        // expression to a constant it never matches.
        spec = spec.withCondition(0xdeadbeefcafeull);
    }
    return spec;
}

namespace {

/** Functional store observer for frequency measurement. */
class FreqMonitor : public DebugMonitor
{
  public:
    struct Region
    {
        Addr lo = 0;
        Addr hi = 0;
        uint64_t writes = 0;
        uint64_t silent = 0;
    };

    DebugAction
    onStore(const MicroOp &op) override
    {
        ++stores;
        for (auto &r : regions) {
            if (op.effAddr < r.hi && r.lo < op.effAddr + op.memBytes) {
                ++r.writes;
                if (op.storeOld == op.storeNew)
                    ++r.silent;
            }
        }
        return {};
    }

    std::vector<Region> regions;
    uint64_t stores = 0;
};

} // namespace

std::map<WatchSel, ExperimentRunner::FreqRow>
ExperimentRunner::measureFrequencies(const std::string &name)
{
    const Workload &w = workload(name);
    DebugTarget target(w.program);
    target.load();

    FreqMonitor mon;
    Addr indirectTarget = target.mem.read(w.ptrAddr, 8);
    const WatchSel order[] = {WatchSel::HOT, WatchSel::WARM1,
                              WatchSel::WARM2, WatchSel::COLD,
                              WatchSel::INDIRECT, WatchSel::RANGE};
    mon.regions = {
        {w.hotAddr, w.hotAddr + 8},
        {w.warm1Addr, w.warm1Addr + 8},
        {w.warm2Addr, w.warm2Addr + 8},
        {w.coldAddr, w.coldAddr + 8},
        {indirectTarget, indirectTarget + 8},
        {w.rangeBase, w.rangeBase + w.rangeLen},
    };

    StreamEnv env;
    env.sink = &target.sink;
    env.monitor = &mon;
    env.monitorStores = true;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);
    FuncResult res = cpu.run();
    if (res.halt != HaltReason::Exited && res.halt != HaltReason::Halted)
        fatal("frequency run of '", name, "' did not complete");

    std::map<WatchSel, FreqRow> rows;
    double per = mon.stores ? 100000.0 / mon.stores : 0.0;
    for (size_t i = 0; i < std::size(order); ++i) {
        const auto &r = mon.regions[i];
        FreqRow row;
        row.per100k = r.writes * per;
        row.silentPct =
            r.writes ? 100.0 * r.silent / r.writes : 0.0;
        rows[order[i]] = row;
    }
    return rows;
}

ExperimentRunner::FuncSummary
ExperimentRunner::functionalSummary(const std::string &name)
{
    const Workload &w = workload(name);
    DebugTarget target(w.program);
    target.load();
    StreamEnv env;
    env.sink = &target.sink;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);
    FuncResult res = cpu.run();
    FuncSummary s;
    s.appInsts = res.appInsts;
    s.stores = res.stores;
    s.loads = res.loads;
    s.storeDensity =
        res.appInsts ? static_cast<double>(res.stores) / res.appInsts
                     : 0.0;
    return s;
}

std::string
slowdownCell(const RunOutcome &outcome)
{
    if (!outcome.supported)
        return "n/a";
    return fmtSlowdown(outcome.slowdown);
}

} // namespace dise
