/**
 * @file
 * Hunting a memory-corruption heisenbug with a RANGE watchpoint —
 * forward with DISE under the cycle-level timing model, then backward
 * with a time-travel debug session.
 *
 * The program keeps a "directory" structure that an unrelated,
 * out-of-bounds array write occasionally tramples. Trap-based
 * debuggers make this hunt painful (the directory shares pages with
 * hot data); the DISE range watchpoint pinpoints the corrupting store
 * immediately, at a few percent overhead, and the Figure 2f production
 * simultaneously shields the debugger's own structures from the same
 * bug.
 *
 * Act two runs the same scenario the way a user who only noticed the
 * corruption *after the fact* would: run to the end, then
 * reverseContinue() back through the checkpointed timeline until the
 * debugger is parked on the exact corrupting store, and inspect the
 * machine state as it was at that instant.
 *
 * Build & run:  ./build/example_heisenbug_hunt
 */

#include <cstdio>

#include "debug/debugger.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

using namespace dise;

int
main()
{
    Program prog = buildHeisenbugDemo();

    DebuggerOptions dopts;
    dopts.backend = BackendKind::Dise;
    dopts.dise.protectDebuggerData = true; // Fig. 2f shielding
    DebugTarget target(prog);
    Debugger dbg(target, dopts);
    dbg.watch(WatchSpec::range("directory", prog.symbol("directory"), 64));
    if (!dbg.attach()) {
        std::fprintf(stderr, "attach failed\n");
        return 1;
    }

    RunStats stats = dbg.run();
    const std::vector<WatchEvent> &corruptions =
        dbg.backend().watchEvents();
    std::printf("ran %llu instructions; directory was corrupted %zu "
                "time(s)\n",
                static_cast<unsigned long long>(stats.appInsts),
                corruptions.size());
    for (const WatchEvent &ev : corruptions)
        std::printf("  corruption at directory+%llu: 0x%llx -> "
                    "0x%llx (culprit store pc 0x%llx)\n",
                    static_cast<unsigned long long>(
                        ev.addr - prog.symbol("directory")),
                    static_cast<unsigned long long>(ev.oldValue),
                    static_cast<unsigned long long>(ev.newValue),
                    static_cast<unsigned long long>(ev.pc));
    std::printf("the culprit is the store at label 'the_store' "
                "(0x%llx)\n",
                static_cast<unsigned long long>(
                    prog.symbol("the_store")));
    std::printf("debugger dseg protection violations: %zu\n",
                dbg.backend().protectionEvents().size());

    // ------------------------------------------------------ act two
    // The same hunt, backward: a fresh session runs to completion
    // first (as if the corruption were only noticed post-mortem), then
    // travels back to the moment of the crime.
    std::printf("\n-- time travel: how did we get here? --\n");
    SessionOptions ttOpts;
    ttOpts.debugger = dopts;
    ttOpts.timeTravel.checkpointInterval = 1024;
    DebugSession tt(buildHeisenbugDemo(), ttOpts);
    tt.setWatch(WatchSpec::range("directory",
                                 tt.program().symbol("directory"), 64));
    StopInfo end = tt.runToEnd(); // lazy attach: first resume installs
    SessionStats ss = tt.stats();
    std::printf("program exited at t=%llu (%zu checkpoints, %llu "
                "pages copied)\n",
                static_cast<unsigned long long>(end.time),
                ss.checkpoints,
                static_cast<unsigned long long>(ss.pagesCopied));

    for (StopInfo hit = tt.reverseContinue();
         hit.reason == StopReason::Event; hit = tt.reverseContinue()) {
        std::printf("reverse-continue: event #%d at t=%llu, iteration "
                    "t9=%llu, store pc 0x%llx%s\n",
                    hit.eventIndex,
                    static_cast<unsigned long long>(hit.time),
                    static_cast<unsigned long long>(
                        tt.target().arch.read(reg::t9)),
                    static_cast<unsigned long long>(hit.mark.pc),
                    hit.mark.pc == tt.program().symbol("the_store")
                        ? "  <- the_store"
                        : "");
    }
    std::printf("reached the beginning of time; the first corruption "
                "is pinned.\n");
    return 0;
}
