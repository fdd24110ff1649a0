/**
 * @file
 * Quickstart: assemble a tiny program, attach a Debugger with a DISE
 * watchpoint on one of its variables, run under the cycle-level
 * simulator, and print every watchpoint hit plus the measured
 * overhead.
 *
 * Build & run:  ./build/example_quickstart
 */

#include <cstdio>

#include "asm/assembler.hh"
#include "cpu/loader.hh"
#include "debug/debugger.hh"

using namespace dise;

int
main()
{
    using namespace reg;

    // 1. A little program: x starts at 3, is doubled five times.
    Assembler a;
    a.data(layout::DataBase);
    a.label("x");
    a.quad(3);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "x");
    a.lda(t1, 0, zero);
    a.label("loop");
    a.ldq(t0, 0, s0);
    a.addq(t0, t0, t0);
    a.stq(t0, 0, s0); // the watched store
    a.addq(t1, 1, t1);
    a.cmplt(t1, 5, t2);
    a.bne(t2, "loop");
    a.syscall(SysExit);
    Program prog = a.finish("main");

    // 2. Attach a DISE-backed debugger that watches x. The backend
    //    installs its productions before the program loads.
    DebugTarget target(prog);
    DebuggerOptions opts;
    opts.backend = BackendKind::Dise;
    Debugger dbg(target, opts);
    dbg.watch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    if (!dbg.attach()) {
        std::fprintf(stderr, "attach failed\n");
        return 1;
    }
    std::printf("attached; target loaded at pc=0x%llx\n",
                static_cast<unsigned long long>(target.arch.pc));

    // 3. Run under the timing model and report the backend's hits.
    RunStats stats = dbg.run();
    std::printf("program ran %llu instructions in %llu cycles "
                "(IPC %.2f)\n",
                static_cast<unsigned long long>(stats.appInsts),
                static_cast<unsigned long long>(stats.cycles),
                stats.ipc());
    std::printf("watchpoint hits:\n");
    for (const WatchEvent &ev : dbg.backend().watchEvents())
        std::printf("  watchpoint %d hit: *0x%llx = 0x%llx -> 0x%llx "
                    "(store pc 0x%llx)\n",
                    ev.wpIndex, static_cast<unsigned long long>(ev.addr),
                    static_cast<unsigned long long>(ev.oldValue),
                    static_cast<unsigned long long>(ev.newValue),
                    static_cast<unsigned long long>(ev.pc));
    std::printf("target %s after %llu instructions\n",
                stats.halt == HaltReason::Exited ? "exited" : "stopped",
                static_cast<unsigned long long>(stats.appInsts));
    std::printf("spurious debugger transitions: %llu (DISE prunes them "
                "inside the application)\n",
                static_cast<unsigned long long>(
                    stats.spuriousTransitions()));
    return 0;
}
