/**
 * @file
 * DISE is not debugging-specific (the paper's third contribution):
 * this example uses raw productions as a store profiler — counting
 * dynamic stores per region of interest in private DISE registers,
 * with codewords marking region boundaries — without touching the
 * application's registers, code, or data.
 *
 * Build & run:  ./build/examples/custom_instrumentation
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

    // An application with two phases, each storing a different amount.
    Assembler a;
    a.data(layout::DataBase);
    a.label("buf");
    a.space(4096);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "buf");
    a.codeword(1); // begin phase 1
    for (int i = 0; i < 10; ++i)
        a.stq(t0, static_cast<int64_t>(8 * i), s0);
    a.codeword(2); // begin phase 2
    for (int i = 0; i < 25; ++i)
        a.stb(t0, static_cast<int64_t>(i), s0);
    a.syscall(SysExit);
    Program prog = a.finish("main");

    // DISE is not debugging-specific: raw productions go into the
    // fresh target's engine before the debugger installs and the
    // program loads.
    //
    // Production 1: every store bumps the running counter in dr0.
    // DISE can't indirect registers, so we keep one counter and
    // snapshot it at phase boundaries instead — all still invisible to
    // the application's registers, code, and data.
    DebugTarget target(prog);
    {
        Production count;
        count.name = "count-stores";
        count.pattern = Pattern::forClass(OpClass::Store);
        count.replacement = {
            TemplateInst::trigInst(),
            TemplateInst::opImm(Opcode::ADDQ_I, TRegField::reg(dr(0)),
                                1, TRegField::reg(dr(0))),
        };
        target.engine.addProduction(count);

        // Production 2/3: codewords snapshot the running count.
        for (int phase = 1; phase <= 2; ++phase) {
            Production snap;
            snap.name = "phase-mark";
            snap.pattern = Pattern::forCodeword(phase);
            snap.replacement = {
                // drN = dr0 (copy of the count at phase entry)
                TemplateInst::op3(Opcode::BIS, TRegField::reg(dr(0)),
                                  TRegField::reg(dr(0)),
                                  TRegField::reg(dr(phase + 1))),
            };
            target.engine.addProduction(snap);
        }
    }

    Debugger dbg(target);
    if (!dbg.attach()) {
        std::fprintf(stderr, "attach failed\n");
        return 1;
    }
    FuncResult r = dbg.runFunctional();
    if (r.halt != HaltReason::Exited) {
        std::fprintf(stderr, "run failed\n");
        return 1;
    }

    const ArchState &arch = target.arch;
    uint64_t total = arch.readDise(0);
    uint64_t atPhase1 = arch.readDise(2);
    uint64_t atPhase2 = arch.readDise(3);
    std::printf("application instructions: %llu (plus %llu injected)\n",
                static_cast<unsigned long long>(r.appInsts),
                static_cast<unsigned long long>(r.expansionOps));
    std::printf("stores before phase 1:  %llu\n",
                static_cast<unsigned long long>(atPhase1));
    std::printf("stores in phase 1:      %llu\n",
                static_cast<unsigned long long>(atPhase2 - atPhase1));
    std::printf("stores in phase 2:      %llu\n",
                static_cast<unsigned long long>(total - atPhase2));
    std::printf("application registers/data were never touched.\n");
    return 0;
}
