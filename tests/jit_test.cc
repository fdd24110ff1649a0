/**
 * @file
 * Trace-cache invalidation edges and executor exactness.
 *
 * Each test drives FuncCpu twice — trace cache on and off — over a
 * scenario built around one stale-assumption channel: self-modifying
 * code patched between hot phases, a store rewriting the running
 * trace's own body, a DISE production added mid-run (tableVersion), an
 * armed µop observer (tools), the build-time redundancy-suppression
 * pass, app-instruction budgets landing inside a trace, and the DISE
 * watch check whose conditional call stays in the trace as a guard
 * until a store matches. The two legs must agree on every
 * architectural observable.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "cpu/func_cpu.hh"
#include "cpu/loader.hh"
#include "debug/debugger.hh"
#include "debug/dise_backend.hh"
#include "debug/target.hh"
#include "dise/engine.hh"
#include "isa/encoding.hh"
#include "jit/trace_cache.hh"
#include "session/debug_session.hh"

namespace dise {
namespace {

using namespace reg;

/** Expand every store into {T.INST; addq dr0, 1, dr0}. */
Production
countStoresProduction()
{
    Production p;
    p.name = "count-stores";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement = {
        TemplateInst::trigInst(),
        TemplateInst::opImm(Opcode::ADDQ_I, TRegField::reg(dr(0)), 1,
                            TRegField::reg(dr(0))),
    };
    return p;
}

/** Figure 2a-style unconditional watch check appended to every store. */
Production
watchCheckProduction()
{
    auto R = [](RegId r) { return TRegField::reg(r); };
    Production p;
    p.name = "watch-uncond";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement.push_back(TemplateInst::trigInst());
    p.replacement.push_back(TemplateInst::mem(Opcode::LDA, R(dr(1)),
                                              TImmField::trigImm(),
                                              TRegField::trigRb()));
    p.replacement.push_back(TemplateInst::op3(Opcode::CMPEQ, R(dr(1)),
                                              R(dr(3)), R(dr(2))));
    TemplateInst trap;
    trap.op = Opcode::CTRAP;
    trap.ra = R(dr(2));
    trap.imm = TImmField::imm(1);
    p.replacement.push_back(trap);
    return p;
}

// --------------------------------------------------------- hot path

/** Sum 100..1 in a register-only hot loop, reported via SysMark. */
void
emitSumLoop(Assembler &a)
{
    a.data(0x0200'0000);
    a.text(0x0100'0000);
    a.label("main");
    a.li(t0, 0);
    a.li(s1, 100);
    a.label("loop");
    a.addq(t0, s1, t0);
    a.subq(s1, 1, s1);
    a.bne(s1, "loop");
    a.mov(t0, a0);
    a.syscall(SysMark);
    a.syscall(SysExit);
}

TEST(TraceJit, HotLoopMatchesInterpreter)
{
    uint64_t marks[2];
    FuncResult res[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        emitSumLoop(a);
        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit)
            env.jit = target.jit();
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        res[jit] = cpu.run();
        ASSERT_EQ(res[jit].halt, HaltReason::Exited);
        ASSERT_EQ(target.sink.marks.size(), 1u);
        marks[jit] = target.sink.marks[0];
        if (jit) {
            const TraceCacheStats &s = target.jit()->stats();
            EXPECT_GT(s.built, 0u);
            EXPECT_GT(s.runs, 0u);
            EXPECT_GT(s.tracedUops, 0u);
        }
    }
    EXPECT_EQ(marks[0], 5050u);
    EXPECT_EQ(marks[1], marks[0]);
    EXPECT_EQ(res[1].appInsts, res[0].appInsts);
    EXPECT_EQ(res[1].microOps, res[0].microOps);
}

// ------------------------------------------------ SMC invalidation

/**
 * Phase 1 runs a hot loop long enough to trace it; the loop epilogue
 * then patches an instruction inside the (now cached) body and runs
 * the loop again. The patched semantics must take effect — the write
 * drops the trace through the CodeWatcher channel.
 */
TEST(TraceJit, PatchedTraceBodyIsInvalidated)
{
    uint32_t patched = encode(makeOpImm(Opcode::ADDQ_I, t0, 7, t0));
    uint64_t marks[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        a.data(0x0200'0000);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "site");
        a.li(t2, patched);
        a.li(t0, 0);
        a.li(s2, 0); // phase counter
        a.label("again");
        a.li(s1, 30);
        a.label("loop");
        a.label("site");
        a.addq(t0, 1, t0); // phase 0: +1; phase 1 (patched): +7
        a.subq(s1, 1, s1);
        a.bne(s1, "loop");
        a.stl(t2, 0, s0); // patch the site (idempotent in phase 1)
        a.addq(s2, 1, s2);
        a.cmplt(s2, 2, t4);
        a.bne(t4, "again");
        a.mov(t0, a0);
        a.syscall(SysMark);
        a.syscall(SysExit);

        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r = cpu.run();
        ASSERT_EQ(r.halt, HaltReason::Exited);
        ASSERT_EQ(target.sink.marks.size(), 1u);
        marks[jit] = target.sink.marks[0];
        if (jit) {
            EXPECT_GT(target.jit()->stats().invalidated, 0u);
        }
    }
    EXPECT_EQ(marks[0], 30u + 30u * 7u);
    EXPECT_EQ(marks[1], marks[0]);
}

/**
 * The hot loop stores its own body word back every iteration (same
 * bytes — no semantic change). Once the loop is traced its pages are
 * marked, so each in-trace store advances the write epoch and forces a
 * side exit after that op; the result must still match the
 * interpreter.
 */
TEST(TraceJit, InTraceCodeStoreSideExits)
{
    uint64_t marks[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        a.data(0x0200'0000);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "site");
        a.ldl(t5, 0, s0); // the site's own encoding
        a.li(t0, 0);
        a.li(s1, 40);
        a.label("loop");
        a.label("site");
        a.addq(t0, 1, t0);
        a.stl(t5, 0, s0); // rewrite the site with identical bytes
        a.subq(s1, 1, s1);
        a.bne(s1, "loop");
        a.mov(t0, a0);
        a.syscall(SysMark);
        a.syscall(SysExit);

        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r = cpu.run();
        ASSERT_EQ(r.halt, HaltReason::Exited);
        marks[jit] = target.sink.marks.at(0);
        if (jit) {
            const TraceCacheStats &s = target.jit()->stats();
            EXPECT_GT(s.invalidated, 0u);
            EXPECT_GT(s.sideExits, 0u);
        }
    }
    EXPECT_EQ(marks[0], 40u);
    EXPECT_EQ(marks[1], marks[0]);
}

// --------------------------------------- DISE table-version staleness

/**
 * A production added mid-run (tableVersion bump) must stale every
 * cached trace: stores after the mutation get the expansion, exactly
 * as interpreted execution would.
 */
TEST(TraceJit, ProductionAddMidRunStalesTraces)
{
    uint64_t counts[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        a.data(0x0200'0000);
        a.label("buf");
        a.quad(0);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "buf");
        a.li(t0, 0);
        a.li(s1, 60);
        a.label("loop");
        a.stq(t0, 0, s0);
        a.addq(t0, 1, t0);
        a.subq(s1, 1, s1);
        a.bne(s1, "loop");
        a.syscall(SysExit);

        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r1 = cpu.run(30);
        ASSERT_EQ(r1.halt, HaltReason::InstLimit);
        // Budget exactness: the cap must land on the instruction
        // boundary, trace or no trace.
        EXPECT_EQ(r1.appInsts, 30u);

        target.engine.addProduction(countStoresProduction());
        FuncResult r2 = cpu.run();
        ASSERT_EQ(r2.halt, HaltReason::Exited);
        counts[jit] = target.arch.readDise(0);
        if (jit) {
            EXPECT_GT(target.jit()->stats().invalidated, 0u);
        }
    }
    EXPECT_GT(counts[0], 0u);
    EXPECT_EQ(counts[1], counts[0]);
}

// ------------------------------------------------- tool observation

/** Counts every retired µop, like an enabled debug tool. */
struct CountingObserver : UopObserver
{
    uint64_t n = 0;
    CountingObserver() { armed_ = true; }
    void onUop(const MicroOp &) override { ++n; }
};

/**
 * An armed µop observer (an enabled tool) must see every op in
 * functional order, so trace dispatch stands down entirely.
 */
TEST(TraceJit, ArmedObserverDisablesDispatch)
{
    Assembler a;
    emitSumLoop(a);
    DebugTarget target(a.finish("main"));
    target.load();
    CountingObserver obs;
    StreamEnv env;
    env.sink = &target.sink;
    env.observer = &obs;
    env.jit = target.jit();
    target.jit()->config().hotThreshold = 4;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);
    FuncResult r = cpu.run();
    ASSERT_EQ(r.halt, HaltReason::Exited);
    EXPECT_EQ(target.sink.marks.at(0), 5050u);
    EXPECT_EQ(obs.n, r.microOps);
    EXPECT_EQ(target.jit()->stats().runs, 0u);
    EXPECT_EQ(target.jit()->stats().tracedUops, 0u);
}

// -------------------------------------------- redundancy suppression

/** Two identical adjacent stores under the given production. */
void
emitDoubleStoreLoop(Assembler &a)
{
    a.data(0x0200'0000);
    a.label("buf");
    a.quad(0);
    a.text(0x0100'0000);
    a.label("main");
    a.la(s0, "buf");
    a.li(t0, 0);
    a.li(s1, 50);
    a.label("loop");
    a.stq(t0, 0, s0);
    a.stq(t0, 0, s0);
    a.addq(t0, 1, t0);
    a.subq(s1, 1, s1);
    a.bne(s1, "loop");
    a.syscall(SysExit);
}

/**
 * Idempotent check groups (address rematerialization + compare) repeat
 * between the two identical stores; the second instance must execute
 * as counter retirement only — with identical retirement counts and
 * architectural state.
 */
TEST(TraceJit, SuppressionElidesIdempotentChecks)
{
    FuncResult res[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        emitDoubleStoreLoop(a);
        DebugTarget target(a.finish("main"));
        target.engine.addProduction(watchCheckProduction());
        target.arch.writeDise(3, 0x0300'0000); // never the stored addr
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        res[jit] = cpu.run();
        ASSERT_EQ(res[jit].halt, HaltReason::Exited);
        if (jit) {
            EXPECT_GT(target.jit()->stats().suppressedExecs, 0u);
        }
    }
    EXPECT_EQ(res[1].appInsts, res[0].appInsts);
    EXPECT_EQ(res[1].microOps, res[0].microOps);
    EXPECT_EQ(res[1].expansionOps, res[0].expansionOps);
}

/**
 * An accumulator group (addq dr0, 1, dr0) reads its own output: the
 * "second instance recomputes the same values" argument does not hold,
 * so suppression must leave it alone. Counts diverging from the
 * interpreter here means the suppression pass elided live work.
 */
TEST(TraceJit, SuppressionKeepsAccumulatorGroups)
{
    uint64_t counts[2];
    for (int jit = 0; jit < 2; ++jit) {
        Assembler a;
        emitDoubleStoreLoop(a);
        DebugTarget target(a.finish("main"));
        target.engine.addProduction(countStoresProduction());
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        if (jit) {
            env.jit = target.jit();
            target.jit()->config().hotThreshold = 4;
        }
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        FuncResult r = cpu.run();
        ASSERT_EQ(r.halt, HaltReason::Exited);
        counts[jit] = target.arch.readDise(0);
    }
    EXPECT_EQ(counts[0], 100u); // 50 laps x 2 stores
    EXPECT_EQ(counts[1], counts[0]);
}

// -------------------------------------------------- budget exactness

/** A split run (limit landing mid-trace) must equal one unbounded run. */
TEST(TraceJit, SplitRunMatchesSingleRun)
{
    uint64_t marks[2];
    for (int split = 0; split < 2; ++split) {
        Assembler a;
        emitSumLoop(a);
        DebugTarget target(a.finish("main"));
        target.load();
        StreamEnv env;
        env.sink = &target.sink;
        env.jit = target.jit();
        target.jit()->config().hotThreshold = 4;
        FuncCpu cpu(target.arch, target.mem, &target.engine, env);
        if (split) {
            FuncResult r1 = cpu.run(17);
            ASSERT_EQ(r1.halt, HaltReason::InstLimit);
            EXPECT_EQ(r1.appInsts, 17u);
            FuncResult r2 = cpu.run(101);
            ASSERT_EQ(r2.halt, HaltReason::InstLimit);
            EXPECT_EQ(r2.appInsts, 101u);
            FuncResult r3 = cpu.run();
            ASSERT_EQ(r3.halt, HaltReason::Exited);
        } else {
            FuncResult r = cpu.run();
            ASSERT_EQ(r.halt, HaltReason::Exited);
        }
        marks[split] = target.sink.marks.at(0);
    }
    EXPECT_EQ(marks[0], 5050u);
    EXPECT_EQ(marks[1], marks[0]);
}

// ------------------------------------- DISE conditional-call guards

constexpr uint64_t GuardLaps = 640;
/** Every GuardPeriod-th lap stores to the watched cell. */
constexpr uint64_t GuardPeriod = 16;

/**
 * A branch-free hot loop with one back edge, so one trace covers a
 * whole lap. Every lap stores its count to "other". A second store goes
 * to "other" too, except on every GuardPeriod-th lap, when its address
 * is "watched". Those watched stores alternate between changing the
 * cell and rewriting the value it holds (a silent store). "w1".."w3"
 * are cells nothing stores to.
 */
Program
guardLoopProgram()
{
    Assembler a;
    a.data(layout::DataBase);
    a.label("watched");
    a.quad(0);
    a.label("w1");
    a.quad(0);
    a.label("w2");
    a.quad(0);
    a.label("w3");
    a.quad(0);
    a.align(64);
    a.label("other");
    a.quad(0);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "watched");
    a.la(s1, "other");
    a.subq(s0, s1, s4);
    a.li(s3, GuardLaps);
    a.li(t0, 0); // laps since the last watched store
    a.li(t6, 0); // 1 when the next watched store is silent
    a.li(t7, 0); // the value the second store writes
    a.label("loop");
    a.stq(s3, 0, s1);
    a.addq(t0, 1, t0);
    a.cmpeq(t0, GuardPeriod, t1); // 1 on a watched lap
    a.subq(zero, t1, t2);         // all ones on a watched lap
    a.bic(t0, t2, t0);
    a.xor_(t6, t1, t6);
    a.and_(t1, t6, t8);
    a.addq(t7, t8, t7); // changes on every other watched lap
    a.and_(t2, s4, t9);
    a.addq(s1, t9, t9); // "watched" on a watched lap, else "other"
    a.stq(t7, 0, t9);
    a.subq(s3, 1, s3);
    a.bne(s3, "loop");
    a.syscall(SysExit);
    return a.finish("main");
}

/** One DISE configuration of the guard scenario. */
struct GuardCase
{
    const char *name;
    DiseOptions dise;
    /** Scalar watches on watched, w1, w2, w3 (in that order); 0 means
     *  one range watch over all four cells. */
    unsigned scalars;
    /** The store check ends in d_ccall. */
    bool ccall;
    /** The strategy the options resolve to (checked when ccall). */
    MultiMatch strategy;
};

void
PrintTo(const GuardCase &gc, std::ostream *os)
{
    *os << gc.name;
}

std::vector<WatchSpec>
guardWatches(const Program &prog, const GuardCase &gc)
{
    if (gc.scalars == 0)
        return {WatchSpec::range("cells", prog.symbol("watched"), 32)};
    const char *cells[] = {"watched", "w1", "w2", "w3"};
    std::vector<WatchSpec> ws;
    for (unsigned i = 0; i < gc.scalars; ++i)
        ws.push_back(WatchSpec::scalar(cells[i], prog.symbol(cells[i]), 8));
    return ws;
}

struct GuardRun
{
    FuncResult res;
    size_t events = 0;
    TraceCacheStats jit;
};

/** A functional run to the end, with no budget to cut a trace short. */
GuardRun
runGuardFunctional(const GuardCase &gc, bool jitOn)
{
    DebugTarget target(guardLoopProgram());
    DebuggerOptions o;
    o.dise = gc.dise;
    Debugger dbg(target, o);
    for (const WatchSpec &w : guardWatches(target.program, gc))
        dbg.watch(w);
    EXPECT_TRUE(dbg.attach()) << gc.name;
    if (gc.ccall) {
        EXPECT_EQ(static_cast<DiseBackend &>(dbg.backend()).strategy(),
                  gc.strategy)
            << gc.name;
    }
    target.jit()->config().enabled = jitOn;
    target.jit()->config().hotThreshold = 4; // traced before lap 16
    GuardRun run;
    run.res = dbg.runFunctional();
    EXPECT_EQ(run.res.halt, HaltReason::Exited) << gc.name;
    run.events = dbg.backend().totalEvents();
    run.jit = target.jit()->stats();
    return run;
}

/** The session verbs' stop log, as in jit_parity_test. */
std::vector<std::string>
guardSessionLog(const GuardCase &gc, bool jitOn, uint64_t *tracedUops)
{
    Program prog = guardLoopProgram();
    SessionOptions o;
    o.debugger.dise = gc.dise;
    o.timeTravel.checkpointInterval = 256;
    DebugSession session(prog, o);
    for (const WatchSpec &w : guardWatches(prog, gc))
        EXPECT_GE(session.setWatch(w), 0);
    EXPECT_TRUE(session.attach()) << gc.name;
    session.target().jit()->config().enabled = jitOn;

    std::vector<std::string> log;
    auto rec = [&](const char *verb, const StopInfo &s) {
        std::ostringstream os;
        os << verb << " reason=" << static_cast<int>(s.reason)
           << " time=" << s.time << " insts=" << s.appInsts
           << " pc=" << std::hex << s.pc << std::dec
           << " events=" << session.eventCount() << " digest="
           << std::hex << session.digest();
        log.push_back(os.str());
    };
    rec("cont1", session.cont());
    rec("cont2", session.cont());
    rec("stepi", session.stepi(7));
    rec("rstep", session.reverseStep(40));
    rec("cont3", session.cont());
    rec("end", session.runToEnd());
    IntervalReplay::Report vr = session.verifyReplay(2);
    EXPECT_TRUE(vr.ok) << gc.name << ": " << vr.error;
    std::ostringstream os;
    os << "verify final=" << std::hex << vr.finalDigest
       << " live=" << vr.liveDigest << std::dec
       << " marks=" << vr.marksVerified;
    log.push_back(os.str());
    *tracedUops = session.target().jit()->stats().tracedUops;
    return log;
}

class DiseGuard : public ::testing::TestWithParam<GuardCase>
{
};

/**
 * Every configuration: trace on and off agree on the functional run
 * and on the session stop log. Where the store check ends in d_ccall,
 * the not-taken call stays in the trace, so almost every µop runs
 * traced and each watched-cell store leaves the trace at its guard.
 */
TEST_P(DiseGuard, ChecksStayTracedAndTraceOnOffAgree)
{
    const GuardCase &gc = GetParam();
    GuardRun off = runGuardFunctional(gc, false);
    GuardRun on = runGuardFunctional(gc, true);
    EXPECT_EQ(on.res.microOps, off.res.microOps);
    EXPECT_EQ(on.res.appInsts, off.res.appInsts);
    EXPECT_EQ(on.res.handlerOps, off.res.handlerOps);
    EXPECT_EQ(on.events, off.events);
    EXPECT_EQ(off.events, GuardLaps / GuardPeriod / 2); // changing ones
    if (gc.ccall) {
        double share = static_cast<double>(on.jit.tracedUops) /
                       static_cast<double>(on.res.microOps);
        EXPECT_GE(share, 0.8);
        // No budget cuts a trace here, and the trace exists before the
        // first watched lap; the loop's last lap is a watched one, so
        // its back edge never leaves the trace either.
        EXPECT_EQ(on.jit.sideExits, GuardLaps / GuardPeriod);
    }

    uint64_t traced = 0;
    std::vector<std::string> logOff = guardSessionLog(gc, false, &traced);
    std::vector<std::string> logOn = guardSessionLog(gc, true, &traced);
    ASSERT_EQ(logOff.size(), logOn.size());
    for (size_t i = 0; i < logOff.size(); ++i)
        EXPECT_EQ(logOff[i], logOn[i]) << gc.name << " step " << i;
    EXPECT_GT(traced, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DiseGuard,
    ::testing::Values(
        GuardCase{"Serial", {}, 1, true, MultiMatch::Serial},
        GuardCase{"RangeCheck", {}, 0, true, MultiMatch::RangeCheck},
        GuardCase{"BloomByte", {}, 4, true, MultiMatch::BloomByte},
        GuardCase{"BloomBit", {.strategy = MultiMatch::BloomBit}, 4, true,
                  MultiMatch::BloomBit},
        GuardCase{"DBeqDCall", {.condCallTrap = false}, 1, false,
                  MultiMatch::Serial},
        GuardCase{"EvalExpr", {.variant = DiseVariant::EvalExpr}, 1,
                  false, MultiMatch::Serial},
        GuardCase{"MatchAddrValue",
                  {.variant = DiseVariant::MatchAddrValue}, 1, false,
                  MultiMatch::Serial}),
    [](const ::testing::TestParamInfo<GuardCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace dise
