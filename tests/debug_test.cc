/**
 * @file
 * Debugger tests: the watchpoint expression machinery, every backend's
 * functional detection behavior (scalars, indirection, ranges,
 * conditionals, silent stores), breakpoints in all flavors, the
 * protection production, Bloom-filter correctness, and the binary
 * rewriter's semantic transparency.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/random.hh"
#include "cpu/loader.hh"
#include "debug/debugger.hh"
#include "debug/hwreg_backend.hh"
#include "debug/rewrite_backend.hh"
#include "debug/vm_backend.hh"

namespace dise {
namespace {

using namespace reg;

// ------------------------------------------------------- watch state

TEST(WatchState, ScalarDetectsChange)
{
    MainMemory mem;
    mem.write(0x1000, 8, 5);
    WatchState ws(WatchSpec::scalar("x", 0x1000, 8));
    ws.prime(mem);
    EXPECT_FALSE(ws.evaluate(mem).has_value());
    mem.write(0x1000, 8, 6);
    auto ch = ws.evaluate(mem);
    ASSERT_TRUE(ch);
    EXPECT_EQ(ch->oldValue, 5u);
    EXPECT_EQ(ch->newValue, 6u);
    EXPECT_FALSE(ws.evaluate(mem).has_value()); // shadow updated
}

TEST(WatchState, SilentWriteIsNoChange)
{
    MainMemory mem;
    mem.write(0x1000, 8, 5);
    WatchState ws(WatchSpec::scalar("x", 0x1000, 8));
    ws.prime(mem);
    mem.write(0x1000, 8, 5); // silent
    EXPECT_FALSE(ws.evaluate(mem).has_value());
}

TEST(WatchState, IndirectFollowsPointer)
{
    MainMemory mem;
    mem.write(0x1000, 8, 0x2000); // p = &a
    mem.write(0x2000, 8, 11);     // a
    mem.write(0x3000, 8, 22);     // b
    WatchState ws(WatchSpec::indirect("*p", 0x1000, 8));
    ws.prime(mem);

    // Writing *p is a change.
    mem.write(0x2000, 8, 12);
    auto ch = ws.evaluate(mem);
    ASSERT_TRUE(ch);
    EXPECT_EQ(ch->newValue, 12u);

    // Retargeting p to b changes the expression value (12 -> 22).
    mem.write(0x1000, 8, 0x3000);
    ch = ws.evaluate(mem);
    ASSERT_TRUE(ch);
    EXPECT_EQ(ch->newValue, 22u);
    EXPECT_EQ(ws.currentTarget(), 0x3000u);

    // Writes to the old target no longer matter.
    mem.write(0x2000, 8, 99);
    EXPECT_FALSE(ws.evaluate(mem).has_value());
}

TEST(WatchState, RangeDetectsAnyByte)
{
    MainMemory mem;
    WatchState ws(WatchSpec::range("arr", 0x4000, 256));
    ws.prime(mem);
    mem.write(0x4000 + 131, 1, 0xab);
    auto ch = ws.evaluate(mem);
    ASSERT_TRUE(ch);
    EXPECT_EQ(ch->addr, 0x4000u + 128); // quad-aligned window
    EXPECT_FALSE(ws.evaluate(mem).has_value());
}

TEST(WatchState, OverlapTests)
{
    MainMemory mem;
    WatchState s(WatchSpec::scalar("x", 0x1000, 8));
    EXPECT_TRUE(s.overlaps(0x1000, 8));
    EXPECT_TRUE(s.overlaps(0x0fff, 2));
    EXPECT_TRUE(s.overlaps(0x1007, 1));
    EXPECT_FALSE(s.overlaps(0x1008, 8));
    WatchState r(WatchSpec::range("a", 0x2000, 64));
    EXPECT_TRUE(r.overlaps(0x203f, 1));
    EXPECT_FALSE(r.overlaps(0x2040, 8));
}

TEST(WatchState, PredicateGates)
{
    WatchState ws(WatchSpec::scalar("x", 0x1000, 8).withCondition(42));
    EXPECT_TRUE(ws.predicatePasses(42));
    EXPECT_FALSE(ws.predicatePasses(41));
    WatchState un(WatchSpec::scalar("x", 0x1000, 8));
    EXPECT_TRUE(un.predicatePasses(123));
}

// ------------------------------------------------ a tiny shared target

/** A program writing a watched variable with known old/new values. */
Program
watchProgram()
{
    Assembler a;
    a.data(0x0200'0000);
    a.label("var");
    a.quad(100);
    a.align(8);
    a.label("other");
    a.quad(0);
    a.align(4096);
    a.label("far");
    a.quad(0);
    a.text(0x0100'0000);
    a.label("main");
    a.stmt(1);
    a.la(s0, "var");
    a.la(s1, "other");
    a.label("bp_spot");
    a.li(t0, 100);
    a.stmt(2);
    a.stq(t0, 0, s0); // silent: 100 -> 100
    a.stmt(3);
    a.stq(t0, 0, s1); // unwatched
    a.stmt(4);
    a.li(t0, 7);
    a.stq(t0, 0, s0); // change: 100 -> 7
    a.stmt(5);
    a.li(t0, 42);
    a.stq(t0, 0, s0); // change: 7 -> 42
    a.stmt(6);
    a.syscall(SysExit);
    return a.finish("main");
}

struct EventSummary
{
    bool supported = true;
    std::vector<std::pair<uint64_t, uint64_t>> oldNew;
};

EventSummary
runBackend(BackendKind kind, WatchSpec spec, DiseOptions dopts = {})
{
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = kind;
    o.dise = dopts;
    Debugger dbg(t, o);
    dbg.watch(spec);
    EventSummary sum;
    if (!dbg.attach()) {
        sum.supported = false;
        return sum;
    }
    FuncResult r = dbg.runFunctional();
    EXPECT_EQ(r.halt, HaltReason::Exited) << r.faultMessage;
    for (const auto &e : dbg.backend().watchEvents())
        sum.oldNew.emplace_back(e.oldValue, e.newValue);
    return sum;
}

WatchSpec
varSpec(bool conditional = false)
{
    Program p = watchProgram();
    WatchSpec spec = WatchSpec::scalar("var", p.symbol("var"), 8);
    if (conditional)
        spec = spec.withCondition(42); // matches only the last write
    return spec;
}

class AllBackends : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(AllBackends, DetectsChangesIgnoresSilent)
{
    EventSummary sum = runBackend(GetParam(), varSpec());
    ASSERT_TRUE(sum.supported);
    ASSERT_EQ(sum.oldNew.size(), 2u);
    EXPECT_EQ(sum.oldNew[0], (std::pair<uint64_t, uint64_t>{100, 7}));
    EXPECT_EQ(sum.oldNew[1], (std::pair<uint64_t, uint64_t>{7, 42}));
}

TEST_P(AllBackends, ConditionalReportsOnlyPredicateTrue)
{
    EventSummary sum = runBackend(GetParam(), varSpec(true));
    ASSERT_TRUE(sum.supported);
    ASSERT_EQ(sum.oldNew.size(), 1u);
    EXPECT_EQ(sum.oldNew[0].second, 42ull);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllBackends,
                         ::testing::Values(BackendKind::Dise,
                                           BackendKind::SingleStep,
                                           BackendKind::VirtualMemory,
                                           BackendKind::HardwareReg,
                                           BackendKind::Rewrite));

/** DISE variants and strategies must agree with the default. */
class DiseFlavors : public ::testing::TestWithParam<DiseOptions>
{
};

TEST_P(DiseFlavors, DetectsChangesIgnoresSilent)
{
    EventSummary sum =
        runBackend(BackendKind::Dise, varSpec(), GetParam());
    ASSERT_TRUE(sum.supported);
    ASSERT_EQ(sum.oldNew.size(), 2u);
    EXPECT_EQ(sum.oldNew[1], (std::pair<uint64_t, uint64_t>{7, 42}));
}

TEST_P(DiseFlavors, ConditionalFiltered)
{
    EventSummary sum =
        runBackend(BackendKind::Dise, varSpec(true), GetParam());
    ASSERT_TRUE(sum.supported);
    ASSERT_EQ(sum.oldNew.size(), 1u);
}

DiseOptions
flavor(DiseVariant v, bool cc, MultiMatch s,
       bool protect = false)
{
    DiseOptions o;
    o.variant = v;
    o.condCallTrap = cc;
    o.strategy = s;
    o.protectDebuggerData = protect;
    return o;
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, DiseFlavors,
    ::testing::Values(
        flavor(DiseVariant::MatchAddrEvalExpr, true, MultiMatch::Auto),
        flavor(DiseVariant::MatchAddrEvalExpr, false, MultiMatch::Auto),
        flavor(DiseVariant::EvalExpr, true, MultiMatch::Auto),
        flavor(DiseVariant::EvalExpr, false, MultiMatch::Auto),
        flavor(DiseVariant::MatchAddrValue, true, MultiMatch::Auto),
        flavor(DiseVariant::MatchAddrValue, false, MultiMatch::Auto),
        flavor(DiseVariant::MatchAddrEvalExpr, true,
               MultiMatch::BloomByte),
        flavor(DiseVariant::MatchAddrEvalExpr, true,
               MultiMatch::BloomBit),
        flavor(DiseVariant::MatchAddrEvalExpr, true, MultiMatch::Auto,
               true)));

// ------------------------------------------------------- VM specifics

TEST(VmBackend, SamePageStoreIsSpuriousAddress)
{
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = BackendKind::VirtualMemory;
    Debugger dbg(t, o);
    // Watch "other"'s neighbor page-mate "var": both live on one page,
    // so the unwatched store to "other" traps spuriously.
    dbg.watch(WatchSpec::scalar("var", t.symbol("var"), 8));
    ASSERT_TRUE(dbg.attach());
    StreamEnv env = dbg.backend().streamEnv(t);
    TimingCpu cpu(t.arch, t.mem, &t.engine, env, {});
    RunStats s = cpu.run({});
    // One spurious-address (store to other), one spurious-value
    // (silent store), two user transitions.
    EXPECT_EQ(s.transitionsSpuriousAddr, 1u);
    EXPECT_EQ(s.transitionsSpuriousValue, 1u);
    EXPECT_EQ(s.transitionsUser, 2u);
}

TEST(VmBackend, FarPageDoesNotTrap)
{
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = BackendKind::VirtualMemory;
    Debugger dbg(t, o);
    dbg.watch(WatchSpec::scalar("far", t.symbol("far"), 8));
    ASSERT_TRUE(dbg.attach());
    StreamEnv env = dbg.backend().streamEnv(t);
    TimingCpu cpu(t.arch, t.mem, &t.engine, env, {});
    RunStats s = cpu.run({});
    EXPECT_EQ(s.spuriousTransitions(), 0u);
    EXPECT_EQ(s.transitionsUser, 0u);
}

TEST(VmBackend, IndirectUnsupported)
{
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = BackendKind::VirtualMemory;
    Debugger dbg(t, o);
    dbg.watch(WatchSpec::indirect("*p", t.symbol("var"), 8));
    EXPECT_FALSE(dbg.attach());
}

// ------------------------------------------------------- HW specifics

TEST(HwBackend, SilentStoreIsSpuriousValue)
{
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = BackendKind::HardwareReg;
    Debugger dbg(t, o);
    dbg.watch(varSpec());
    ASSERT_TRUE(dbg.attach());
    StreamEnv env = dbg.backend().streamEnv(t);
    TimingCpu cpu(t.arch, t.mem, &t.engine, env, {});
    RunStats s = cpu.run({});
    EXPECT_EQ(s.transitionsSpuriousValue, 1u);
    EXPECT_EQ(s.transitionsSpuriousAddr, 0u); // quad granularity
    EXPECT_EQ(s.transitionsUser, 2u);
}

TEST(HwBackend, RangeUnsupported)
{
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = BackendKind::HardwareReg;
    Debugger dbg(t, o);
    dbg.watch(WatchSpec::range("r", t.symbol("var"), 64));
    EXPECT_FALSE(dbg.attach());
}

TEST(HwBackend, FallsBackToVmPastFourRegisters)
{
    DebugTarget t(watchProgram());
    HwRegBackend backend(4);
    std::vector<WatchSpec> specs;
    for (int i = 0; i < 6; ++i)
        specs.push_back(WatchSpec::scalar(
            std::string("w").append(std::to_string(i)),
            t.symbol("var") + 16 * static_cast<Addr>(i), 8));
    ASSERT_TRUE(backend.install(t, specs, {}));
    EXPECT_EQ(backend.hwAssigned(), 4u);
    EXPECT_GE(backend.vmPages(), 1u);
}

// ------------------------------------------------------ DISE details

TEST(DiseBackend, HandlerAndDsegAppended)
{
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    Debugger dbg(t, o);
    dbg.watch(varSpec());
    ASSERT_TRUE(dbg.attach());
    bool haveHandler = false, haveDseg = false;
    for (const auto &seg : t.program.segments) {
        haveHandler |= seg.name == "dise_handler_text";
        haveDseg |= seg.name == "dseg";
    }
    EXPECT_TRUE(haveHandler);
    EXPECT_TRUE(haveDseg);
    auto &backend = static_cast<DiseBackend &>(dbg.backend());
    // Paper: three or four instructions after every store.
    EXPECT_LE(backend.replacementLength(), 6u);
    EXPECT_GE(backend.replacementLength(), 4u);
}

TEST(DiseBackend, NoTransitionsWithoutRealChanges)
{
    // All spurious events are pruned inside the application: a DISE
    // run shows zero spurious transitions, ever.
    DebugTarget t(watchProgram());
    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    Debugger dbg(t, o);
    dbg.watch(varSpec());
    ASSERT_TRUE(dbg.attach());
    StreamEnv env = dbg.backend().streamEnv(t);
    TimingCpu cpu(t.arch, t.mem, &t.engine, env, {});
    RunStats s = cpu.run({});
    EXPECT_EQ(s.spuriousTransitions(), 0u);
    EXPECT_EQ(s.transitionsUser, 2u);
}

TEST(DiseBackend, ProtectionCatchesWildStore)
{
    // A program that stores into the debugger's dseg region.
    Assembler a;
    a.data(0x0200'0000);
    a.label("var");
    a.quad(0);
    a.text(0x0100'0000);
    a.label("main");
    a.li(t0, layout::DebuggerDataBase + 64);
    a.li(t1, 0xbad);
    a.stq(t1, 0, t0);
    a.syscall(SysExit);
    DebugTarget t(a.finish("main"));

    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    o.dise.protectDebuggerData = true;
    Debugger dbg(t, o);
    dbg.watch(WatchSpec::scalar("var", t.symbol("var"), 8));
    ASSERT_TRUE(dbg.attach());
    dbg.runFunctional();
    ASSERT_EQ(dbg.backend().protectionEvents().size(), 1u);
    EXPECT_EQ(dbg.backend().protectionEvents()[0].addr,
              layout::DebuggerDataBase + 64);
}

TEST(DiseBackend, IndirectRetargetsViaHandler)
{
    // p initially points at a; retarget to b mid-run and verify writes
    // to b are then caught and writes to a are not.
    Assembler a;
    a.data(0x0200'0000);
    a.label("p");
    a.quadLabel("a");
    a.label("a");
    a.quad(1);
    a.label("b");
    a.quad(2);
    a.text(0x0100'0000);
    a.label("main");
    a.la(s0, "p");
    a.la(s1, "a");
    a.la(s2, "b");
    a.li(t0, 10);
    a.stq(t0, 0, s1); // *p changes: 1 -> 10 (event)
    a.stq(s2, 0, s0); // p = &b: expression 10 -> 2 (event)
    a.li(t0, 30);
    a.stq(t0, 0, s1); // a no longer watched: no event
    a.li(t0, 40);
    a.stq(t0, 0, s2); // *p: 2 -> 40 (event)
    a.syscall(SysExit);
    DebugTarget t(a.finish("main"));

    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    Debugger dbg(t, o);
    dbg.watch(WatchSpec::indirect("*p", t.symbol("p"), 8));
    ASSERT_TRUE(dbg.attach());
    FuncResult r = dbg.runFunctional();
    EXPECT_EQ(r.halt, HaltReason::Exited);
    ASSERT_EQ(dbg.backend().watchEvents().size(), 3u);
    EXPECT_EQ(dbg.backend().watchEvents()[0].newValue, 10u);
    EXPECT_EQ(dbg.backend().watchEvents()[1].newValue, 2u);
    EXPECT_EQ(dbg.backend().watchEvents()[2].newValue, 40u);
}

/** Property: Bloom-filter strategies never miss a real change. */
TEST(DiseBackend, PropertyBloomNeverMisses)
{
    Rng rng(321);
    for (int trial = 0; trial < 8; ++trial) {
        // Random store program over 16 slots, 3 of them watched.
        Assembler a;
        a.data(0x0200'0000);
        a.label("slots");
        a.space(16 * 8);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "slots");
        std::vector<uint64_t> lastVal(16, 0);
        std::vector<int> expectHits;
        std::vector<int> watched = {1, 7, 12};
        for (int i = 0; i < 40; ++i) {
            int slot = static_cast<int>(rng.below(16));
            uint64_t val = rng.below(50);
            a.li(t0, val);
            a.stq(t0, static_cast<int64_t>(slot * 8), s0);
            bool isWatched = std::count(watched.begin(), watched.end(),
                                        slot) > 0;
            if (isWatched && lastVal[slot] != val)
                expectHits.push_back(slot);
            lastVal[slot] = val;
        }
        a.syscall(SysExit);
        DebugTarget t(a.finish("main"));

        DebuggerOptions o;
        o.backend = BackendKind::Dise;
        o.dise.strategy =
            trial % 2 ? MultiMatch::BloomBit : MultiMatch::BloomByte;
        Debugger dbg(t, o);
        Addr base = t.symbol("slots");
        for (int slot : watched)
            dbg.watch(WatchSpec::scalar(
                std::string("s").append(std::to_string(slot)),
                base + slot * 8, 8));
        ASSERT_TRUE(dbg.attach());
        FuncResult r = dbg.runFunctional();
        EXPECT_EQ(r.halt, HaltReason::Exited) << r.faultMessage;
        EXPECT_EQ(dbg.backend().watchEvents().size(), expectHits.size());
    }
}

// --------------------------------------------------------- breakpoints

TEST(Breakpoints, DiseByPcPattern)
{
    DebugTarget t(watchProgram());
    Addr pc = t.symbol("main") + 8;
    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    Debugger dbg(t, o);
    dbg.breakAt(pc);
    ASSERT_TRUE(dbg.attach());
    dbg.runFunctional();
    ASSERT_EQ(dbg.backend().breakEvents().size(), 1u);
    EXPECT_EQ(dbg.backend().breakEvents()[0].pc, pc);
}

TEST(Breakpoints, DiseByCodeword)
{
    DebugTarget t(watchProgram());
    Addr pc = t.symbol("main") + 8;
    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    o.dise.breakpointsByCodeword = true;
    Debugger dbg(t, o);
    dbg.breakAt(pc);
    ASSERT_TRUE(dbg.attach());
    FuncResult r = dbg.runFunctional();
    EXPECT_EQ(r.halt, HaltReason::Exited);
    ASSERT_EQ(dbg.backend().breakEvents().size(), 1u);
}

TEST(Breakpoints, ConditionalOnlyFiresWhenTrue)
{
    // Break in the loop only when var == 3.
    Assembler a;
    a.data(0x0200'0000);
    a.label("var");
    a.quad(0);
    a.text(0x0100'0000);
    a.label("main");
    a.la(s0, "var");
    a.lda(t0, 0, zero);
    a.label("loop");
    a.addq(t0, 1, t0);
    a.stq(t0, 0, s0);
    a.label("bp_here");
    a.nop();
    a.cmplt(t0, 8, t1);
    a.bne(t1, "loop");
    a.syscall(SysExit);
    DebugTarget t(a.finish("main"));

    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    Debugger dbg(t, o);
    BreakSpec bp;
    bp.pc = t.symbol("bp_here");
    bp.conditional = true;
    bp.condAddr = t.symbol("var");
    bp.condSize = 8;
    bp.condConst = 3;
    dbg.breakAt(bp);
    ASSERT_TRUE(dbg.attach());
    dbg.runFunctional();
    ASSERT_EQ(dbg.backend().breakEvents().size(), 1u);
}

TEST(Breakpoints, RewriteBackendTrapPatch)
{
    DebugTarget t(watchProgram());
    // Rewriting operates at instruction granularity; breakpoints must
    // name an instruction start (debuggers get this from line tables).
    Addr pc = t.symbol("bp_spot");
    DebuggerOptions o;
    o.backend = BackendKind::Rewrite;
    Debugger dbg(t, o);
    dbg.breakAt(pc);
    ASSERT_TRUE(dbg.attach());
    FuncResult r = dbg.runFunctional();
    EXPECT_EQ(r.halt, HaltReason::Exited);
    EXPECT_EQ(dbg.backend().breakEvents().size(), 1u);
}

// -------------------------------------------------- rewriter property

/** Property: rewriting preserves program semantics (marks/output). */
TEST(RewriteBackend, PropertySemanticTransparency)
{
    // A program with data-dependent control, calls, and stores.
    auto build = [] {
        Assembler a;
        a.data(0x0200'0000);
        a.label("buf");
        a.space(256);
        a.text(0x0100'0000);
        a.label("main");
        a.la(s0, "buf");
        a.lda(t9, 0, zero);
        a.li(t11, 99);
        a.label("loop");
        a.li(t2, 25173);
        a.mulq(t11, t2, t11);
        a.addq(t11, 13849 & 0xff, t11);
        a.srl(t11, 9, t0);
        a.and_(t0, 31, t0);
        a.sll(t0, 3, t1);
        a.addq(s0, t1, t1);
        a.stq(t11, 0, t1);
        a.bsr(ra, "mix");
        a.addq(t9, 1, t9);
        a.cmplt(t9, 50, t2);
        a.bne(t2, "loop");
        a.lda(t0, 0, zero);
        a.lda(t3, 0, zero);
        a.label("sumloop");
        a.sll(t3, 3, t1);
        a.addq(s0, t1, t1);
        a.ldq(t1, 0, t1);
        a.addq(t0, t1, t0);
        a.addq(t3, 1, t3);
        a.cmplt(t3, 32, t2);
        a.bne(t2, "sumloop");
        a.mov(t0, a0);
        a.syscall(SysMark);
        a.syscall(SysExit);
        a.label("mix");
        a.xor_(t11, 0x5a, t11);
        a.ret(ra);
        return a.finish("main");
    };

    // Plain run.
    DebugTarget plain(build());
    plain.load();
    StreamEnv env;
    env.sink = &plain.sink;
    FuncCpu cpu(plain.arch, plain.mem, &plain.engine, env);
    FuncResult rp = cpu.run();
    ASSERT_EQ(rp.halt, HaltReason::Exited);

    // Rewritten run with a watchpoint on one slot.
    DebugTarget rt(build());
    DebuggerOptions o;
    o.backend = BackendKind::Rewrite;
    Debugger dbg(rt, o);
    dbg.watch(WatchSpec::scalar("slot", rt.symbol("buf") + 8 * 5, 8));
    ASSERT_TRUE(dbg.attach());
    FuncResult rr = dbg.runFunctional();
    EXPECT_EQ(rr.halt, HaltReason::Exited);
    ASSERT_EQ(plain.sink.marks.size(), rt.sink.marks.size());
    EXPECT_EQ(plain.sink.marks, rt.sink.marks);
    // And it is genuinely bloated.
    auto &backend = static_cast<RewriteBackend &>(dbg.backend());
    EXPECT_GT(backend.bloatFactor(), 1.5);
}

// --------------------------------------------------- stack exclusion

TEST(DiseBackend, StackExclusionSkipsStackStores)
{
    Assembler a;
    a.data(0x0200'0000);
    a.label("var");
    a.quad(0);
    a.text(0x0100'0000);
    a.label("main");
    a.lda(sp, -64, sp);
    a.la(s0, "var");
    a.li(t0, 5);
    a.stq(t0, 8, sp); // stack store: exempt
    a.stq(t0, 0, s0); // heap store: expanded (event)
    a.lda(sp, 64, sp);
    a.syscall(SysExit);
    DebugTarget t(a.finish("main"));

    DebuggerOptions o;
    o.backend = BackendKind::Dise;
    o.dise.excludeStackStores = true;
    Debugger dbg(t, o);
    dbg.watch(WatchSpec::scalar("var", t.symbol("var"), 8));
    ASSERT_TRUE(dbg.attach());
    FuncResult r = dbg.runFunctional();
    EXPECT_EQ(dbg.backend().watchEvents().size(), 1u);
    // Only the heap store was expanded: expansion ops for one store.
    EXPECT_LE(r.expansionOps, 8u);
}

} // namespace
} // namespace dise
