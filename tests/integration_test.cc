/**
 * @file
 * Integration tests: cross-backend event-sequence parity on the real
 * kernels (the strongest end-to-end correctness property we have) and
 * the qualitative performance orderings every figure in the paper
 * depends on, checked at reduced scale so ctest stays fast.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace dise {
namespace {

/** Event value-sequence under a backend, capped for speed. */
std::vector<std::pair<uint64_t, uint64_t>>
eventsFor(const Workload &w, WatchSpec spec, BackendKind kind,
          uint64_t cap)
{
    DebugTarget t(w.program);
    DebuggerOptions o;
    o.backend = kind;
    Debugger dbg(t, o);
    dbg.watch(spec);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    if (!dbg.attach())
        return {{~0ull, ~0ull}}; // unsupported sentinel
    dbg.runFunctional(cap);
    for (const auto &e : dbg.watchEvents())
        out.emplace_back(e.oldValue, e.newValue);
    return out;
}

class ParityTest : public ::testing::TestWithParam<
                       std::tuple<std::string, WatchSel>>
{
};

TEST_P(ParityTest, BackendsAgreeOnEvents)
{
    auto [name, sel] = GetParam();
    Workload w = buildWorkload(name, {});
    WatchSpec spec = w.watch(sel);
    const uint64_t cap = 120000;

    auto dise = eventsFor(w, spec, BackendKind::Dise, cap);
    auto sstep = eventsFor(w, spec, BackendKind::SingleStep, cap);
    EXPECT_EQ(dise, sstep) << name << "/" << watchSelName(sel);

    auto vm = eventsFor(w, spec, BackendKind::VirtualMemory, cap);
    if (!(vm.size() == 1 && vm[0].first == ~0ull)) {
        EXPECT_EQ(dise, vm) << name << "/" << watchSelName(sel);
    }

    auto hw = eventsFor(w, spec, BackendKind::HardwareReg, cap);
    if (!(hw.size() == 1 && hw[0].first == ~0ull)) {
        EXPECT_EQ(dise, hw) << name << "/" << watchSelName(sel);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParityTest,
    ::testing::Combine(::testing::Values("bzip2", "crafty", "mcf",
                                         "twolf"),
                       ::testing::Values(WatchSel::HOT, WatchSel::WARM1,
                                         WatchSel::INDIRECT,
                                         WatchSel::RANGE)));

// ------------------------------------------------ shape propositions

struct ShapeFixture : ::testing::Test
{
    static ExperimentRunner &
    runner()
    {
        static ExperimentRunner run;
        return run;
    }

    static double
    slowdown(const std::string &name, WatchSel sel, BackendKind kind,
             bool conditional = false, bool mt = false)
    {
        DebuggerOptions o;
        o.backend = kind;
        RunOutcome out = runner().debugged(
            name, {runner().standardWatch(name, sel, conditional)}, o,
            mt);
        EXPECT_TRUE(out.supported);
        return out.slowdown;
    }
};

TEST_F(ShapeFixture, SingleSteppingIsCatastrophic)
{
    // Paper: slowdowns of 6,000-40,000x.
    double s = slowdown("twolf", WatchSel::COLD, BackendKind::SingleStep);
    EXPECT_GT(s, 3000);
}

TEST_F(ShapeFixture, DiseStaysComfortablyLow)
{
    // Paper: "typically limits debugging overhead to 25% or less",
    // with hot outliers; COLD must be tight everywhere.
    for (const auto &name : workloadNames()) {
        double s = slowdown(name, WatchSel::COLD, BackendKind::Dise);
        EXPECT_LT(s, 1.6) << name;
        EXPECT_GE(s, 0.99) << name;
    }
}

TEST_F(ShapeFixture, DiseBeatsSingleSteppingByOrdersOfMagnitude)
{
    double dise = slowdown("bzip2", WatchSel::HOT, BackendKind::Dise);
    double sstep =
        slowdown("bzip2", WatchSel::HOT, BackendKind::SingleStep);
    EXPECT_GT(sstep / dise, 1000);
}

TEST_F(ShapeFixture, VmSufferssOnSharedPages)
{
    // WARM1/bzip2 shares its page with the hot output buffer.
    double vm =
        slowdown("bzip2", WatchSel::WARM1, BackendKind::VirtualMemory);
    double dise = slowdown("bzip2", WatchSel::WARM1, BackendKind::Dise);
    EXPECT_GT(vm, 100 * dise);
    // COLD/bzip2 sits on a quiet page: VM is essentially free.
    double vmCold =
        slowdown("bzip2", WatchSel::COLD, BackendKind::VirtualMemory);
    EXPECT_LT(vmCold, 1.1);
}

TEST_F(ShapeFixture, SilentStoresHurtHardwareRegisters)
{
    // HOT/crafty is mostly silent stores: hardware registers take a
    // spurious value transition per silent store, DISE prunes them.
    double hw =
        slowdown("crafty", WatchSel::HOT, BackendKind::HardwareReg);
    double dise = slowdown("crafty", WatchSel::HOT, BackendKind::Dise);
    EXPECT_GT(hw, 20 * dise);
    // bzip2's HOT has no silent stores: hardware is free there.
    double hwBzip =
        slowdown("bzip2", WatchSel::HOT, BackendKind::HardwareReg);
    EXPECT_LT(hwBzip, 1.1);
}

TEST_F(ShapeFixture, ConditionalsFavorDise)
{
    // Under a never-true predicate every value change becomes a
    // spurious predicate transition for hardware registers.
    double hw = slowdown("bzip2", WatchSel::HOT,
                         BackendKind::HardwareReg, true);
    double dise =
        slowdown("bzip2", WatchSel::HOT, BackendKind::Dise, true);
    EXPECT_GT(hw, 100 * dise);
}

TEST_F(ShapeFixture, ConditionalColdFavorsHardwareSlightly)
{
    // Paper Section 5.2: for watchpoints written less than about once
    // per 100K stores the trap-based implementations win.
    double hw = slowdown("gcc", WatchSel::COLD,
                         BackendKind::HardwareReg, true);
    double dise =
        slowdown("gcc", WatchSel::COLD, BackendKind::Dise, true);
    EXPECT_LT(hw, dise * 1.6);
}

TEST_F(ShapeFixture, MemoryBoundnessMasksDise)
{
    // HOT/mcf: overhead is hidden under the memory latency.
    double s = slowdown("mcf", WatchSel::HOT, BackendKind::Dise);
    EXPECT_LT(s, 1.2);
}

TEST_F(ShapeFixture, MultithreadingHelpsHotWatchpoints)
{
    double off = slowdown("bzip2", WatchSel::HOT, BackendKind::Dise,
                          false, false);
    double on = slowdown("bzip2", WatchSel::HOT, BackendKind::Dise,
                         false, true);
    EXPECT_LT(on, off * 0.8);
    // COLD barely changes.
    double offCold = slowdown("bzip2", WatchSel::COLD,
                              BackendKind::Dise, false, false);
    double onCold = slowdown("bzip2", WatchSel::COLD, BackendKind::Dise,
                             false, true);
    EXPECT_NEAR(onCold, offCold, 0.05);
}

TEST_F(ShapeFixture, HardwareCollapsesPastFourWatchpoints)
{
    const Workload &w = runner().workload("crafty");
    DebuggerOptions hw;
    hw.backend = BackendKind::HardwareReg;
    RunOutcome four = runner().debugged("crafty", w.multiWatch(4), hw);
    RunOutcome five = runner().debugged("crafty", w.multiWatch(5), hw);
    ASSERT_TRUE(four.supported && five.supported);
    EXPECT_GT(five.slowdown, four.slowdown * 2);

    // DISE stays flat across the same step.
    DebuggerOptions dd;
    dd.backend = BackendKind::Dise;
    dd.dise.strategy = MultiMatch::BloomByte;
    RunOutcome dfour = runner().debugged("crafty", w.multiWatch(4), dd);
    RunOutcome dfive = runner().debugged("crafty", w.multiWatch(5), dd);
    EXPECT_LT(dfive.slowdown, dfour.slowdown * 1.25);
}

TEST_F(ShapeFixture, SerialGrowsBloomsStayFlat)
{
    const Workload &w = runner().workload("gcc");
    auto dise = [&](MultiMatch s, unsigned n) {
        DebuggerOptions dd;
        dd.backend = BackendKind::Dise;
        dd.dise.strategy = s;
        return runner().debugged("gcc", w.multiWatch(n), dd).slowdown;
    };
    double serial2 = dise(MultiMatch::Serial, 2);
    double serial16 = dise(MultiMatch::Serial, 16);
    double bloom2 = dise(MultiMatch::BloomByte, 2);
    double bloom16 = dise(MultiMatch::BloomByte, 16);
    EXPECT_GT(serial16, serial2 * 1.5); // linear growth
    EXPECT_LT(bloom16, bloom2 * 1.3);   // constant-length sequence
    EXPECT_LT(bloom16, serial16);
}

TEST_F(ShapeFixture, RewritingWorseForLargeFootprints)
{
    DebuggerOptions rw;
    rw.backend = BackendKind::Rewrite;
    DebuggerOptions dd;
    dd.backend = BackendKind::Dise;
    auto spec = [&](const std::string &n) {
        return runner().standardWatch(n, WatchSel::COLD, false);
    };
    RunOutcome gccRw = runner().debugged("gcc", {spec("gcc")}, rw);
    RunOutcome gccDise = runner().debugged("gcc", {spec("gcc")}, dd);
    EXPECT_GT(gccRw.slowdown, gccDise.slowdown * 1.5);
}

TEST_F(ShapeFixture, ProtectionCostIsModest)
{
    DebuggerOptions plain;
    plain.backend = BackendKind::Dise;
    DebuggerOptions prot = plain;
    prot.dise.protectDebuggerData = true;
    for (const std::string name : {"gcc", "twolf"}) {
        auto spec = runner().standardWatch(name, WatchSel::COLD, false);
        double p = runner().debugged(name, {spec}, plain).slowdown;
        double q = runner().debugged(name, {spec}, prot).slowdown;
        EXPECT_LT(q, p + 0.35) << name;
        EXPECT_GE(q, p * 0.99) << name;
    }
}

TEST_F(ShapeFixture, CtrapAvoidsCommonCaseFlushes)
{
    DebuggerOptions with;
    with.backend = BackendKind::Dise;
    DebuggerOptions without = with;
    without.dise.condCallTrap = false;
    auto spec = runner().standardWatch("twolf", WatchSel::COLD, false);
    double w = runner().debugged("twolf", {spec}, with).slowdown;
    double wo = runner().debugged("twolf", {spec}, without).slowdown;
    EXPECT_GT(wo, w * 1.3);
}

TEST_F(ShapeFixture, DiseEventsMatchAcrossStrategies)
{
    const Workload &w = runner().workload("crafty");
    auto events = [&](MultiMatch s) {
        DebuggerOptions dd;
        dd.backend = BackendKind::Dise;
        dd.dise.strategy = s;
        return runner()
            .debugged("crafty", w.multiWatch(8), dd)
            .watchEvents;
    };
    size_t serial = events(MultiMatch::Serial);
    size_t bbyte = events(MultiMatch::BloomByte);
    size_t bbit = events(MultiMatch::BloomBit);
    EXPECT_EQ(serial, bbyte);
    EXPECT_EQ(serial, bbit);
}

} // namespace
} // namespace dise
