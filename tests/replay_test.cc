/**
 * @file
 * Time-travel subsystem tests: copy-on-write undo-log mechanics (block
 * capture, bit-exact restore) and cost proportionality, restore-side cache invalidation, same-seed
 * determinism (digest equality), checkpoint/restore/re-run
 * equivalence, reverse-continue landing on the exact watchpoint-hit
 * event under every backend, reverse-step exactness, and logged
 * debugger interventions (timeline forks, DISE-table unwinding).
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cpu/loader.hh"
#include "debug/debugger.hh"
#include "isa/encoding.hh"
#include "replay/interval_replay.hh"
#include "replay/time_travel.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

using namespace reg;

// ---------------------------------------------------- undo-log basics

/** Fill [base, base + len) with a byte pattern; returns the bytes. */
std::vector<uint8_t>
fillPattern(MainMemory &mem, Addr base, size_t len)
{
    std::vector<uint8_t> bytes(len);
    for (size_t i = 0; i < len; ++i)
        bytes[i] = static_cast<uint8_t>(i * 7 + 3);
    mem.writeBlock(base, bytes.data(), len);
    return bytes;
}

std::vector<uint8_t>
readBytes(const MainMemory &mem, Addr base, size_t len)
{
    std::vector<uint8_t> out(len);
    mem.readBlock(base, out.data(), len);
    return out;
}

struct FrameRecorder : CodeWatcher
{
    std::vector<uint64_t> frames;
    void onCodeWrite(uint64_t frame) override { frames.push_back(frame); }
};

TEST(UndoLog, CostProportionalToDirtyPagesNotFootprint)
{
    MainMemory mem;
    // Big footprint: touch 512 distinct pages.
    for (uint64_t p = 0; p < 512; ++p)
        mem.write(0x10000 + p * PageBytes, 8, p + 1);
    ASSERT_GE(mem.pageCount(), 512u);

    mem.beginUndoLog();
    // Dirty only 3 pages, repeatedly: pre-images are captured once per
    // page per interval, so the interval size tracks pages dirtied.
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t p = 0; p < 3; ++p)
            mem.write(0x10000 + p * PageBytes, 8, rep);
    EXPECT_EQ(mem.undoPagesPending(), 3u);
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 3u);
    // One 64-byte block per page, not the whole page.
    EXPECT_EQ(log.blocks.size(), 3u);
    EXPECT_EQ(log.bytes(), 3 * sizeof(UndoBlock));

    // The next interval captures them afresh.
    mem.write(0x10000, 8, 7);
    EXPECT_EQ(mem.undoPagesPending(), 1u);
    mem.endUndoLog();
}

TEST(UndoLog, ApplyRestoresPreImages)
{
    MainMemory mem;
    mem.write(0x4000, 8, 0x1111);
    mem.write(0x8000, 8, 0x2222);
    mem.beginUndoLog();
    mem.sealUndoInterval(); // fresh interval

    mem.write(0x4000, 8, 0xaaaa);
    mem.write(0x8000, 8, 0xbbbb);
    mem.write(0xc000, 8, 0xcccc); // page that did not exist before
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 3u);

    mem.applyUndo(log);
    EXPECT_EQ(mem.read(0x4000, 8), 0x1111u);
    EXPECT_EQ(mem.read(0x8000, 8), 0x2222u);
    EXPECT_EQ(mem.read(0xc000, 8), 0u);
    mem.endUndoLog();
}

TEST(UndoLog, StoreStraddlingTwoBlocksCapturesBoth)
{
    MainMemory mem;
    const Addr page = 0x4000;
    std::vector<uint8_t> before = fillPattern(mem, page, PageBytes);
    mem.beginUndoLog();
    mem.write(page + UndoBlockBytes - 4, 8, ~uint64_t{0}); // blocks 0, 1
    mem.write(page + UndoBlockBytes + 8, 8, 0); // block 1 again: no copy
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 1u);
    ASSERT_EQ(log.blocks.size(), 2u);
    EXPECT_EQ(log.blocks[0].addr, page);
    EXPECT_EQ(log.blocks[1].addr, page + UndoBlockBytes);
    mem.applyUndo(log);
    EXPECT_EQ(readBytes(mem, page, PageBytes), before);
    mem.endUndoLog();
}

TEST(UndoLog, StoreStraddlingPagesCapturesOneBlockInEach)
{
    MainMemory mem;
    const Addr base = 0x4000;
    std::vector<uint8_t> before = fillPattern(mem, base, 2 * PageBytes);
    mem.beginUndoLog();
    mem.write(base + PageBytes - 3, 8, 0x0123456789abcdefull);
    EXPECT_EQ(mem.undoPagesPending(), 2u);
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 2u);
    ASSERT_EQ(log.blocks.size(), 2u);
    EXPECT_EQ(log.blocks[0].addr, base + PageBytes - UndoBlockBytes);
    EXPECT_EQ(log.blocks[1].addr, base + PageBytes);
    mem.applyUndo(log);
    EXPECT_EQ(readBytes(mem, base, 2 * PageBytes), before);
    mem.endUndoLog();
}

TEST(UndoLog, WholePageWriteBlockCapturesEveryBlockOfOnePage)
{
    MainMemory mem;
    const Addr page = 0x4000;
    std::vector<uint8_t> before = fillPattern(mem, page, PageBytes);
    mem.beginUndoLog();
    std::vector<uint8_t> ones(PageBytes, 0xff);
    mem.writeBlock(page, ones.data(), ones.size());
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 1u);
    EXPECT_EQ(log.blocks.size(), PageBytes / UndoBlockBytes);
    EXPECT_EQ(log.bytes(), PageBytes / UndoBlockBytes * sizeof(UndoBlock));
    mem.applyUndo(log);
    EXPECT_EQ(readBytes(mem, page, PageBytes), before);
    mem.endUndoLog();
}

TEST(UndoLog, RestoringACodePageNotifiesOnce)
{
    FrameRecorder rec;
    MainMemory mem;
    const Addr page = 0x4000;
    std::vector<uint8_t> before = fillPattern(mem, page, PageBytes);
    mem.addCodeWatcher(&rec);
    mem.beginUndoLog();
    for (uint64_t b : {0, 5, 63})
        mem.write(page + b * UndoBlockBytes, 4, 0xdead);
    UndoLog log = mem.sealUndoInterval();
    ASSERT_EQ(log.blocks.size(), 3u);
    ASSERT_TRUE(rec.frames.empty()); // nothing was cached yet

    mem.markCodePage(page); // as a µop cache would after decoding
    mem.applyUndo(log);
    ASSERT_EQ(rec.frames.size(), 1u);
    EXPECT_EQ(rec.frames[0], page / PageBytes);
    EXPECT_EQ(readBytes(mem, page, PageBytes), before);
    mem.removeCodeWatcher(&rec);
    mem.endUndoLog();
}

TEST(UndoLog, RestoreNotifiesCodeWatchers)
{
    FrameRecorder rec;
    MainMemory mem;
    mem.write(0x4000, 4, 0x1234);
    mem.addCodeWatcher(&rec);
    mem.beginUndoLog();
    mem.sealUndoInterval();

    mem.markCodePage(0x4000); // as a µop cache would after decoding
    mem.write(0x4000, 4, 0x5678);
    ASSERT_EQ(rec.frames.size(), 1u); // the write itself invalidates

    UndoLog log = mem.sealUndoInterval();
    mem.markCodePage(0x4000); // decodes re-cached after the write
    mem.applyUndo(log);
    // Restoring the pre-image is a modification: stale decodes for the
    // restored page must be dropped again.
    ASSERT_EQ(rec.frames.size(), 2u);
    EXPECT_EQ(rec.frames[1], 0x4000u / PageBytes);
    EXPECT_EQ(mem.read(0x4000, 4), 0x1234u);
    mem.removeCodeWatcher(&rec);
    mem.endUndoLog();
}

// ----------------------------------------- a heisenbug-style program

struct Session
{
    DebugTarget target;
    Debugger dbg;
    ReplayLog log;
    std::unique_ptr<TimeTravel> travel;

    explicit Session(BackendKind kind, uint64_t cpInterval = 500)
        : target(buildHeisenbugDemo()), dbg(target, options(kind))
    {
        dbg.watch(WatchSpec::scalar("directory[0]",
                                    target.symbol("directory"), 8));
        EXPECT_TRUE(dbg.attach());
        TimeTravelConfig cfg;
        cfg.checkpointInterval = cpInterval;
        travel = std::make_unique<TimeTravel>(target, dbg.backend(), log,
                                              cfg);
    }

    static DebuggerOptions
    options(BackendKind kind)
    {
        DebuggerOptions o;
        o.backend = kind;
        return o;
    }

    TimeTravel &tt() { return *travel; }
};

// -------------------------------------------------------- determinism

TEST(Replay, SameSeedDoubleRunDigestEquality)
{
    Session a(BackendKind::Dise);
    Session b(BackendKind::Dise);
    StopInfo ea = a.tt().runToEnd();
    StopInfo eb = b.tt().runToEnd();
    ASSERT_EQ(ea.reason, StopReason::Halted);
    ASSERT_EQ(eb.reason, StopReason::Halted);
    EXPECT_EQ(ea.time, eb.time);
    EXPECT_EQ(a.tt().eventCount(), b.tt().eventCount());
    EXPECT_EQ(a.tt().digest(), b.tt().digest());
}

TEST(Replay, CheckpointRestoreRerunEquivalence)
{
    Session s(BackendKind::Dise, 300);
    StopInfo end = s.tt().runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    ASSERT_GT(s.tt().checkpointCount(), 3u);
    uint64_t endDigest = s.tt().digest();
    size_t events = s.tt().eventCount();

    // Travel most of the way back, then re-run to the end: the replay
    // must land on the identical final state and event timeline.
    StopInfo back = s.tt().reverseStep(end.appInsts - 5);
    EXPECT_EQ(back.appInsts, 5u);
    ASSERT_GE(s.tt().stats().restores, 1u);
    StopInfo end2 = s.tt().runToEnd();
    EXPECT_EQ(end2.time, end.time);
    EXPECT_EQ(s.tt().eventCount(), events);
    EXPECT_EQ(s.tt().digest(), endDigest);
}

TEST(Replay, ReverseStepIsExact)
{
    Session s(BackendKind::Dise);
    StopInfo p10 = s.tt().stepi(10);
    uint64_t d10 = s.tt().digest();
    StopInfo p15 = s.tt().stepi(5);
    ASSERT_EQ(p15.appInsts, 10u + 5u);
    StopInfo backAt10 = s.tt().reverseStep(5);
    EXPECT_EQ(backAt10.appInsts, p10.appInsts);
    EXPECT_EQ(backAt10.time, p10.time);
    EXPECT_EQ(backAt10.pc, p10.pc);
    EXPECT_EQ(s.tt().digest(), d10);
}

// --------------------------------------- reverse-continue, 5 backends

class AllBackendsReverse : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(AllBackendsReverse, ReverseContinueLandsOnCorruptingStore)
{
    Session s(GetParam());
    StopInfo end = s.tt().runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    ASSERT_GE(s.dbg.backend().watchEvents().size(), 2u)
        << "scenario should corrupt the directory at least twice";
    size_t events = s.tt().eventCount();
    uint64_t endDigest = s.tt().digest();
    Addr lastHitPc = s.dbg.backend().watchEvents().back().pc;

    // Reverse-continue from the end lands on the last watchpoint hit.
    StopInfo hit = s.tt().reverseContinue();
    ASSERT_EQ(hit.reason, StopReason::Event);
    EXPECT_EQ(hit.eventIndex, static_cast<int>(events) - 1);
    EXPECT_EQ(hit.mark.kind, EventKind::Watch);
    EXPECT_EQ(hit.mark.pc, lastHitPc);
    EXPECT_LT(hit.time, end.time);
    // The event list is rolled back to exactly this hit.
    EXPECT_EQ(s.dbg.backend().watchEvents().size(),
              static_cast<size_t>(hit.mark.index) + 1);
    // Backends that detect at the store itself pinpoint the culprit.
    if (GetParam() == BackendKind::Dise ||
        GetParam() == BackendKind::VirtualMemory ||
        GetParam() == BackendKind::HardwareReg) {
        EXPECT_EQ(hit.mark.pc, s.target.symbol("the_store"));
    }

    // Again: the previous hit, strictly earlier.
    StopInfo prev = s.tt().reverseContinue();
    ASSERT_EQ(prev.reason, StopReason::Event);
    EXPECT_EQ(prev.eventIndex, hit.eventIndex - 1);
    EXPECT_LT(prev.time, hit.time);

    // Forward to the end again: bit-identical final state.
    StopInfo end2 = s.tt().runToEnd();
    EXPECT_EQ(end2.time, end.time);
    EXPECT_EQ(s.tt().digest(), endDigest);
}

TEST_P(AllBackendsReverse, RunToEventTravelsBothWays)
{
    Session s(GetParam());
    s.tt().runToEnd();
    size_t events = s.tt().eventCount();
    ASSERT_GE(events, 2u);

    StopInfo first = s.tt().runToEvent(0);
    ASSERT_EQ(first.reason, StopReason::Event);
    EXPECT_EQ(first.eventIndex, 0);
    EXPECT_EQ(s.tt().eventsSoFar(), 1u);

    StopInfo last = s.tt().runToEvent(events - 1);
    ASSERT_EQ(last.reason, StopReason::Event);
    EXPECT_EQ(last.eventIndex, static_cast<int>(events) - 1);
    EXPECT_EQ(s.tt().eventsSoFar(), events);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllBackendsReverse,
                         ::testing::Values(BackendKind::Dise,
                                           BackendKind::SingleStep,
                                           BackendKind::VirtualMemory,
                                           BackendKind::HardwareReg,
                                           BackendKind::Rewrite));

TEST(Replay, ReverseContinueTerminatesOnCoincidentEvents)
{
    // Two watchpoints on the same cell fire at the same micro-op,
    // producing marks with identical stream positions. Reverse-
    // continue must step past the whole coincident group or it would
    // re-land on the same position forever.
    DebugTarget target(buildHeisenbugDemo());
    DebuggerOptions o;
    o.backend = BackendKind::SingleStep;
    Debugger dbg(target, o);
    dbg.watch(WatchSpec::scalar("d0", target.symbol("directory"), 8));
    dbg.watch(WatchSpec::scalar("d0b", target.symbol("directory"), 8));
    ASSERT_TRUE(dbg.attach());
    TimeTravelConfig cfg;
    cfg.checkpointInterval = 500;
    ReplayLog log;
    TimeTravel tt(target, dbg.backend(), log, cfg);
    tt.runToEnd();
    ASSERT_GE(tt.eventCount(), 4u);

    uint64_t prevTime = ~uint64_t{0};
    size_t stops = 0;
    for (StopInfo hit = tt.reverseContinue();
         hit.reason == StopReason::Event; hit = tt.reverseContinue()) {
        ASSERT_LT(hit.time, prevTime) << "no backward progress";
        prevTime = hit.time;
        ASSERT_LE(++stops, tt.eventCount());
    }
    EXPECT_GE(stops, 2u);
}

// ------------------------------------------------------ interventions

TEST(Replay, PokeForksTimelineAndReplaysDeterministically)
{
    Session s(BackendKind::Dise);
    StopInfo end = s.tt().runToEnd();
    size_t originalEvents = s.tt().eventCount();

    // Travel back to before the first corruption and scribble on the
    // watched cell: the future timeline is materially different now.
    s.tt().runToEvent(0);
    StopInfo before = s.tt().reverseStep(4);
    s.tt().pokeMemory(s.target.symbol("directory"), 8, 0x9999);
    // The explored future is stale now.
    EXPECT_EQ(s.tt().eventCount(), s.tt().eventsSoFar());
    EXPECT_LT(s.tt().eventCount(), originalEvents);

    StopInfo endA = s.tt().runToEnd();
    uint64_t digestA = s.tt().digest();
    size_t eventsA = s.tt().eventCount();

    // Replay across the poke: it is re-applied at its recorded time.
    s.tt().reverseStep(endA.appInsts - before.appInsts);
    StopInfo endB = s.tt().runToEnd();
    EXPECT_EQ(endB.time, endA.time);
    EXPECT_EQ(s.tt().eventCount(), eventsA);
    EXPECT_EQ(s.tt().digest(), digestA);
    (void)end;
}

TEST(Replay, RemovalUnwindPreservesPatternTableOrder)
{
    // Slot order breaks equal-specificity match ties. Remove two
    // same-anchor productions via interventions, reverse across both
    // removals, and verify the original winner still wins — a
    // first-free re-insert would have swapped their slots.
    Session s(BackendKind::Dise);
    const Addr anchor = 0x7fff0000; // never executed
    Production pa;
    pa.name = "first";
    pa.pattern = Pattern::forPc(anchor);
    pa.replacement.push_back(TemplateInst::trigInst());
    Production pb = pa;
    pb.name = "second";
    ProductionId idA = s.target.engine.addProduction(pa);
    ProductionId idB = s.target.engine.addProduction(pb);

    Inst nop;
    nop.op = Opcode::NOP;
    ASSERT_EQ(s.target.engine.matchFunctional(nop, anchor)->name,
              "first");

    s.tt().stepi(10);
    s.tt().removeProduction(idA);
    s.tt().stepi(10);
    s.tt().removeProduction(idB);
    s.tt().stepi(10);
    EXPECT_EQ(s.target.engine.matchFunctional(nop, anchor), nullptr);

    s.tt().reverseStep(25); // back across both removals
    const Production *winner =
        s.target.engine.matchFunctional(nop, anchor);
    ASSERT_NE(winner, nullptr);
    EXPECT_EQ(winner->name, "first");
}

TEST(Replay, ProductionInterventionUnwindsAcrossReverse)
{
    Session s(BackendKind::Dise);
    size_t baseProds = s.target.engine.productionCount();
    s.tt().stepi(50);

    // Debugger installs an extra (inert) production mid-session.
    Production p;
    p.name = "inert";
    p.pattern = Pattern::forPc(0x7fff0000); // never matches
    p.replacement.push_back(TemplateInst::trigInst());
    s.tt().addProduction(p);
    EXPECT_EQ(s.target.engine.productionCount(), baseProds + 1);

    s.tt().stepi(50);
    // Reverse across the intervention: the table mutation unwinds.
    s.tt().reverseStep(75);
    EXPECT_EQ(s.target.engine.productionCount(), baseProds);
    // Forward across it again: re-applied.
    s.tt().stepi(50);
    EXPECT_EQ(s.target.engine.productionCount(), baseProds + 1);
}

// ------------------------------------------- restore cache invalidation

TEST(Replay, RestoreInvalidatesStaleDecodes)
{
    // Self-modifying scenario: run to the end (fully populating the
    // predecoded µop cache for the text page), travel back to before
    // the first corruption, and patch the culprit store into a NOP via
    // a poke. If any stale decode survived the restore, the old store
    // would still execute; with correct invalidation the new timeline
    // never fires the watchpoint again.
    Session s(BackendKind::Dise);
    StopInfo end = s.tt().runToEnd();
    ASSERT_GE(s.tt().eventCount(), 1u);

    s.tt().runToEvent(0);
    s.tt().reverseStep(30); // safely before the first corrupting store
    Inst nop;
    nop.op = Opcode::NOP;
    s.tt().pokeMemory(s.target.symbol("the_store"), 4, encode(nop));
    EXPECT_EQ(s.tt().eventCount(), 0u); // explored future discarded

    StopInfo end2 = s.tt().runToEnd();
    EXPECT_EQ(end2.reason, StopReason::Halted);
    // No store ever executes again: the directory is never corrupted.
    EXPECT_EQ(s.tt().eventCount(), 0u);
    EXPECT_EQ(s.dbg.backend().watchEvents().size(), 0u);
    EXPECT_NE(s.tt().digest(), 0u);
    (void)end;

    // The patched timeline replays deterministically too.
    uint64_t d1 = s.tt().digest();
    s.tt().reverseStep(end2.appInsts);
    s.tt().runToEnd();
    EXPECT_EQ(s.tt().digest(), d1);
}

// ------------------------------------------------------- sliced travel

TEST(SlicedTravel, BoundedQuantaMatchOneShotReverseContinue)
{
    // The same reverse-continue, one driven in tiny preemptible quanta
    // (the job scheduler's view), must land on the identical stop and
    // state as the one-shot verb.
    Session a(BackendKind::Dise), b(BackendKind::Dise);
    a.tt().runToEnd();
    b.tt().runToEnd();
    ASSERT_GE(a.tt().eventCount(), 2u);

    StopInfo ref = a.tt().reverseContinue();
    bool done = false;
    StopInfo got = b.tt().travelBegin(TravelVerb::ReverseContinue, 0,
                                      done);
    unsigned slices = 0;
    while (!done) {
        got = b.tt().travelStep(25, done);
        ++slices;
    }
    EXPECT_EQ(got.reason, ref.reason);
    EXPECT_EQ(got.eventIndex, ref.eventIndex);
    EXPECT_EQ(got.time, ref.time);
    EXPECT_EQ(got.pc, ref.pc);
    EXPECT_EQ(a.tt().digest(), b.tt().digest());
    // Interim quanta reported Step, never a user-visible stop.
    EXPECT_GE(slices, 1u);

    // reverse-step and run-to-event slice identically.
    StopInfo refStep = a.tt().reverseStep(40);
    got = b.tt().travelBegin(TravelVerb::ReverseStep, 40, done);
    while (!done)
        got = b.tt().travelStep(15, done);
    EXPECT_EQ(got.time, refStep.time);
    EXPECT_EQ(a.tt().digest(), b.tt().digest());

    size_t lastEvent = a.tt().eventCount() - 1;
    StopInfo refEvt = a.tt().runToEvent(lastEvent);
    got = b.tt().travelBegin(TravelVerb::RunToEvent, lastEvent, done);
    while (!done)
        got = b.tt().travelStep(30, done);
    EXPECT_EQ(got.reason, StopReason::Event);
    EXPECT_EQ(got.time, refEvt.time);
    EXPECT_EQ(a.tt().digest(), b.tt().digest());
}

TEST(SlicedTravel, AbandonedTravelLeavesAValidPosition)
{
    // An interrupted job stops mid-travel; the session must be usable
    // (and deterministic) from the intermediate position.
    Session s(BackendKind::Dise);
    StopInfo end = s.tt().runToEnd();
    uint64_t endDigest = s.tt().digest();

    bool done = false;
    s.tt().travelBegin(TravelVerb::ReverseStep, end.appInsts - 2, done);
    if (!done)
        s.tt().travelStep(1, done); // one tiny quantum, then abandon
    StopInfo resumed = s.tt().runToEnd(); // new verb cancels the travel
    EXPECT_EQ(resumed.reason, StopReason::Halted);
    EXPECT_EQ(resumed.time, end.time);
    EXPECT_EQ(s.tt().digest(), endDigest);
}

// ------------------------------------------------- pokes at event parks

TEST(Replay, PokeAtEventStopIsRecordedAndReplayed)
{
    // A gdb user writing memory at a watchpoint stop: the session sits
    // mid-expansion (an event park), which used to be refused. The
    // poke must apply, be recorded at its exact µop time, and replay
    // deterministically across reverse travel.
    Session s(BackendKind::Dise);
    StopInfo hit = s.tt().cont();
    ASSERT_EQ(hit.reason, StopReason::Event);

    Addr scratch = s.target.symbol("directory") + 64;
    s.tt().pokeMemory(scratch, 8, 0xfeedface);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);

    // Travel across the poke and back: the intervention re-applies at
    // the park's exact stream position.
    StopInfo later = s.tt().stepi(100);
    ASSERT_GT(later.time, hit.time);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);
    StopInfo backAtPark = s.tt().runToEvent(hit.eventIndex);
    EXPECT_EQ(backAtPark.time, hit.time);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);
    StopInfo before = s.tt().reverseStep(5);
    ASSERT_LT(before.time, hit.time);
    EXPECT_NE(s.target.mem.read(scratch, 8), 0xfeedfaceu);
    StopInfo again = s.tt().runToEvent(hit.eventIndex);
    EXPECT_EQ(again.time, hit.time);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);

    // Arbitrary mid-expansion positions (not an event park) stay
    // refused — there is no client-visible way to reach them anyway.
    // (Covered by the atBoundary assert; nothing to drive here.)
}

// ------------------------------------------- interval-parallel replay

class AllBackendsIntervalReplay
    : public ::testing::TestWithParam<BackendKind>
{
};

/** Both reports replayed the same ranges to the same digests. */
void
expectSameRanges(const IntervalReplay::Report &a,
                 const IntervalReplay::Report &b, unsigned workers)
{
    EXPECT_EQ(a.finalDigest, b.finalDigest) << workers << " workers";
    EXPECT_EQ(a.marksVerified, b.marksVerified) << workers << " workers";
    ASSERT_EQ(a.intervals.size(), b.intervals.size())
        << workers << " workers";
    for (size_t i = 0; i < a.intervals.size(); ++i) {
        const IntervalReplay::Interval &x = a.intervals[i];
        const IntervalReplay::Interval &y = b.intervals[i];
        EXPECT_EQ(x.cpFrom, y.cpFrom) << "range " << i;
        EXPECT_EQ(x.cpTo, y.cpTo) << "range " << i;
        EXPECT_EQ(x.startDigest, y.startDigest) << "range " << i;
        EXPECT_EQ(x.endDigest, y.endDigest) << "range " << i;
    }
}

TEST_P(AllBackendsIntervalReplay, ParallelDigestsMatchSerialAndLive)
{
    // Reconstruct the explored timeline as independent checkpoint
    // ranges on share-nothing replicas: serial (1 worker) and parallel
    // (2 and 4 workers) replay the same fixed cut, so they must agree
    // range by range, and the stitched digest is the live session's.
    SessionOptions so;
    so.debugger.backend = GetParam();
    so.timeTravel.checkpointInterval = 300;
    DebugSession s(buildHeisenbugDemo(), so);
    Program demo = buildHeisenbugDemo();
    s.setWatch(WatchSpec::scalar("directory", demo.symbol("directory"),
                                 8));
    StopInfo hit = s.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    StopInfo end = s.runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);

    IntervalReplay::Report serial = s.verifyReplay(1);
    ASSERT_TRUE(serial.ok) << serial.error;
    EXPECT_GT(serial.intervals.size(), 3u)
        << "timeline should span several checkpoint ranges";
    EXPECT_EQ(serial.finalDigest, s.digest());
    EXPECT_GT(serial.marksVerified, 0u);

    for (unsigned workers : {2u, 4u}) {
        IntervalReplay::Report par = s.verifyReplay(workers);
        ASSERT_TRUE(par.ok) << par.error;
        expectSameRanges(par, serial, workers);
    }
}

TEST_P(AllBackendsIntervalReplay, OddWorkerCountsStitchClean)
{
    // Worker counts that do not divide the cut drain the same ranges
    // and stitch bit-identically to the live digest.
    SessionOptions so;
    so.debugger.backend = GetParam();
    so.timeTravel.checkpointInterval = 300;
    Program demo = buildHeisenbugDemo();
    DebugSession s(demo, so);
    s.setWatch(WatchSpec::scalar("directory", demo.symbol("directory"),
                                 8));
    StopInfo hit = s.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    StopInfo end = s.runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    IntervalReplay::Report serial = s.verifyReplay(1);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_EQ(serial.intervals.size(), IntervalReplay::Pieces);

    for (unsigned workers : {3u, 5u}) {
        IntervalReplay::Report odd = s.verifyReplay(workers);
        ASSERT_TRUE(odd.ok) << odd.error;
        EXPECT_EQ(odd.finalDigest, s.digest());
        expectSameRanges(odd, serial, workers);
    }
}

TEST_P(AllBackendsIntervalReplay, InterventionAtARangeStartStitches)
{
    // A checkpoint's state leaves out the interventions stamped at its
    // own position. A range starting there must apply them before it
    // digests its start, and the range ending there includes them in
    // its end digest, or the two cannot stitch.
    SessionOptions so;
    so.debugger.backend = GetParam();
    so.timeTravel.checkpointInterval = 300;
    Program demo = buildHeisenbugDemo();
    WatchSpec watch =
        WatchSpec::scalar("directory", demo.symbol("directory"), 8);

    // A reference run supplies the checkpoint count, and with it the
    // first boundary of the fixed cut.
    size_t n = 0;
    {
        DebugSession ref(demo, so);
        ref.setWatch(watch);
        ASSERT_EQ(ref.runToEnd().reason, StopReason::Halted);
        n = ref.timeTravel().checkpointCount();
    }
    const size_t k = n / std::min<size_t>(IntervalReplay::Pieces, n);
    ASSERT_GT(k, 0u);

    DebugSession s(demo, so);
    s.setWatch(watch);
    s.stepi(1);
    TimeTravel &tt = s.timeTravel();
    for (int i = 0; i < 20000 && (tt.checkpointCount() < k + 1 ||
                                  tt.checkpoints().back().time != tt.time());
         ++i)
        s.stepi(1);
    ASSERT_EQ(tt.checkpointCount(), k + 1);
    ASSERT_EQ(tt.checkpoints().back().time, tt.time())
        << "no stepi stop landed on checkpoint " << k;
    ASSERT_TRUE(s.writeMemory(demo.symbol("directory") + 72, 8, 0x5eed));
    StopInfo end = s.runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    ASSERT_EQ(tt.checkpointCount(), n);
    persist::SessionImage img;
    ASSERT_TRUE(s.exportImage(img));
    ASSERT_EQ(img.interventions.back().time, tt.checkpoints()[k].time);

    uint64_t live = s.digest();
    for (unsigned workers : {1u, 2u, 4u}) {
        IntervalReplay::Report rep = s.verifyReplay(workers);
        ASSERT_TRUE(rep.ok) << rep.error << " (" << workers
                            << " workers)";
        EXPECT_EQ(rep.finalDigest, live);
        bool startsThere = false;
        for (const IntervalReplay::Interval &iv : rep.intervals)
            startsThere |= iv.cpFrom == k;
        EXPECT_TRUE(startsThere) << "no range begins at checkpoint " << k;
    }
}

TEST(IntervalReplay, DivergingReplicaFailsVerification)
{
    // A replica whose machinery differs from the live session's (one
    // extra watch) fires events the recorded timeline does not have.
    // A digest mismatch would fail the run too, so the error text is
    // what pins the mark check.
    Session s(BackendKind::Dise);
    StopInfo end = s.tt().runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    ASSERT_GT(s.tt().eventCount(), 0u);
    IntervalReplay::ReplicaFactory factory =
        [](std::unique_ptr<DebugTarget> &t, std::unique_ptr<Debugger> &d) {
            t = std::make_unique<DebugTarget>(buildHeisenbugDemo());
            d = std::make_unique<Debugger>(
                *t, Session::options(BackendKind::Dise));
            Addr directory = t->symbol("directory");
            d->watch(WatchSpec::scalar("directory[0]", directory, 8));
            d->watch(WatchSpec::scalar("directory[1]", directory + 8, 8));
            return d->attach();
        };
    IntervalReplay ir(s.tt(), s.target, s.dbg.backend(), s.log, factory);
    IntervalReplay::Report rep = ir.run(1);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.error.find("diverged from the recorded event timeline"),
              std::string::npos)
        << rep.error;
}

TEST(IntervalReplay, ACheckpointStartKeepsNoHistory)
{
    // A replica only seeks forward: started at a checkpoint, it takes
    // no checkpoint past that anchor, holds no undo blocks, and refuses
    // to travel back, while still landing on the live digest.
    Session s(BackendKind::Dise);
    ASSERT_EQ(s.tt().runToEnd().reason, StopReason::Halted);
    ASSERT_GT(s.tt().checkpointCount(), 3u);
    DebugTarget t(buildHeisenbugDemo());
    Debugger d(t, Session::options(BackendKind::Dise));
    d.watch(WatchSpec::scalar("directory[0]", t.symbol("directory"), 8));
    ASSERT_TRUE(d.attach());
    ReplayLog log = s.log;
    TimeTravel rt(t, d.backend(), log, s.tt().checkpoints()[0],
                  s.tt().config());
    StopInfo end = rt.travel(TravelVerb::Seek, s.tt().time());
    EXPECT_EQ(end.time, s.tt().time());
    EXPECT_EQ(rt.digest(), s.tt().digest());
    EXPECT_EQ(rt.checkpointCount(), 1u);
    EXPECT_EQ(rt.historyBytes(), 0u);
    EXPECT_THROW(rt.travel(TravelVerb::ReverseStep, 10), PanicError);
}

TEST(IntervalReplay, FailedReplicaBuildIsTheReportedError)
{
    // The second replica's machinery cannot be built. Its range then
    // never reaches the stitch, which sees a gap; the report must name
    // the worker's own error, as the server's replay-verify does.
    Session s(BackendKind::Dise);
    ASSERT_EQ(s.tt().runToEnd().reason, StopReason::Halted);
    int built = 0;
    IntervalReplay::ReplicaFactory factory =
        [&built](std::unique_ptr<DebugTarget> &t,
                 std::unique_ptr<Debugger> &d) {
            if (++built == 2)
                return false;
            t = std::make_unique<DebugTarget>(buildHeisenbugDemo());
            d = std::make_unique<Debugger>(
                *t, Session::options(BackendKind::Dise));
            d->watch(WatchSpec::scalar("directory[0]",
                                       t->symbol("directory"), 8));
            return d->attach();
        };
    IntervalReplay ir(s.tt(), s.target, s.dbg.backend(), s.log, factory);
    IntervalReplay::Report rep = ir.run(1);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.error.rfind("range [", 0), 0u) << rep.error;
    EXPECT_NE(rep.error.find("): interval replay: machinery rebuild failed"),
              std::string::npos)
        << rep.error;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AllBackendsIntervalReplay,
    ::testing::Values(BackendKind::Dise, BackendKind::SingleStep,
                      BackendKind::VirtualMemory,
                      BackendKind::HardwareReg, BackendKind::Rewrite),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        switch (info.param) {
          case BackendKind::Dise: return "dise";
          case BackendKind::SingleStep: return "singlestep";
          case BackendKind::VirtualMemory: return "vm";
          case BackendKind::HardwareReg: return "hwreg";
          case BackendKind::Rewrite: return "rewrite";
        }
        return "unknown";
    });

TEST(IntervalReplay, ReconstructsAParkedPositionWithInterventions)
{
    // The hard case: the live session sits parked on an event
    // (mid-expansion), with pokes logged both at boundaries and at the
    // park itself. The parallel reconstruction must still stitch to
    // the live digest.
    SessionOptions so;
    so.timeTravel.checkpointInterval = 250;
    Program demo = buildHeisenbugDemo();
    DebugSession s(demo, so);
    s.setWatch(WatchSpec::scalar("directory", demo.symbol("directory"),
                                 8));
    StopInfo hit = s.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    Addr scratch = demo.symbol("directory") + 72;
    ASSERT_TRUE(s.writeMemory(scratch, 8, 0x1234)); // poke at the park
    s.stepi(40);
    ASSERT_TRUE(s.writeMemory(scratch, 8, 0x5678)); // boundary poke
    StopInfo hit2 = s.cont();
    (void)hit2;

    IntervalReplay::Report serial = s.verifyReplay(1);
    ASSERT_TRUE(serial.ok) << serial.error;
    IntervalReplay::Report par = s.verifyReplay(2);
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_EQ(par.finalDigest, serial.finalDigest);
    EXPECT_EQ(serial.finalDigest, s.digest());
}

} // namespace
} // namespace dise
