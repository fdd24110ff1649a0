/**
 * @file
 * Session-layer tests: wire-encoding round-trips and rejection of
 * malformed lines, lazy attach (configure → first resume), the ordered
 * EventQueue (attach/watch/checkpoint/restore notices replacing the
 * pull-style event vectors), post-attach mute/unmute, pre-attach
 * pokes, parity between the typed verbs, the encoded wire path, and
 * the underlying Debugger/TimeTravel front end.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cpu/loader.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

using namespace reg;

// ------------------------------------------------------ wire encoding

TEST(SessionProtocol, RequestRoundTripsEveryKind)
{
    Request req;
    req.kind = RequestKind::SetWatch;
    req.seq = 42;
    req.watch = WatchSpec::range("hot table", 0x20000, 64)
                    .withCondition(0xdeadbeef);
    Request back;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), back));
    EXPECT_EQ(back.kind, RequestKind::SetWatch);
    EXPECT_EQ(back.seq, 42u);
    EXPECT_EQ(back.watch.kind, WatchKind::Range);
    EXPECT_EQ(back.watch.name, "hot table"); // escaped space survives
    EXPECT_EQ(back.watch.addr, 0x20000u);
    EXPECT_EQ(back.watch.length, 64u);
    EXPECT_TRUE(back.watch.conditional);
    EXPECT_EQ(back.watch.predConst, 0xdeadbeefu);

    req = Request{};
    req.kind = RequestKind::SetBreak;
    req.brk.pc = 0x1000054;
    req.brk.conditional = true;
    req.brk.condAddr = 0x20008;
    req.brk.condSize = 4;
    req.brk.condConst = 7;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), back));
    EXPECT_EQ(back.brk.pc, 0x1000054u);
    EXPECT_TRUE(back.brk.conditional);
    EXPECT_EQ(back.brk.condAddr, 0x20008u);
    EXPECT_EQ(back.brk.condSize, 4u);
    EXPECT_EQ(back.brk.condConst, 7u);

    req = Request{};
    req.kind = RequestKind::SetWatch;
    req.watch = WatchSpec::scalar("tab\tand\nnewline", 0x10, 8);
    ASSERT_TRUE(decodeRequest(encodeRequest(req), back));
    EXPECT_EQ(back.watch.name, "tab\tand\nnewline");

    req = Request{};
    req.kind = RequestKind::WriteMemory;
    req.addr = 0x30010;
    req.size = 4;
    req.value = 0x99;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), back));
    EXPECT_EQ(back.addr, 0x30010u);
    EXPECT_EQ(back.size, 4u);
    EXPECT_EQ(back.value, 0x99u);

    for (RequestKind kind :
         {RequestKind::Ping, RequestKind::SelectBackend,
          RequestKind::Attach, RequestKind::Cont, RequestKind::Stepi,
          RequestKind::RunToEnd, RequestKind::ReverseContinue,
          RequestKind::ReverseStep, RequestKind::RunToEvent,
          RequestKind::ReadRegisters, RequestKind::Stats,
          RequestKind::Detach}) {
        req = Request{};
        req.kind = kind;
        req.backend = BackendKind::Rewrite;
        req.count = 17;
        ASSERT_TRUE(decodeRequest(encodeRequest(req), back))
            << requestKindName(kind);
        EXPECT_EQ(back.kind, kind);
        if (kind == RequestKind::SelectBackend) {
            EXPECT_EQ(back.backend, BackendKind::Rewrite);
        }
    }
}

TEST(SessionProtocol, ResponseRoundTrip)
{
    Response resp;
    resp.status = ResponseStatus::Ok;
    resp.seq = 7;
    resp.inReplyTo = RequestKind::Cont;
    resp.hasStop = true;
    resp.stop.reason = StopReason::Event;
    resp.stop.eventIndex = 3;
    resp.stop.mark.kind = EventKind::Watch;
    resp.stop.mark.index = 2;
    resp.stop.mark.pc = 0x100005c;
    resp.stop.time = 1234;
    resp.stop.appInsts = 567;
    resp.stop.pc = 0x1000060;
    Response back;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back));
    EXPECT_TRUE(back.ok());
    EXPECT_EQ(back.seq, 7u);
    EXPECT_EQ(back.inReplyTo, RequestKind::Cont);
    ASSERT_TRUE(back.hasStop);
    EXPECT_EQ(back.stop.reason, StopReason::Event);
    EXPECT_EQ(back.stop.eventIndex, 3);
    EXPECT_EQ(back.stop.mark.kind, EventKind::Watch);
    EXPECT_EQ(back.stop.mark.pc, 0x100005cu);
    EXPECT_EQ(back.stop.time, 1234u);
    EXPECT_EQ(back.stop.pc, 0x1000060u);

    resp = Response{};
    resp.inReplyTo = RequestKind::ReadRegisters;
    resp.regs = {0, 0xdeadbeef, ~0ull};
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back));
    ASSERT_EQ(back.regs.size(), 3u);
    EXPECT_EQ(back.regs[1], 0xdeadbeefu);
    EXPECT_EQ(back.regs[2], ~0ull);

    resp = Response{};
    resp.inReplyTo = RequestKind::ReadMemory;
    resp.bytes = {0x00, 0xff, 0x7d, 0x24};
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back));
    EXPECT_EQ(back.bytes, (std::vector<uint8_t>{0x00, 0xff, 0x7d, 0x24}));

    resp = Response{};
    resp.status = ResponseStatus::Unsupported;
    resp.inReplyTo = RequestKind::Attach;
    resp.error = "no experiment: INDIRECT under vm";
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back));
    EXPECT_EQ(back.status, ResponseStatus::Unsupported);
    EXPECT_EQ(back.error, "no experiment: INDIRECT under vm");
}

TEST(SessionProtocol, ServerStatsHistogramsRoundTrip)
{
    Response resp;
    resp.status = ResponseStatus::Ok;
    resp.seq = 12;
    resp.inReplyTo = RequestKind::ServerStats;
    resp.server.activeSessions = 2;
    resp.server.dropped = 3;
    resp.server.quarantined = 4;
    resp.server.faultsInjected = 5;
    HistogramSnapshot verb;
    verb.name = "dise_verb_latency_us";
    verb.count = 7;
    verb.sum = 12345;
    verb.buckets = {1, 0, 2, 4}; // interior zero survives the wire
    HistogramSnapshot fsync;
    fsync.name = "dise_store_fsync_us";
    fsync.count = 1;
    fsync.sum = 9;
    fsync.buckets = {0, 1};
    HistogramSnapshot idle;
    idle.name = "dise_event_push_us"; // never observed: no buckets
    resp.server.hists = {verb, fsync, idle};

    Response back;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back));
    EXPECT_EQ(back.server.dropped, 3u);
    EXPECT_EQ(back.server.quarantined, 4u);
    EXPECT_EQ(back.server.faultsInjected, 5u);
    ASSERT_EQ(back.server.hists.size(), 3u);
    // The decoder iterates hist.* keys in lexicographic key order, so
    // match by name rather than position.
    for (const HistogramSnapshot &want : resp.server.hists) {
        bool found = false;
        for (const HistogramSnapshot &got : back.server.hists)
            if (got.name == want.name) {
                EXPECT_TRUE(got == want) << want.name;
                found = true;
            }
        EXPECT_TRUE(found) << want.name;
    }

    // The free-text payload (metrics exposition / trace chunks) must
    // survive escaping: newlines, quotes, percent signs.
    resp = Response{};
    resp.inReplyTo = RequestKind::Metrics;
    resp.text = "# TYPE x histogram\nx_bucket{le=\"+Inf\"} 3\nx 100%\n";
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back));
    EXPECT_EQ(back.text, resp.text);

    // A mangled histogram value is a decode error, not silent zeros.
    Response bad;
    std::string err;
    EXPECT_FALSE(decodeResponse(
        "ok seq=1 re=server-stats hist.x=notanumber", bad, &err));
    EXPECT_NE(err.find("histogram"), std::string::npos) << err;
}

TEST(SessionProtocol, EventRoundTripAndDescribe)
{
    SessionEvent ev;
    ev.kind = SessionEventKind::Watch;
    ev.seq = 9;
    ev.time = 100;
    ev.appInsts = 42;
    ev.pc = 0x100005c;
    ev.index = 1;
    ev.addr = 0x20100;
    ev.oldValue = 0xd1;
    ev.newValue = 0x1234;
    SessionEvent back;
    ASSERT_TRUE(decodeEvent(encodeEvent(ev), back));
    EXPECT_EQ(back.kind, SessionEventKind::Watch);
    EXPECT_EQ(back.seq, 9u);
    EXPECT_EQ(back.addr, 0x20100u);
    EXPECT_EQ(back.newValue, 0x1234u);

    // describe() is for humans; just pin the load-bearing parts.
    std::string text = ev.describe();
    EXPECT_NE(text.find("watchpoint 1"), std::string::npos) << text;
    EXPECT_NE(text.find("0x20100"), std::string::npos) << text;
}

TEST(SessionProtocol, MalformedLinesRejected)
{
    Request req;
    Response resp;
    SessionEvent ev;
    std::string err;
    const char *bad[] = {
        "",                          // empty
        "warp-speed seq=1",          // unknown verb
        "set-watch seq=1",           // missing addr
        "set-watch addr=nope wkind=scalar", // bad number
        "set-watch addr=0x10 wkind=diagonal", // bad watch kind
        "select-backend backend=quantum",     // bad backend
        "cont =bare",                // malformed token
        "write-register seq=1",      // missing fields
        // Present values that do not parse or do not fit their member.
        "remove-watch index=4294967296",
        "remove-watch index=99999999999999999999",
        "write-register reg=4294967328 value=1",
        "write-memory addr=0x10 size=4294967297 value=1",
        "read-memory addr=0x10 size=4294967304",
        "reverse-step count=18446744073709551616",
        "stepi count=-1",
        "stepi count=banana",
        "set-watch wkind=scalar addr=0x10 size=banana",
        "set-watch wkind=scalar addr=0x10 name=%zz",
    };
    for (const char *line : bad)
        EXPECT_FALSE(decodeRequest(line, req, &err)) << line;
    EXPECT_FALSE(decodeResponse("yes stop=1", resp, &err));
    EXPECT_FALSE(decodeResponse("ok seq=1 re=server-stats hist.x=a:b:1",
                                resp, &err));
    EXPECT_FALSE(decodeEvent("ok kind=watch", ev, &err));
    EXPECT_FALSE(decodeEvent("event kind=mystery", ev, &err));
}

// ------------------------------------------------------- the session

/** x is doubled five times; every store is a watch hit. */
Program
doublerProgram()
{
    Assembler a;
    a.data(layout::DataBase);
    a.label("x");
    a.quad(3);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "x");
    a.lda(t1, 0, zero);
    a.label("loop");
    a.stmt(1);
    a.ldq(t0, 0, s0);
    a.addq(t0, t0, t0);
    a.label("the_store");
    a.stq(t0, 0, s0);
    a.addq(t1, 1, t1);
    a.cmplt(t1, 5, t2);
    a.bne(t2, "loop");
    a.syscall(SysExit);
    return a.finish("main");
}

SessionOptions
sessionOptions(BackendKind kind = BackendKind::Dise)
{
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 16;
    return o;
}

TEST(DebugSession, LazyAttachAndEventQueue)
{
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    EXPECT_EQ(session.setWatch(
                  WatchSpec::scalar("x", prog.symbol("x"), 8)),
              0);
    EXPECT_FALSE(session.attached());

    // Pre-attach peeks read the loaded image without attaching.
    std::vector<uint8_t> x0 = session.readMemory(prog.symbol("x"), 8);
    EXPECT_EQ(x0[0], 3);
    EXPECT_FALSE(session.attached());

    // The first resume attaches, runs, and stops on the watch hit.
    StopInfo hit = session.cont();
    EXPECT_TRUE(session.attached());
    ASSERT_EQ(hit.reason, StopReason::Event) << hit;
    EXPECT_EQ(hit.mark.pc, prog.symbol("the_store"));

    // Queue order: attached first, then checkpoint(s)/watch events.
    std::vector<SessionEvent> events = session.events().drain();
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events.front().kind, SessionEventKind::Attached);
    bool sawWatch = false;
    for (const auto &ev : events)
        if (ev.kind == SessionEventKind::Watch) {
            sawWatch = true;
            EXPECT_EQ(ev.addr, prog.symbol("x"));
            EXPECT_EQ(ev.oldValue, 3u);
            EXPECT_EQ(ev.newValue, 6u);
        }
    EXPECT_TRUE(sawWatch);

    // Run out: 4 more hits, then a halt notice.
    StopInfo end = session.runToEnd();
    EXPECT_EQ(end.reason, StopReason::Halted);
    events = session.events().drain();
    size_t watches = 0;
    bool sawHalt = false;
    for (const auto &ev : events) {
        watches += ev.kind == SessionEventKind::Watch;
        sawHalt |= ev.kind == SessionEventKind::Halted;
    }
    EXPECT_EQ(watches, 4u);
    EXPECT_TRUE(sawHalt);

    // Reverse travel announces a restore and re-crossed events.
    StopInfo back = session.reverseContinue();
    EXPECT_EQ(back.reason, StopReason::Event);
    events = session.events().drain();
    bool sawRestore = false;
    for (const auto &ev : events)
        sawRestore |= ev.kind == SessionEventKind::Restore;
    EXPECT_TRUE(sawRestore);
}

TEST(DebugSession, MuteAndUnmute)
{
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    int idx =
        session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo hit = session.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);

    // Muted: the remaining 4 hits neither stop the session nor reach
    // the event queue.
    EXPECT_TRUE(session.removeWatch(idx));
    EXPECT_TRUE(session.watchMuted(idx));
    session.events().clear();
    StopInfo end = session.cont();
    EXPECT_EQ(end.reason, StopReason::Halted);
    for (const auto &ev : session.events().drain())
        EXPECT_NE(ev.kind, SessionEventKind::Watch) << ev.describe();

    // Re-adding the identical spec unmutes (gdb's insert cycle);
    // reverse-continue now stops on the last hit again.
    EXPECT_EQ(session.setWatch(
                  WatchSpec::scalar("x", prog.symbol("x"), 8)),
              idx);
    EXPECT_FALSE(session.watchMuted(idx));
    StopInfo back = session.reverseContinue();
    EXPECT_EQ(back.reason, StopReason::Event);
    EXPECT_EQ(back.mark.pc, prog.symbol("the_store"));

    // A brand-new spec post-attach rebuilds the machinery and replays
    // the timeline; it lands on a fresh index instead of a refusal.
    EXPECT_EQ(session.setWatch(WatchSpec::scalar("y", 0x99999, 8)), 1);
}

TEST(DebugSession, PostAttachWatchAdditionReplays)
{
    // gdb's `Z` after `c`: adding a spec the session has never seen
    // once machinery is installed must transparently rebuild + replay
    // instead of requiring a manual session rebuild.
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo hit1 = session.cont();
    ASSERT_EQ(hit1.reason, StopReason::Event);
    session.events().clear();

    BreakSpec bp;
    bp.pc = prog.symbol("loop");
    int b = session.setBreak(bp);
    ASSERT_GE(b, 0);

    // The rebuild parked the session at the identical position...
    EXPECT_EQ(session.stats().appInsts, hit1.appInsts);
    // ...re-announcing the re-crossed history (attach, watch hit 1,
    // plus the new breakpoint's past hit that materialized).
    bool sawAttached = false, sawWatch = false, sawBreak = false;
    for (const auto &ev : session.events().drain()) {
        sawAttached |= ev.kind == SessionEventKind::Attached;
        sawBreak |= ev.kind == SessionEventKind::Break;
        if (ev.kind == SessionEventKind::Watch) {
            sawWatch = true;
            EXPECT_EQ(ev.oldValue, 3u);
            EXPECT_EQ(ev.newValue, 6u);
        }
    }
    EXPECT_TRUE(sawAttached);
    EXPECT_TRUE(sawWatch);
    EXPECT_TRUE(sawBreak); // iteration 1's `loop` precedes the store

    // The new breakpoint stops the very next resume (iteration 2).
    StopInfo hit2 = session.cont();
    ASSERT_EQ(hit2.reason, StopReason::Event) << hit2;
    EXPECT_EQ(hit2.mark.kind, EventKind::Break);
    EXPECT_EQ(hit2.pc, prog.symbol("loop"));

    // Reverse travel works on the rebuilt timeline: back across the
    // breakpoint to the original watch hit.
    StopInfo back = session.reverseContinue();
    ASSERT_EQ(back.reason, StopReason::Event) << back;
    EXPECT_EQ(back.mark.kind, EventKind::Watch);
    EXPECT_EQ(back.appInsts, hit1.appInsts);
}

TEST(DebugSession, PostAttachAdditionReplaysLoggedPokes)
{
    // A poke made mid-session is part of the timeline; the rebuild
    // must re-apply it at its recorded position or the replayed run
    // diverges from what the user saw.
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo hit1 = session.cont();
    ASSERT_EQ(hit1.reason, StopReason::Event);
    // Step onto the next boundary (pokes are only valid between
    // instructions), then poke x to 100 so the next store sees 200.
    session.stepi(1);
    ASSERT_TRUE(session.writeMemory(prog.symbol("x"), 8, 100));

    BreakSpec bp;
    bp.pc = prog.symbol("loop");
    ASSERT_GE(session.setBreak(bp), 0);
    // The rebuilt target re-applied the poke.
    EXPECT_EQ(session.readMemory(prog.symbol("x"), 8)[0], 100);

    session.events().clear();
    StopInfo hit2 = session.cont(); // break at loop, iteration 2
    ASSERT_EQ(hit2.reason, StopReason::Event);
    EXPECT_EQ(hit2.mark.kind, EventKind::Break);
    StopInfo hit3 = session.cont(); // the store doubles the poked 100
    ASSERT_EQ(hit3.reason, StopReason::Event);
    bool saw = false;
    for (const auto &ev : session.events().drain())
        if (ev.kind == SessionEventKind::Watch) {
            // newValue 200 = 2 * the replayed poke, and oldValue is
            // the poke itself: a debugger write refreshes the shadows
            // of the watches it overlaps.
            EXPECT_EQ(ev.oldValue, 100u);
            EXPECT_EQ(ev.newValue, 200u);
            saw = true;
        }
    EXPECT_TRUE(saw);
}

TEST(DebugSession, PokeRefreshesInApplicationShadows)
{
    // The program doubles x at every iteration. After the first hit
    // (3 -> 6), poke x back to 3: the next iteration stores 6 again, a
    // change from the poked value. DISE and binary rewriting check in
    // the application, so a prev quad still holding 6 would prune that
    // store as silent; every backend must stop on it, old value 3.
    for (BackendKind kind :
         {BackendKind::Dise, BackendKind::SingleStep,
          BackendKind::VirtualMemory, BackendKind::HardwareReg,
          BackendKind::Rewrite}) {
        SCOPED_TRACE(static_cast<int>(kind));
        Program prog = doublerProgram();
        DebugSession s(prog, sessionOptions(kind));
        s.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
        ASSERT_EQ(s.cont().reason, StopReason::Event);
        s.stepi(1);
        ASSERT_TRUE(s.writeMemory(prog.symbol("x"), 8, 3));
        s.events().clear();
        ASSERT_EQ(s.cont().reason, StopReason::Event);
        // Single-step stops at the statement boundary after the store,
        // so its stepi already loaded 6: that iteration stores 12.
        uint64_t stored = kind == BackendKind::SingleStep ? 12 : 6;
        int hits = 0;
        for (const auto &ev : s.events().drain())
            if (ev.kind == SessionEventKind::Watch) {
                EXPECT_EQ(ev.oldValue, 3u);
                EXPECT_EQ(ev.newValue, stored);
                ++hits;
            }
        EXPECT_EQ(hits, 1);
    }
}

TEST(DebugSession, ConditionalWatchReportsTheValueBeforeTheFiringStore)
{
    // x goes 3 -> 6 -> 12 -> 24; the watch fires only on 24. DISE and
    // binary rewriting prune 6 and 12 inside the application, but the
    // old value they report is still the one just before the firing
    // store, as on the backends that check every store in the host.
    for (BackendKind kind :
         {BackendKind::Dise, BackendKind::SingleStep,
          BackendKind::VirtualMemory, BackendKind::HardwareReg,
          BackendKind::Rewrite}) {
        SCOPED_TRACE(backendName(kind));
        Program prog = doublerProgram();
        DebugSession s(prog, sessionOptions(kind));
        s.setWatch(
            WatchSpec::scalar("x", prog.symbol("x"), 8).withCondition(24));
        ASSERT_EQ(s.cont().reason, StopReason::Event);
        int hits = 0;
        for (const auto &ev : s.events().drain())
            if (ev.kind == SessionEventKind::Watch) {
                EXPECT_EQ(ev.oldValue, 12u);
                EXPECT_EQ(ev.newValue, 24u);
                ++hits;
            }
        EXPECT_EQ(hits, 1);
        // 48 is no match: the run ends without another stop.
        EXPECT_NE(s.cont().reason, StopReason::Event);
    }
}

TEST(DebugSession, CoincidentConditionalWatchesReportTogether)
{
    // Both watches match the store of 24. DISE and binary rewriting
    // check them in order within one run of their handler; the first
    // trap reports both, each with the value before the store, and the
    // second check stays quiet.
    for (BackendKind kind :
         {BackendKind::Dise, BackendKind::SingleStep,
          BackendKind::VirtualMemory, BackendKind::HardwareReg,
          BackendKind::Rewrite}) {
        SCOPED_TRACE(backendName(kind));
        Program prog = doublerProgram();
        Addr x = prog.symbol("x");
        DebugSession s(prog, sessionOptions(kind));
        s.setWatch(WatchSpec::scalar("x", x, 8).withCondition(24));
        s.setWatch(WatchSpec::scalar("x.lo", x, 4).withCondition(24));
        ASSERT_EQ(s.cont().reason, StopReason::Event);
        std::vector<int> watches;
        for (const auto &ev : s.events().drain())
            if (ev.kind == SessionEventKind::Watch) {
                EXPECT_EQ(ev.oldValue, 12u);
                EXPECT_EQ(ev.newValue, 24u);
                watches.push_back(ev.index);
            }
        EXPECT_EQ(watches, (std::vector<int>{0, 1}));
        EXPECT_NE(s.cont().reason, StopReason::Event);
    }
}

TEST(DebugSession, PostAttachAdditionDisambiguatesSameInstructionEvents)
{
    // The added spec overlaps the park event's own instruction: the
    // store at the_store now fires TWO watch marks at the identical
    // (pc, appInsts). The replay must re-park on the ORIGINAL spec's
    // event, identified by session index + data address, not on
    // whichever mark shows up first.
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    int a = session.setWatch(
        WatchSpec::scalar("x8", prog.symbol("x"), 8));
    StopInfo hit1 = session.cont();
    ASSERT_EQ(hit1.reason, StopReason::Event);
    ASSERT_EQ(hit1.mark.index, 0);

    // A 4-byte watch on the same cell: same store, same pc, same
    // instruction count — a second mark at the park position.
    int b = session.setWatch(
        WatchSpec::scalar("x4", prog.symbol("x"), 4));
    ASSERT_GE(b, 0);
    EXPECT_NE(a, b);

    // Position preserved, and the stop identity still belongs to the
    // original watch.
    EXPECT_EQ(session.stats().appInsts, hit1.appInsts);
    StopInfo next = session.cont();
    ASSERT_EQ(next.reason, StopReason::Event) << next;
    // The immediate next event: the second spec's mark at the same
    // store (it was re-discovered during replay just past the park).
    EXPECT_LE(next.appInsts, hit1.appInsts + 7);
}

TEST(DebugSession, PreResumePokesSurviveRebuild)
{
    // A poke made after attach but before the first resume is part of
    // the target's initial state; a rebuild triggered by a later spec
    // addition must not silently revert it.
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    ASSERT_TRUE(session.attach());
    ASSERT_TRUE(session.writeMemory(prog.symbol("x"), 8, 0x42));
    ASSERT_GE(session.setWatch(
                  WatchSpec::scalar("x", prog.symbol("x"), 8)),
              0);
    EXPECT_EQ(session.readMemory(prog.symbol("x"), 8)[0], 0x42);

    // And the rebuilt run actually computes with the poked value.
    StopInfo hit = session.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    bool saw = false;
    for (const auto &ev : session.events().drain())
        if (ev.kind == SessionEventKind::Watch) {
            EXPECT_EQ(ev.oldValue, 0x42u);
            EXPECT_EQ(ev.newValue, 0x84u);
            saw = true;
        }
    EXPECT_TRUE(saw);
}

TEST(DebugSession, BatchAnnouncementsCarryMarkPositions)
{
    // ROADMAP PR 3 follow-up: a runToEnd() crossing five hits must
    // deliver five *distinct* positions (each event's own mark), not
    // five copies of the halt position.
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo end = session.runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);

    std::vector<SessionEvent> watches;
    for (const auto &ev : session.events().drain())
        if (ev.kind == SessionEventKind::Watch)
            watches.push_back(ev);
    ASSERT_EQ(watches.size(), 5u);

    uint64_t prevTime = 0;
    for (const auto &ev : watches) {
        EXPECT_GT(ev.time, prevTime);       // strictly increasing
        EXPECT_LT(ev.time, end.time);       // before the halt
        EXPECT_LT(ev.appInsts, end.appInsts);
        prevTime = ev.time;
    }

    // Pin them against a reference that stops at every hit, where the
    // announcement position and the mark position coincide.
    DebugSession ref(prog, sessionOptions());
    ref.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    for (size_t i = 0; i < watches.size(); ++i) {
        StopInfo hit = ref.cont();
        ASSERT_EQ(hit.reason, StopReason::Event) << "hit " << i;
        EXPECT_EQ(watches[i].time, hit.time) << "hit " << i;
        EXPECT_EQ(watches[i].appInsts, hit.appInsts) << "hit " << i;
    }
}

TEST(DebugSession, ContSliceHonorsQuantum)
{
    // The scheduler's forward slicing primitive: cont() bounded to a quantum
    // returns Step when the quantum expires, and the next slice picks
    // up exactly where the previous one left off.
    Program prog = doublerProgram();
    DebugSession full(prog, sessionOptions());
    full.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo oneShot = full.cont();
    ASSERT_EQ(oneShot.reason, StopReason::Event);

    DebugSession sliced(prog, sessionOptions());
    sliced.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    Request req;
    req.kind = RequestKind::Cont;
    unsigned slices = 0;
    bool done = sliced.begin(req);
    while (!done) {
        done = sliced.step(2);
        ++slices;
        ASSERT_LT(slices, 1000u);
    }
    StopInfo stop = sliced.finish().stop;
    EXPECT_EQ(stop.reason, StopReason::Event);
    EXPECT_EQ(stop.time, oneShot.time);
    EXPECT_EQ(stop.pc, oneShot.pc);
    EXPECT_GT(slices, 1u); // the quantum actually split the run
}

TEST(DebugSession, PreAttachRemovalKeepsIndicesStable)
{
    // Removal never erases: indices handed out earlier must stay
    // valid (an RSP client caches them in its Z/z map).
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    int a = session.setWatch(WatchSpec::scalar("a", prog.symbol("x"), 8));
    int b = session.setWatch(WatchSpec::scalar("b", 0x99999, 8));
    ASSERT_EQ(a, 0);
    ASSERT_EQ(b, 1);
    EXPECT_TRUE(session.removeWatch(a));
    // b's index still resolves, and re-adding b's spec re-arms slot 1.
    EXPECT_TRUE(session.removeWatch(b));
    EXPECT_EQ(session.setWatch(WatchSpec::scalar("b", 0x99999, 8)), b);
    EXPECT_TRUE(session.watchMuted(a));
    EXPECT_FALSE(session.watchMuted(b));

    // a stays muted across the attach: the run never stops on it.
    StopInfo end = session.runToEnd();
    EXPECT_EQ(end.reason, StopReason::Halted);
    for (const auto &ev : session.events().drain())
        EXPECT_NE(ev.kind, SessionEventKind::Watch) << ev.describe();
}

TEST(DebugSession, MutedSpecsAreNotInstalled)
{
    // gdb's 'delete' before the first continue: the hwreg backend
    // refuses breakpoints outright, so a deleted one must not be
    // installed — and must not make attach fail.
    Program prog = doublerProgram();
    DebugSession session(prog,
                         sessionOptions(BackendKind::HardwareReg));
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    BreakSpec bp;
    bp.pc = prog.symbol("the_store");
    int b = session.setBreak(bp);
    EXPECT_TRUE(session.removeBreak(b));

    StopInfo hit = session.cont();
    ASSERT_EQ(hit.reason, StopReason::Event) << hit;
    EXPECT_EQ(hit.mark.kind, EventKind::Watch);

    // The never-installed breakpoint cannot be re-armed post-attach.
    EXPECT_LT(session.setBreak(bp), 0);
}

TEST(DebugSession, PreAttachPokesBecomeInitialState)
{
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));

    // Poke x before anything is attached: the run sees 10 -> 20.
    EXPECT_TRUE(session.writeMemory(prog.symbol("x"), 8, 10));
    EXPECT_EQ(session.readMemory(prog.symbol("x"), 8)[0], 10);
    StopInfo hit = session.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    bool saw = false;
    for (const auto &ev : session.events().drain())
        if (ev.kind == SessionEventKind::Watch) {
            EXPECT_EQ(ev.oldValue, 10u);
            EXPECT_EQ(ev.newValue, 20u);
            saw = true;
        }
    EXPECT_TRUE(saw);
}

TEST(DebugSession, WireTranscriptMatchesTypedVerbs)
{
    Program prog = doublerProgram();

    // Typed reference.
    DebugSession ref(prog, sessionOptions());
    ref.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo refHit = ref.cont();

    // The same session driven entirely through encoded lines.
    DebugSession wire(prog, sessionOptions());
    Response resp;
    ASSERT_TRUE(decodeResponse(
        wire.handleEncoded("select-backend seq=1 backend=dise"), resp));
    EXPECT_TRUE(resp.ok());

    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("x", prog.symbol("x"), 8);
    ASSERT_TRUE(
        decodeResponse(wire.handleEncoded(encodeRequest(setw)), resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.index, 0);

    ASSERT_TRUE(decodeResponse(wire.handleEncoded("cont seq=3"), resp));
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp.hasStop);
    EXPECT_EQ(resp.stop.reason, StopReason::Event);
    EXPECT_EQ(resp.stop.pc, refHit.pc);
    EXPECT_EQ(resp.stop.time, refHit.time);

    ASSERT_TRUE(decodeResponse(
        wire.handleEncoded("read-registers seq=4"), resp));
    EXPECT_EQ(resp.regs, ref.readRegisters());

    ASSERT_TRUE(decodeResponse(wire.handleEncoded("stats seq=5"), resp));
    EXPECT_EQ(resp.stats.appInsts, refHit.appInsts);
    EXPECT_GE(resp.stats.events, 1u);

    // Unknown verbs come back as errors, not crashes.
    ASSERT_TRUE(decodeResponse(
        wire.handleEncoded("self-destruct seq=6"), resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);

    ASSERT_TRUE(
        decodeResponse(wire.handleEncoded("detach seq=7"), resp));
    EXPECT_TRUE(resp.ok());
    ASSERT_TRUE(decodeResponse(wire.handleEncoded("cont seq=8"), resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
}

TEST(DebugSession, UnsupportedBackendReportsCleanly)
{
    // INDIRECT under virtual memory is the paper's "no experiment"
    // cell: the session must answer Unsupported, not crash.
    Program prog = doublerProgram();
    DebugSession session(prog,
                         sessionOptions(BackendKind::VirtualMemory));
    session.setWatch(
        WatchSpec::indirect("*p", prog.symbol("x"), 8));
    Request cont;
    cont.kind = RequestKind::Cont;
    Response resp = session.handle(cont);
    EXPECT_EQ(resp.status, ResponseStatus::Unsupported);
    EXPECT_FALSE(session.attached());
}

TEST(Debugger, CycleRunsReportEveryWatchHit)
{
    // The harness' cycle-level path: a Debugger run under the timing
    // model, its hits read from the backend.
    Program prog = doublerProgram();
    DebugTarget target(prog);
    Debugger dbg(target, sessionOptions().debugger);
    dbg.watch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    ASSERT_TRUE(dbg.attach());
    RunStats stats = dbg.run();
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(stats.halt, HaltReason::Exited);
    EXPECT_EQ(dbg.backend().watchEvents().size(), 5u);
}

TEST(DebugSession, PokeAtWatchStopWithoutStepping)
{
    // gdb writes memory at a watchpoint stop without stepping first —
    // the session is parked mid-expansion, which used to be refused
    // with "interventions are only valid between instructions".
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo hit = session.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);

    Addr scratch = prog.symbol("x") + 32;
    ASSERT_TRUE(session.writeMemory(scratch, 8, 0xabcd));
    EXPECT_EQ(session.readMemory(scratch, 2)[0], 0xcd);

    // The same thing over the wire answers ok, not error.
    StopInfo hit2 = session.cont();
    ASSERT_EQ(hit2.reason, StopReason::Event);
    char line[96];
    std::snprintf(line, sizeof line,
                  "write-memory seq=9 addr=0x%llx size=8 value=0x99",
                  static_cast<unsigned long long>(scratch));
    Response resp;
    ASSERT_TRUE(decodeResponse(session.handleEncoded(line), resp));
    EXPECT_TRUE(resp.ok()) << resp.error;

    // The pokes are loggable interventions: travel back across them
    // and forward again reproduces the poked state.
    uint64_t d = session.digest();
    session.reverseStep(3);
    StopInfo back = session.runToEvent(hit2.eventIndex);
    EXPECT_EQ(back.time, hit2.time);
    EXPECT_EQ(session.digest(), d);
    EXPECT_EQ(session.readMemory(scratch, 1)[0], 0x99);

    // This timeline now holds a poke at an INTERIOR park (the first
    // hit's, run past long ago). A machinery rebuild used to refuse
    // it; now the replay navigates to the interior park by the parked
    // mark's (kind, pc, appInsts, owner, address) occurrence and
    // re-applies the poke there, so enlarging the spec set succeeds.
    int x4 =
        session.setWatch(WatchSpec::scalar("x4", prog.symbol("x"), 4));
    EXPECT_GE(x4, 0) << session.lastRefusal();
    EXPECT_TRUE(session.lastRefusal().empty());
    // Back at the second hit's position, both pokes replayed in order.
    EXPECT_EQ(session.stats().appInsts, hit2.appInsts);
    EXPECT_EQ(session.readMemory(scratch, 1)[0], 0x99);

    // The interior poke re-applied at its exact position: the first
    // boundary past the first hit sees 0xabcd (the interior poke,
    // before the later 0x99 overwrote it), and a boundary before the
    // watched store predates it.
    session.reverseStep(hit2.appInsts - hit.appInsts);
    EXPECT_LT(session.stats().appInsts, hit2.appInsts);
    EXPECT_EQ(session.readMemory(scratch, 1)[0], 0xcd);
    session.reverseStep(2);
    EXPECT_LT(session.stats().appInsts, hit.appInsts);
    EXPECT_EQ(session.readMemory(scratch, 1)[0], 0x00);

    // Enlarging again over the wire (another rebuild, now with a
    // boundary position) answers ok, not unsupported.
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 10;
    setw.watch = WatchSpec::scalar("x2", prog.symbol("x"), 2);
    Response rw;
    ASSERT_TRUE(
        decodeResponse(session.handleEncoded(encodeRequest(setw)), rw));
    EXPECT_TRUE(rw.ok()) << rw.error;
    EXPECT_EQ(session.readMemory(scratch, 1)[0], 0x00);

    // A session whose only park poke is at the CURRENT park rebuilds
    // fine: the replay re-applies it after re-finding the park.
    DebugSession fresh(prog, sessionOptions());
    fresh.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo fhit = fresh.cont();
    ASSERT_EQ(fhit.reason, StopReason::Event);
    ASSERT_TRUE(fresh.writeMemory(scratch, 8, 0x55));
    int idx = fresh.setWatch(
        WatchSpec::scalar("x4", prog.symbol("x"), 4));
    EXPECT_GE(idx, 0);
    EXPECT_EQ(fresh.readMemory(scratch, 1)[0], 0x55);
    EXPECT_EQ(fresh.stats().appInsts, fhit.appInsts);
}

TEST(DebugSession, PostAttachAdditionReplaysProductionMutations)
{
    // Satellite of the rebuild path: DISE-table interventions used to
    // refuse the rebuild outright. Now the rebuild replays them
    // at their stamps — including a removal of a pre-session
    // (prepare-hook) production, re-targeted by its stable slot.
    Program prog = doublerProgram();
    SessionOptions so = sessionOptions();
    auto preId = std::make_shared<ProductionId>(0);
    so.prepare = [preId](DebugTarget &t) {
        Production p;
        p.name = "presession";
        p.pattern = Pattern::forPc(0x7fff0000); // inert: never matches
        p.replacement.push_back(TemplateInst::trigInst());
        *preId = t.engine.addProduction(p);
    };
    DebugSession session(prog, so);
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo hit = session.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);

    TimeTravel &tt = session.timeTravel();
    session.stepi(1);
    Production q;
    q.name = "insession";
    q.pattern = Pattern::forPc(0x7fff1000);
    q.replacement.push_back(TemplateInst::trigInst());
    tt.addProduction(q);
    session.stepi(1);
    tt.removeProduction(*preId);
    session.stepi(1);
    uint64_t pos = session.stats().appInsts;

    // Post-attach addition with table mutations in the journal: no
    // longer refused.
    BreakSpec bp;
    bp.pc = prog.symbol("loop");
    int idx = session.setBreak(bp);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(session.stats().appInsts, pos);

    // The rebuilt timeline carries the mutations at their stamps:
    // stepping back across the removal resurrects the pre-session
    // production, and re-crossing removes it again.
    DiseEngine &eng = session.target().engine;
    size_t cAfter = eng.productionCount();
    uint64_t d1 = session.digest();
    session.reverseStep(2);
    EXPECT_EQ(eng.productionCount(), cAfter + 1);
    // (An intervention recorded at a position applies when execution
    // continues FROM it, so the removal lands during this step.)
    session.stepi(2);
    EXPECT_EQ(eng.productionCount(), cAfter);
    EXPECT_EQ(session.digest(), d1);

    // Interval-parallel reconstruction handles the production journal
    // too (pre-applied before an interval, applied in-loop within).
    IntervalReplay::Report rep = session.verifyReplay(2);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.finalDigest, session.digest());
}

TEST(DebugSession, SlicedRebuildMatchesOneShot)
{
    // The server drives post-attach spec changes as preemptible jobs:
    // begin + bounded step() quanta must land exactly where the
    // one-shot setWatch() does.
    Program prog = doublerProgram();
    DebugSession a(prog, sessionOptions());
    DebugSession b(prog, sessionOptions());
    for (DebugSession *s : {&a, &b}) {
        s->setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
        StopInfo hit = s->cont();
        ASSERT_EQ(hit.reason, StopReason::Event);
    }
    WatchSpec w4 = WatchSpec::scalar("x4", prog.symbol("x"), 4);
    int refIdx = a.setWatch(w4);
    ASSERT_GE(refIdx, 0);

    Request add;
    add.kind = RequestKind::SetWatch;
    add.watch = w4;
    bool done = b.begin(add);
    unsigned steps = 0;
    while (!done) {
        done = b.step(3); // tiny quanta
        ++steps;
    }
    Response added = b.finish();
    ASSERT_TRUE(added.ok()) << added.error;
    EXPECT_EQ(added.index, refIdx);
    EXPECT_GE(steps, 2u) << "rebuild should take several quanta";
    EXPECT_EQ(a.stats().appInsts, b.stats().appInsts);
    EXPECT_EQ(a.stats().time, b.stats().time);
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(DebugSession, VerbAfterInterruptedRebuildLandsTheRebuildFirst)
{
    // A set-watch job stopped after its first slices (an injected slice
    // fault, a scheduler stop) leaves the rebuild half done. The next
    // verb must land the rebuild before it runs: same position and
    // digest as a session whose rebuild ran whole, and exportable.
    Workload w = buildWorkload("mcf");
    SessionOptions o;
    o.debugger.backend = BackendKind::Dise;
    o.timeTravel.checkpointInterval = 1024;
    DebugSession ref(w.program, o);
    DebugSession cut(w.program, o);
    for (DebugSession *s : {&ref, &cut}) {
        ASSERT_GE(s->setWatch(w.watch(WatchSel::WARM1)), 0);
        s->stepi(20000);
        ASSERT_TRUE(s->writeMemory(w.hotAddr, 8, 0x77));
        s->stepi(20000);
    }
    WatchSpec hot = WatchSpec::scalar("hot", w.hotAddr, 8);
    ASSERT_GE(ref.setWatch(hot), 0);
    Request add;
    add.kind = RequestKind::SetWatch;
    add.watch = hot;
    ASSERT_FALSE(cut.begin(add));
    ASSERT_FALSE(cut.step(1000)); // commits the enlarged machinery
    ASSERT_FALSE(cut.step(1000)); // 1000 instructions of the replay
    persist::SessionImage img;
    std::string err;
    EXPECT_FALSE(cut.exportImage(img, &err)); // half rebuilt

    StopInfo want = ref.stepi(5000);
    StopInfo got = cut.stepi(5000);
    EXPECT_EQ(want.appInsts, 45000u);
    EXPECT_EQ(got.appInsts, want.appInsts);
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(cut.digest(), ref.digest());
    EXPECT_TRUE(cut.exportImage(img, &err)) << err;
}

TEST(DebugSession, SlicedReverseMatchesOneShot)
{
    Program prog = doublerProgram();
    DebugSession a(prog, sessionOptions());
    DebugSession b(prog, sessionOptions());
    for (DebugSession *s : {&a, &b}) {
        s->setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
        s->runToEnd();
    }
    StopInfo ref = a.reverseContinue();
    Request rc;
    rc.kind = RequestKind::ReverseContinue;
    bool done = b.begin(rc);
    while (!done)
        done = b.step(2);
    StopInfo got = b.finish().stop;
    EXPECT_EQ(got.reason, ref.reason);
    EXPECT_EQ(got.time, ref.time);
    EXPECT_EQ(got.eventIndex, ref.eventIndex);
    EXPECT_EQ(a.digest(), b.digest());

    // Muted events restart the travel inside the sliced form too.
    ASSERT_TRUE(a.removeWatch(0));
    ASSERT_TRUE(b.removeWatch(0));
    StopInfo refBack = a.reverseContinue(); // start-of-history
    done = b.begin(rc);
    while (!done)
        done = b.step(2);
    got = b.finish().stop;
    EXPECT_EQ(got.reason, refBack.reason);
    EXPECT_EQ(got.time, refBack.time);
}

TEST(DebugSession, ReplayVerifyWireVerb)
{
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));

    // Before any run there is nothing to reconstruct.
    Response resp;
    ASSERT_TRUE(decodeResponse(
        session.handleEncoded("replay-verify seq=1 count=2"), resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);

    session.cont();
    session.runToEnd();
    ASSERT_TRUE(decodeResponse(
        session.handleEncoded("replay-verify seq=2 count=2"), resp));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.value, session.digest());
    EXPECT_GT(resp.regs.size(), 1u); // per-range digests
}

TEST(DebugSession, OddSizeWritesAreRefusedWithoutSideEffects)
{
    // Memory takes 1-, 2-, 4- and 8-byte writes. Any other size is
    // refused before it reaches the pending pokes (where it used to
    // fail every later resume) or the timeline (where it used to drop
    // the explored future).
    Program demo = buildHeisenbugDemo();
    Addr dir = demo.symbol("directory");
    SessionOptions so;
    so.timeTravel.checkpointInterval = 500;
    DebugSession before(demo, so);
    before.setWatch(WatchSpec::scalar("directory", dir, 8));
    EXPECT_FALSE(before.writeMemory(dir + 72, 3, 7));
    EXPECT_EQ(before.cont().reason, StopReason::Event);

    DebugSession s(demo, so);
    s.setWatch(WatchSpec::scalar("directory", dir, 8));
    ASSERT_EQ(s.runToEnd().reason, StopReason::Halted);
    s.reverseContinue();
    s.reverseContinue();
    size_t events = s.stats().events;
    uint64_t digest = s.digest();
    Response resp;
    ASSERT_TRUE(decodeResponse(
        s.handleEncoded("write-memory seq=1 addr=" +
                        std::to_string(dir + 72) + " size=3 value=7"),
        resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("1, 2, 4 or 8"), std::string::npos)
        << resp.error;
    EXPECT_EQ(s.stats().events, events);
    EXPECT_EQ(s.digest(), digest);
    EXPECT_EQ(s.cont().reason, StopReason::Event);
}

TEST(DebugSession, StatsReportHistoryBytesHeld)
{
    Workload w = buildWorkload("mcf");
    SessionOptions o;
    o.timeTravel.checkpointInterval = 1024;
    DebugSession session(w.program, o);
    session.setWatch(w.watch(WatchSel::WARM1));
    ASSERT_EQ(session.runToEnd().reason, StopReason::Halted);

    auto wireBytes = [&] {
        Response resp;
        EXPECT_TRUE(
            decodeResponse(session.handleEncoded("stats seq=1"), resp));
        return resp.stats.historyBytes;
    };
    // The undo intervals the session holds: sealed plus open.
    auto heldBytes = [&] {
        uint64_t sum = session.target().mem.pendingUndo().bytes();
        for (const Checkpoint &cp : session.timeTravel().checkpoints())
            sum += cp.undo.bytes();
        return sum;
    };
    uint64_t recorded = wireBytes();
    EXPECT_GT(recorded, 0u);
    EXPECT_EQ(recorded, heldBytes());

    // Reverse travel consumes every interval after its checkpoint.
    ASSERT_EQ(session.reverseContinue().reason, StopReason::Event);
    uint64_t back = wireBytes();
    EXPECT_LT(back, recorded);
    EXPECT_EQ(back, heldBytes());
}

TEST(DebugSession, StatsReportTraceCoverage)
{
    // A DISE watch on a rarely written cell: each store's check ends
    // in a d_ccall that is almost never taken, so the recording runs
    // from traces nearly throughout.
    Workload w = buildWorkload("mcf");
    SessionOptions o;
    o.timeTravel.checkpointInterval = 1024;
    DebugSession session(w.program, o);
    session.setWatch(w.watch(WatchSel::WARM1));
    ASSERT_EQ(session.runToEnd().reason, StopReason::Halted);

    Response resp;
    ASSERT_TRUE(decodeResponse(session.handleEncoded("stats seq=1"), resp));
    ASSERT_GT(resp.stats.time, 0u);
    EXPECT_GE(static_cast<double>(resp.stats.jitUops) /
                  static_cast<double>(resp.stats.time),
              0.9);
    EXPECT_GT(resp.stats.jitExits, 0u);
}

/** The bytes of @p prog's text segment. */
std::vector<uint8_t>
textOf(const Program &prog)
{
    for (const Program::Segment &seg : prog.segments)
        if (seg.name == "text")
            return seg.bytes.copy();
    return {};
}

const uint8_t *
textPtr(const Program &prog)
{
    for (const Program::Segment &seg : prog.segments)
        if (seg.name == "text")
            return seg.bytes.data();
    return nullptr;
}

/** Stop positions of breaking at "loop" and continuing to the halt. */
std::vector<uint64_t>
loopStops(DebugSession &s, const Program &prog)
{
    BreakSpec bp;
    bp.pc = prog.symbol("loop");
    EXPECT_GE(s.setBreak(bp), 0);
    std::vector<uint64_t> at;
    for (StopInfo st = s.cont(); st.reason == StopReason::Event;
         st = s.cont())
        at.push_back(st.appInsts);
    return at;
}

TEST(DebugSession, CodewordBreakpointsPatchOnlyTheirOwnText)
{
    // Program copies share their segment bytes: a DISE session that
    // patches codeword breakpoints into its text patches a private
    // copy, so the shared program and a second session of it are
    // untouched.
    const Program prog = doublerProgram();
    const std::vector<uint8_t> text = textOf(prog);
    SessionOptions cw = sessionOptions();
    cw.debugger.dise.breakpointsByCodeword = true;
    // Each flavor's stops on a program of its own.
    DebugSession ownCw(doublerProgram(), cw);
    std::vector<uint64_t> wantCw = loopStops(ownCw, prog);
    DebugSession ownPc(doublerProgram(), sessionOptions());
    std::vector<uint64_t> wantPc = loopStops(ownPc, prog);
    ASSERT_EQ(wantCw.size(), 5u);
    ASSERT_EQ(wantPc.size(), 5u);

    DebugSession patched(prog, cw);
    EXPECT_EQ(loopStops(patched, prog), wantCw);
    EXPECT_NE(textPtr(patched.target().program), textPtr(prog));
    EXPECT_NE(textOf(patched.target().program), text);
    EXPECT_EQ(textOf(prog), text);

    DebugSession second(prog, sessionOptions());
    EXPECT_EQ(loopStops(second, prog), wantPc);
    EXPECT_EQ(textPtr(second.target().program), textPtr(prog));
}

TEST(DebugSession, RewriteSessionLeavesTheSharedProgramUnchanged)
{
    const Program prog = doublerProgram();
    const std::vector<uint8_t> text = textOf(prog);
    const size_t segments = prog.segments.size();
    DebugSession s(prog, sessionOptions(BackendKind::Rewrite));
    s.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    EXPECT_EQ(s.runToEnd().reason, StopReason::Halted);
    EXPECT_NE(textOf(s.target().program), text);
    EXPECT_EQ(textOf(prog), text);
    EXPECT_EQ(prog.segments.size(), segments);
}

TEST(DebugSession, DescribePrintersAreReadable)
{
    StopInfo stop;
    stop.reason = StopReason::Event;
    stop.eventIndex = 3;
    stop.mark.kind = EventKind::Watch;
    stop.mark.index = 0;
    stop.pc = 0x100005c;
    stop.time = 1234;
    stop.appInsts = 567;
    std::string text = stop.describe();
    EXPECT_NE(text.find("event"), std::string::npos) << text;
    EXPECT_NE(text.find("0x100005c"), std::string::npos) << text;
    EXPECT_NE(text.find("1234"), std::string::npos) << text;

    Response resp;
    resp.status = ResponseStatus::Unsupported;
    resp.inReplyTo = RequestKind::Attach;
    resp.error = "no experiment";
    text = resp.describe();
    EXPECT_NE(text.find("unsupported"), std::string::npos) << text;
    EXPECT_NE(text.find("attach"), std::string::npos) << text;
    EXPECT_NE(text.find("no experiment"), std::string::npos) << text;
}

// ---------------------------------------- one timeline per attach

TEST(DebugSession, AttachedSessionHasATimelineBeforeItRuns)
{
    // Attach builds the timeline with the machinery: a session that
    // never resumed sits at its time-zero checkpoint.
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    ASSERT_TRUE(session.attach());
    ASSERT_NE(session.travelStats(), nullptr);
    SessionStats st = session.stats();
    EXPECT_EQ(st.checkpoints, 1u);
    EXPECT_EQ(st.time, 0u);

    // replay-verify reconstructs the one empty range.
    Response resp;
    ASSERT_TRUE(decodeResponse(
        session.handleEncoded("replay-verify seq=1 count=2"), resp));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.value, session.digest());
    ASSERT_EQ(resp.regs.size(), 1u);
    EXPECT_EQ(resp.regs[0], session.digest());

    // Writes are interventions on that timeline, and the PC is not a
    // loggable one.
    EXPECT_FALSE(session.writeRegister(DebugSession::PcRegIndex,
                                       prog.entry + 4));
    EXPECT_EQ(session.readRegister(DebugSession::PcRegIndex), prog.entry);
    EXPECT_TRUE(session.writeRegister(1, 7));
    EXPECT_EQ(session.readRegister(1), 7u);
}

TEST(DebugSession, WriteAfterAttachSurvivesTravelAndRebuild)
{
    // A write between an explicit attach and the first resume is
    // stamped at time zero: reverse-continue back to the start lands
    // with it applied, and a later rebuild replays it.
    Program prog = doublerProgram();
    Addr x = prog.symbol("x");
    Addr scratch = x + 32;
    DebugSession session(prog, sessionOptions());
    session.setWatch(WatchSpec::scalar("x", x, 8));
    ASSERT_TRUE(session.attach());
    ASSERT_TRUE(session.writeMemory(x, 8, 0x10));
    ASSERT_TRUE(session.writeMemory(scratch, 8, 0x5a));

    ASSERT_EQ(session.runToEnd().reason, StopReason::Halted);
    EXPECT_EQ(session.readMemory(x, 2)[1], 0x02); // 0x10 doubled 5x
    StopInfo back;
    do {
        back = session.reverseContinue();
    } while (back.reason == StopReason::Event);
    ASSERT_EQ(back.reason, StopReason::Start);
    EXPECT_EQ(session.readMemory(x, 1)[0], 0x10);
    EXPECT_EQ(session.readMemory(scratch, 1)[0], 0x5a);

    session.events().clear();
    StopInfo hit = session.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    auto expectFirstHit = [&] {
        bool saw = false;
        for (const SessionEvent &ev : session.events().drain())
            if (ev.kind == SessionEventKind::Watch && !saw) {
                EXPECT_EQ(ev.oldValue, 0x10u);
                EXPECT_EQ(ev.newValue, 0x20u);
                saw = true;
            }
        EXPECT_TRUE(saw);
    };
    expectFirstHit();

    // The rebuild for a new spec re-crosses the first hit.
    ASSERT_GE(session.setWatch(WatchSpec::scalar("s", scratch, 8)), 0)
        << session.lastRefusal();
    EXPECT_EQ(session.stats().appInsts, hit.appInsts);
    EXPECT_EQ(session.readMemory(scratch, 1)[0], 0x5a);
    expectFirstHit();
    ASSERT_EQ(session.runToEnd().reason, StopReason::Halted);
    EXPECT_EQ(session.readMemory(x, 2)[1], 0x02);
}

// -------------------------------------------------- every backend

class EveryBackend : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(EveryBackend, ContStopsOnTheStoreBeforeExit)
{
    // The doubler's last store sits in the last statement, and no
    // statement boundary follows it before the program exits.
    Program prog = doublerProgram();
    DebugSession session(prog, sessionOptions(GetParam()));
    session.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    int stops = 0;
    StopInfo stop;
    while ((stop = session.cont()).reason == StopReason::Event)
        ++stops;
    EXPECT_EQ(stop.reason, StopReason::Halted) << stop;
    EXPECT_EQ(stops, 5);
    std::vector<SessionEvent> watches;
    for (const SessionEvent &ev : session.events().drain())
        if (ev.kind == SessionEventKind::Watch)
            watches.push_back(ev);
    ASSERT_EQ(watches.size(), 5u);
    EXPECT_EQ(watches.back().oldValue, 48u);
    EXPECT_EQ(watches.back().newValue, 96u);
}

TEST_P(EveryBackend, SpecsOutsideTheLimitsAreRefused)
{
    // Every field a backend sizes an access or a shadow by: each row
    // gets a typed error before attach and after running, and the
    // session runs on as if it had never been sent.
    Program prog = doublerProgram();
    Addr x = prog.symbol("x");
    auto watch = [](const WatchSpec &w) {
        Request r;
        r.kind = RequestKind::SetWatch;
        r.watch = w;
        return r;
    };
    Request brk;
    brk.kind = RequestKind::SetBreak;
    brk.brk.pc = prog.symbol("the_store");
    brk.brk.conditional = true;
    brk.brk.condAddr = x;
    brk.brk.condSize = 3;
    const std::vector<std::pair<const char *, Request>> rows = {
        {"scalar size 3", watch(WatchSpec::scalar("x3", x, 3))},
        {"scalar size 0", watch(WatchSpec::scalar("x0", x, 0))},
        {"scalar size 16", watch(WatchSpec::scalar("x16", x, 16))},
        {"indirect size 3", watch(WatchSpec::indirect("p3", x, 3))},
        {"range length 0", watch(WatchSpec::range("r0", x, 0))},
        {"range length 65537", watch(WatchSpec::range("r1", x, 65537))},
        {"range end wraps",
         watch(WatchSpec::range("r2", ~Addr{0} - 7, 16))},
        {"break condition size 3", brk},
    };
    for (const auto &[what, req] : rows) {
        SCOPED_TRACE(what);
        DebugSession s(prog, sessionOptions(GetParam()));
        s.setWatch(WatchSpec::scalar("x", x, 8));
        Response before = s.handle(req);
        EXPECT_EQ(before.status, ResponseStatus::Error);
        EXPECT_FALSE(before.error.empty());
        ASSERT_EQ(s.cont().reason, StopReason::Event);
        Response after = s.handle(req);
        EXPECT_EQ(after.status, ResponseStatus::Error);
        EXPECT_EQ(after.error, before.error);
        int stops = 1;
        while (s.cont().reason == StopReason::Event)
            ++stops;
        EXPECT_EQ(stops, 5);
    }

    // The limits themselves are admitted.
    DebugSession s(prog, sessionOptions(GetParam()));
    EXPECT_TRUE(s.handle(watch(WatchSpec::range("r", x, 65536))).ok());
    brk.brk.condSize = 8;
    EXPECT_TRUE(s.handle(brk).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EveryBackend,
    ::testing::Values(BackendKind::Dise, BackendKind::SingleStep,
                      BackendKind::VirtualMemory, BackendKind::HardwareReg,
                      BackendKind::Rewrite),
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

} // namespace
} // namespace dise
