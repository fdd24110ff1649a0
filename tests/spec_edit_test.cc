/**
 * @file
 * Every rebuild of a session reproduces the live one.
 *
 * A session's machinery is rebuilt from its log on four paths: attach
 * (and a poke made after it, before the first resume), a spec added
 * after the target ran, resurrection from an exported image, and the
 * interval-replay replicas behind replay-verify. A seeded random
 * property drives spec edits, mutes, pokes, tool toggles and every
 * travel verb on all five backends, then requires the session to stay
 * attached, resurrection and replay-verify to reproduce the live
 * digest, and one more spec addition to keep the position (or, on
 * binary rewriting past time zero, to get a typed refusal). A table of
 * named rows pins each defect the property first found.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "persist/image.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

constexpr BackendKind AllBackends[] = {
    BackendKind::Dise, BackendKind::SingleStep,
    BackendKind::VirtualMemory, BackendKind::HardwareReg,
    BackendKind::Rewrite};

SessionOptions
options(BackendKind kind)
{
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 500;
    return o;
}

Request
verb(RequestKind kind, uint64_t count = 0)
{
    Request r;
    r.kind = kind;
    r.count = count;
    return r;
}

Request
setWatch(const WatchSpec &spec)
{
    Request r;
    r.kind = RequestKind::SetWatch;
    r.watch = spec;
    return r;
}

Request
removeWatch(int index)
{
    Request r;
    r.kind = RequestKind::RemoveWatch;
    r.index = index;
    return r;
}

Request
poke(Addr addr, uint64_t value, unsigned size = 8)
{
    Request r;
    r.kind = RequestKind::WriteMemory;
    r.addr = addr;
    r.size = size;
    r.value = value;
    return r;
}

Request
tool(RequestKind kind)
{
    Request r;
    r.kind = kind;
    r.name = "memtrace";
    return r;
}

/** The registers plus the directory the heisenbug store corrupts. */
std::vector<uint64_t>
visibleState(DebugSession &s, Addr dir)
{
    std::vector<uint64_t> v = s.readRegisters();
    std::vector<uint8_t> bytes = s.readMemory(dir, 32);
    v.insert(v.end(), bytes.begin(), bytes.end());
    return v;
}

/** The little-endian quad at @p addr. */
uint64_t
quadAt(DebugSession &s, Addr addr)
{
    std::vector<uint8_t> b = s.readMemory(addr, 8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

/** What a rebuild of @p s disagreed on, or "" when every rebuild
 *  reproduced it: export + resurrect (through the encoded image) and
 *  interval replay on two workers. */
std::string
rebuildsDisagree(DebugSession &s, const Program &prog)
{
    persist::SessionImage img;
    std::string err;
    if (!s.exportImage(img, &err))
        return "export: " + err;
    persist::SessionImage decoded;
    persist::ImageErr ie =
        persist::decodeImage(persist::encodeImage(img), decoded, &err);
    if (ie != persist::ImageErr::None)
        return std::string("decode: ") + persist::imageErrName(ie) + " " +
               err;
    DebugSession r(prog, options(s.backendKind()));
    if (!r.begin(decoded))
        while (!r.step(0)) {
        }
    Response res = r.finish();
    if (!res.ok())
        return "resurrect: " + res.error;
    uint64_t live = s.digest();
    SessionStats a = s.stats(), b = r.stats();
    if (a.time != b.time || a.appInsts != b.appInsts ||
        r.digest() != live)
        return "resurrect landed elsewhere";
    IntervalReplay::Report rep = s.verifyReplay(2);
    if (!rep.ok)
        return "replay-verify: " + rep.error;
    if (rep.finalDigest != live)
        return "replay-verify digest differs";
    return "";
}

/** A post-attach spec addition keeps the position, or (binary
 *  rewriting past time zero) is refused with a typed refusal. Returns
 *  what went wrong, or "". */
std::string
additionKeepsPosition(DebugSession &s, Addr dir, const WatchSpec &spec)
{
    std::vector<uint64_t> before = visibleState(s, dir);
    uint64_t insts = s.stats().appInsts;
    bool pastZero = s.stats().time > 0;
    Response res = s.handle(setWatch(spec));
    if (s.detached())
        return "set-watch detached: " + res.error;
    if (s.backendKind() == BackendKind::Rewrite && pastZero)
        return res.status == ResponseStatus::Unsupported
                   ? ""
                   : "rewrite past time zero accepted a spec addition";
    if (!res.ok())
        return res.status == ResponseStatus::Unsupported
                   ? "" // the backend cannot implement the larger set
                   : "set-watch: " + res.error;
    if (s.stats().appInsts != insts)
        return "set-watch moved the position";
    if (visibleState(s, dir) != before)
        return "set-watch changed registers or directory";
    return "";
}

// ------------------------------------------------------------ property

/** Failure tallies for one backend. */
struct Tally
{
    int detached = 0, rebuild = 0, addition = 0;
    std::ostringstream first;

    void
    note(uint64_t seed, const std::string &what)
    {
        if (first.tellp() == 0)
            first << "seed " << seed << ": " << what;
    }
};

/** One seeded script: 12 random verbs, then stepi 1 and the checks. */
void
runSeed(BackendKind kind, uint64_t seed, Tally &t)
{
    Program prog = buildHeisenbugDemo();
    Addr dir = prog.symbol("directory");
    // Three of the four overlap directory[0], which the bug writes, so
    // one store fires several marks on one µop.
    const WatchSpec specs[] = {
        WatchSpec::scalar("d0", dir, 8), WatchSpec::scalar("d0lo", dir, 4),
        WatchSpec::scalar("d0hi", dir + 4, 4),
        WatchSpec::scalar("d1", dir + 8, 8)};
    DebugSession s(prog, options(kind));
    Rng rng(seed);
    int registered = 0;
    std::string script;
    for (int n = 0; n < 12; ++n) {
        Request req;
        switch (rng.below(10)) {
          case 0: req = setWatch(specs[rng.below(4)]); break;
          case 1:
            req = removeWatch(registered ? static_cast<int>(
                                               rng.below(registered))
                                         : 0);
            break;
          case 2: req = verb(RequestKind::Cont); break;
          case 3: req = verb(RequestKind::Stepi, 1 + rng.below(500)); break;
          case 4: req = verb(RequestKind::ReverseContinue); break;
          case 5:
            req = verb(RequestKind::ReverseStep, 1 + rng.below(200));
            break;
          case 6: req = poke(dir + 8 * rng.below(4), rng.next()); break;
          case 7: req = verb(RequestKind::Attach); break;
          case 8: req = tool(RequestKind::ToolEnable); break;
          default: req = tool(RequestKind::ToolDisable); break;
        }
        script += std::string(" ") + requestKindName(req.kind);
        Response res = s.handle(req);
        if (req.kind == RequestKind::SetWatch && res.ok())
            registered = std::max(registered, res.index + 1);
        if (s.detached()) {
            ++t.detached;
            t.note(seed, "detached at" + script + ": " + res.error);
            return;
        }
    }
    s.handle(verb(RequestKind::Stepi, 1));
    if (s.detached()) {
        ++t.detached;
        t.note(seed, "detached at" + script + " stepi");
        return;
    }
    std::string why = rebuildsDisagree(s, prog);
    if (!why.empty()) {
        ++t.rebuild;
        t.note(seed, why + " after" + script);
    }
    why = additionKeepsPosition(s, dir,
                                WatchSpec::scalar("d2", dir + 16, 8));
    if (!why.empty()) {
        ++t.addition;
        t.note(seed, why + " after" + script);
    }
}

TEST(SpecEditProperty, EveryRebuildReproducesTheLiveSession)
{
    for (BackendKind kind : AllBackends) {
        Tally t;
        for (uint64_t seed = 1; seed <= 100; ++seed)
            runSeed(kind, 0x5eed0000 + seed, t);
        EXPECT_EQ(t.detached + t.rebuild + t.addition, 0)
            << backendName(kind) << ": " << t.detached << " detached, "
            << t.rebuild << " rebuild disagreements, " << t.addition
            << " addition failures; first " << t.first.str();
    }
}

// ---------------------------------------------------------------- rows

class SpecEditRow : public ::testing::TestWithParam<BackendKind>
{
  protected:
    SpecEditRow()
        : prog_(buildHeisenbugDemo()), dir_(prog_.symbol("directory")),
          s_(prog_, options(GetParam()))
    {
    }

    Response
    run(const Request &req)
    {
        Response res = s_.handle(req);
        EXPECT_FALSE(s_.detached()) << res.error;
        return res;
    }

    /** Stop on the next hit of a watch. */
    void
    contToHit()
    {
        Response res = run(verb(RequestKind::Cont));
        ASSERT_TRUE(res.ok()) << res.error;
        ASSERT_EQ(res.stop.reason, StopReason::Event) << res.stop;
    }

    void
    expectRebuildsAgree()
    {
        EXPECT_EQ(rebuildsDisagree(s_, prog_), "");
    }

    /** A rebuild by spec addition keeps the position and the state. */
    void
    expectAdditionKeepsPosition(Addr addr)
    {
        EXPECT_EQ(additionKeepsPosition(s_, dir_,
                                        WatchSpec::scalar("new", addr, 8)),
                  "");
    }

    Program prog_;
    Addr dir_;
    DebugSession s_;
};

// (a) Resurrection after a post-attach mute: the image must record the
// muted spec the live machinery still installs.
TEST_P(SpecEditRow, A_ResurrectAfterPostAttachMute)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    contToHit();
    EXPECT_TRUE(run(removeWatch(0)).ok());
    Response end = run(verb(RequestKind::Cont));
    EXPECT_EQ(end.stop.reason, StopReason::Halted) << end.stop;
    expectRebuildsAgree();
}

// (b) Replay-verify after a post-attach mute: replicas install the
// live record, the muted spec included.
TEST_P(SpecEditRow, B_ReplayVerifyAfterPostAttachMute)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    run(setWatch(WatchSpec::scalar("d1", dir_ + 8, 8)));
    contToHit();
    contToHit();
    EXPECT_TRUE(run(removeWatch(1)).ok());
    run(verb(RequestKind::Stepi, 2000));
    IntervalReplay::Report rep = s_.verifyReplay(2);
    EXPECT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.finalDigest, s_.digest());
}

// (c) The parked-on spec muted before a spec is added: its owner stays
// installed so the rebuild can re-find the park.
TEST_P(SpecEditRow, C_ParkOwnerMutedBeforeAddition)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    contToHit();
    contToHit();
    EXPECT_TRUE(run(removeWatch(0)).ok());
    expectAdditionKeepsPosition(dir_ + 16);
    EXPECT_FALSE(s_.detached());
    expectRebuildsAgree();
}

// (d) A poke at a watch stop, then a spec addition: on backends that
// stop on an instruction boundary the poke and the park share one
// instruction, and the replay must not run past the park.
TEST_P(SpecEditRow, D_PokeAtWatchStopThenAddition)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    contToHit();
    EXPECT_TRUE(run(poke(dir_ + 24, 0x34)).ok());
    expectAdditionKeepsPosition(dir_ + 16);
    EXPECT_EQ(s_.readMemory(dir_ + 24, 1)[0], 0x34);
    expectRebuildsAgree();
}

// Satellite: two watches fire on one µop and the later one is muted
// after attach; the earlier one's hits still stop cont.
TEST_P(SpecEditRow, CoincidentLaterMarkMuted)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    run(setWatch(WatchSpec::scalar("d0lo", dir_, 4)));
    contToHit();
    EXPECT_TRUE(run(removeWatch(1)).ok());
    Response next = run(verb(RequestKind::Cont));
    ASSERT_EQ(next.stop.reason, StopReason::Event) << next.stop;
    Response back = run(verb(RequestKind::ReverseContinue));
    EXPECT_EQ(back.stop.reason, StopReason::Event) << back.stop;
    expectRebuildsAgree();
}

// Satellite: a forward goal that lands on a position where a poke is
// stamped applies it, as a replay goal does.
TEST_P(SpecEditRow, ForwardLandingAppliesStampedPoke)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    run(verb(RequestKind::Stepi, 1200));
    EXPECT_TRUE(run(poke(dir_ + 24, 0x34)).ok());
    run(verb(RequestKind::ReverseStep, 50));
    run(verb(RequestKind::Stepi, 50));
    EXPECT_EQ(s_.readMemory(dir_ + 24, 1)[0], 0x34);
    expectRebuildsAgree();
}

// Satellite: the same at the halt.
TEST_P(SpecEditRow, PokeAtHaltSurvivesReverseAndReturn)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    run(verb(RequestKind::RunToEnd));
    EXPECT_TRUE(run(poke(dir_ + 24, 0x34)).ok());
    run(verb(RequestKind::ReverseStep, 20));
    Response end = run(verb(RequestKind::RunToEnd));
    EXPECT_EQ(end.stop.reason, StopReason::Halted) << end.stop;
    EXPECT_EQ(s_.readMemory(dir_ + 24, 1)[0], 0x34);
    expectRebuildsAgree();
}

// Satellite: a poke after attach but before the first resume is part
// of the initial state the backend primes its shadows from.
TEST_P(SpecEditRow, PokeAfterAttachBeforeResume)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    EXPECT_TRUE(run(verb(RequestKind::Attach)).ok());
    EXPECT_TRUE(run(poke(dir_, 0x1234)).ok());
    s_.events().clear();
    contToHit();
    bool saw = false;
    for (const SessionEvent &ev : s_.events().drain())
        if (ev.kind == SessionEventKind::Watch && !saw) {
            EXPECT_EQ(ev.oldValue, 0x1234u);
            saw = true;
        }
    EXPECT_TRUE(saw);
    expectRebuildsAgree();
}

// A debugger write is never a watch event: a poke of the watched cell
// refreshes the watch, so every backend stops at the program's next
// store to it and reports the poked value as the old one, live, after
// travelling back across the poke and forward again, and on every
// rebuild.
TEST_P(SpecEditRow, PokeOfWatchedCellIsNeverAHit)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    contToHit();
    run(verb(RequestKind::Stepi, 1));
    EXPECT_TRUE(run(poke(dir_, 0x777)).ok());
    // DISE, VM and hardware stop right after the store; binary
    // rewriting counts its inline checks as instructions; single-step
    // detects at the statement boundary after the store.
    uint64_t want = 711;
    if (GetParam() == BackendKind::Rewrite)
        want = 1049;
    else if (GetParam() == BackendKind::SingleStep)
        want = 712;
    auto expectHit = [&](const char *when) {
        s_.events().clear();
        Response res = run(verb(RequestKind::Cont));
        ASSERT_EQ(res.stop.reason, StopReason::Event) << when << res.stop;
        EXPECT_EQ(res.stop.appInsts, want) << when;
        int hits = 0;
        for (const SessionEvent &ev : s_.events().drain()) {
            if (ev.kind != SessionEventKind::Watch)
                continue;
            ++hits;
            EXPECT_EQ(ev.oldValue, 0x777u) << when;
            EXPECT_NE(ev.newValue, 0x777u) << when;
        }
        EXPECT_EQ(hits, 1) << when;
    };
    expectHit("live: ");
    Response back = run(verb(RequestKind::ReverseContinue));
    EXPECT_EQ(back.stop.reason, StopReason::Event) << back.stop;
    EXPECT_LT(back.stop.appInsts, want);
    expectHit("after reverse-continue: ");
    expectRebuildsAgree();
}

// Single-stepping detects at statement boundaries, so a poke can land
// between a program store and its report. A partial poke of an
// indirect watch's target takes only the poked byte: the program's
// store to the other bytes is still reported at the boundary.
TEST(SpecEditSingleStep, PartialPokeOfIndirectTargetKeepsPendingStore)
{
    Program prog = buildHeisenbugDemo();
    Addr dir = prog.symbol("directory");
    DebugSession s(prog, options(BackendKind::SingleStep));
    // directory[5] is never written: make it a pointer to directory[0].
    Addr ptr = dir + 40;
    ASSERT_TRUE(s.handle(poke(ptr, dir)).ok());
    ASSERT_TRUE(
        s.handle(setWatch(WatchSpec::indirect("*p", ptr, 8))).ok());
    Response res = s.handle(verb(RequestKind::Cont));
    ASSERT_EQ(res.stop.reason, StopReason::Event) << res.stop;
    uint64_t before = quadAt(s, dir);
    // The program's next store to directory[0] retires at 711; its
    // statement ends at 712.
    s.handle(verb(RequestKind::Stepi, 711 - res.stop.appInsts));
    ASSERT_EQ(s.stats().appInsts, 711u);
    uint64_t stored = quadAt(s, dir);
    ASSERT_NE(stored, before);
    ASSERT_TRUE(s.handle(poke(dir + 1, 0x5a, 1)).ok());
    auto withPoke = [](uint64_t v) {
        return (v & ~uint64_t{0xff00}) | uint64_t{0x5a00};
    };
    s.events().clear();
    res = s.handle(verb(RequestKind::Cont));
    ASSERT_EQ(res.stop.reason, StopReason::Event) << res.stop;
    EXPECT_EQ(res.stop.appInsts, 712u);
    int hits = 0;
    for (const SessionEvent &ev : s.events().drain()) {
        if (ev.kind != SessionEventKind::Watch)
            continue;
        ++hits;
        EXPECT_EQ(ev.oldValue, withPoke(before));
        EXPECT_EQ(ev.newValue, withPoke(stored));
    }
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(rebuildsDisagree(s, prog), "");
}

// Satellite: binary rewriting retires its inline checks as application
// instructions, so past time zero an addition is refused, typed, and
// the session stays attached where it was.
TEST_P(SpecEditRow, AdditionAfterRunningKeepsPositionOrRefuses)
{
    run(setWatch(WatchSpec::scalar("d0", dir_, 8)));
    run(verb(RequestKind::Stepi, 3000));
    expectAdditionKeepsPosition(dir_ + 8);
    EXPECT_FALSE(s_.detached());
    expectRebuildsAgree();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SpecEditRow, ::testing::ValuesIn(AllBackends),
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
