/**
 * @file
 * Debug-tool subsystem tests (src/tools/): seeded-bug findings on the
 * tool-demo workload, the five-backend parity battery (bit-identical
 * tool digests everywhere), the hostile-input decode table for the
 * tool wire verbs, tool enable/disable as replayed interventions
 * (reverse travel unwinds, forward re-travel re-derives), and the
 * ToolFinding events on the ordered session queue.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "debug/backend.hh"
#include "session/debug_session.hh"
#include "tools/toolset.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

const BackendKind kAllBackends[] = {
    BackendKind::Dise,          BackendKind::SingleStep,
    BackendKind::VirtualMemory, BackendKind::HardwareReg,
    BackendKind::Rewrite,
};

SessionOptions
sessionOptions(BackendKind kind = BackendKind::Dise)
{
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 512;
    return o;
}

const char *kAllTools[] = {"asan", "leakcheck", "coverage", "memtrace",
                           "addrleak"};

/** Count findings of one kind emitted by one tool. */
size_t
countFindings(const std::vector<tools::ToolFinding> &fs,
              const std::string &tool, const std::string &kind)
{
    size_t n = 0;
    for (const tools::ToolFinding &f : fs)
        if (f.tool == tool && f.kind == kind)
            ++n;
    return n;
}

// ------------------------------------------------- seeded-bug findings

TEST(ToolDemo, AllFiveToolsFindTheirSeededBugs)
{
    DebugSession session(buildToolDemo(), sessionOptions());
    std::string err;
    for (const char *t : kAllTools)
        ASSERT_TRUE(session.toolEnable(t, {}, &err)) << t << ": " << err;

    StopInfo stop = session.runToEnd();
    EXPECT_EQ(stop.reason, StopReason::Halted);

    const tools::ToolSet &ts = session.debugger().backend().tools();
    const std::vector<tools::ToolFinding> &fs = ts.findings();

    // asan: the redzone store, the freed-block load, the bogus free.
    EXPECT_EQ(countFindings(fs, "asan", "heap-oob"), 1u);
    EXPECT_EQ(countFindings(fs, "asan", "use-after-free"), 1u);
    EXPECT_EQ(countFindings(fs, "asan", "invalid-free"), 1u);
    // leakcheck: exactly block C leaks; the bogus free is flagged.
    EXPECT_EQ(countFindings(fs, "leakcheck", "leak"), 1u);
    EXPECT_EQ(countFindings(fs, "leakcheck", "bad-free"), 1u);
    // addrleak: C's address reaches the first put, the benign 42
    // does not.
    EXPECT_EQ(countFindings(fs, "addrleak", "addr-leak"), 1u);

    // The oob finding names the seeded store.
    Program demo = buildToolDemo();
    for (const tools::ToolFinding &f : fs)
        if (f.tool == "asan" && f.kind == "heap-oob") {
            EXPECT_EQ(f.pc, demo.symbol("oob_store"));
        }

    // Coverage saw the loops; memtrace's suppression actually elided
    // redundant same-granule work from the hammer loop.
    std::map<std::string, tools::ToolStatsRow> rows;
    for (const tools::ToolStatsRow &r : ts.statsRows())
        rows[r.name] = r;
    EXPECT_GT(rows["coverage"].checks, 60u); // >= hammer iterations
    EXPECT_GT(rows["memtrace"].suppressed, 50u);
    EXPECT_GT(rows["memtrace"].checks, rows["memtrace"].suppressed);
    EXPECT_GT(rows["asan"].checks, 0u);
    for (const char *t : kAllTools)
        EXPECT_GT(rows[t].uopsSeen, 0u) << t;

    // Reports render and digests are live.
    for (const char *t : kAllTools) {
        std::string out;
        uint64_t digest = 0;
        ASSERT_TRUE(session.toolReport(t, &out, &digest, &err))
            << t << ": " << err;
        EXPECT_FALSE(out.empty()) << t;
        EXPECT_NE(digest, 0u) << t;
    }
}

TEST(ToolDemo, FindingsLandOnTheEventQueue)
{
    DebugSession session(buildToolDemo(), sessionOptions());
    std::string err;
    ASSERT_TRUE(session.toolEnable("asan", {}, &err)) << err;
    ASSERT_TRUE(session.toolEnable("leakcheck", {}, &err)) << err;
    session.runToEnd();

    size_t toolEvents = 0;
    bool sawOob = false;
    for (const SessionEvent &ev : session.events().drain()) {
        if (ev.kind != SessionEventKind::ToolFinding)
            continue;
        ++toolEvents;
        EXPECT_FALSE(ev.tool.empty());
        EXPECT_FALSE(ev.detail.empty());
        if (ev.tool == "asan" &&
            ev.detail.rfind("heap-oob", 0) == 0)
            sawOob = true;
    }
    const tools::ToolSet &ts = session.debugger().backend().tools();
    EXPECT_EQ(toolEvents, ts.findings().size());
    EXPECT_TRUE(sawOob);
}

TEST(ToolDemo, AsanRedzoneConfigIsHonored)
{
    // A 8-byte redzone still catches the +32 store (first granule past
    // the block is poisoned); a tiny redzone on a *distant* store is
    // the config contract worth testing — so instead verify the knob
    // round-trips into the report.
    DebugSession session(buildToolDemo(), sessionOptions());
    std::string err;
    ASSERT_TRUE(session.toolEnable("asan", {{"redzone", "64"}}, &err))
        << err;
    session.runToEnd();
    std::string out;
    uint64_t digest = 0;
    ASSERT_TRUE(session.toolReport("asan", &out, &digest, &err)) << err;
    EXPECT_NE(out.find("redzone=64B"), std::string::npos) << out;
}

// ------------------------------------------------ five-backend parity

TEST(ToolParity, IdenticalFindingsAndDigestsOnAllFiveBackends)
{
    // The battery: every tool enabled on every backend over the same
    // workload must produce bit-identical serialized tool state.
    std::map<std::string, uint64_t> reference;
    std::vector<tools::ToolFinding> refFindings;
    bool first = true;
    for (BackendKind kind : kAllBackends) {
        DebugSession session(buildToolDemo(), sessionOptions(kind));
        std::string err;
        for (const char *t : kAllTools)
            ASSERT_TRUE(session.toolEnable(t, {}, &err))
                << backendName(kind) << "/" << t << ": " << err;
        StopInfo stop = session.runToEnd();
        EXPECT_EQ(stop.reason, StopReason::Halted) << backendName(kind);

        const tools::ToolSet &ts = session.debugger().backend().tools();
        if (first) {
            refFindings = ts.findings();
            EXPECT_FALSE(refFindings.empty());
            for (const char *t : kAllTools)
                reference[t] = ts.digest(t);
            first = false;
            continue;
        }
        for (const char *t : kAllTools)
            EXPECT_EQ(ts.digest(t), reference[t])
                << backendName(kind) << "/" << t;
        const std::vector<tools::ToolFinding> &fs = ts.findings();
        ASSERT_EQ(fs.size(), refFindings.size()) << backendName(kind);
        for (size_t i = 0; i < fs.size(); ++i) {
            EXPECT_EQ(fs[i].tool, refFindings[i].tool);
            EXPECT_EQ(fs[i].kind, refFindings[i].kind);
            EXPECT_EQ(fs[i].pc, refFindings[i].pc);
            EXPECT_EQ(fs[i].addr, refFindings[i].addr);
            EXPECT_EQ(fs[i].detail, refFindings[i].detail);
        }
    }
}

// ------------------------------------------- wire verbs: hostile input

TEST(ToolWire, HostileInputDecodeTable)
{
    DebugSession session(buildToolDemo(), sessionOptions());

    struct Case
    {
        const char *line;     ///< raw wire line
        bool ok;              ///< expected response status
        const char *needle;   ///< substring the error must carry
    };
    const Case table[] = {
        // Decode-level rejections.
        {"tool-enable", false, "needs name="},
        {"tool-disable", false, "needs name="},
        {"tool-report", false, "needs name="},
        {"tool-enable name=", false, "needs name="},
        {"tool-enable name=asan cfg.=1", false, "configuration key"},
        // A bad escape in the key survives as a literal and is then
        // rejected as an unknown config key.
        {"tool-enable name=asan cfg.red%zz=1", false, "red%zz"},
        {"tool-enable name=asan redzone", false, ""},
        // Semantic rejections.
        {"tool-enable name=nosuchtool", false, "unknown tool"},
        {"tool-enable name=asan cfg.redzone=0", false, "redzone"},
        {"tool-enable name=asan cfg.redzone=banana", false, "redzone"},
        {"tool-enable name=asan cfg.bogus=1", false, "bogus"},
        {"tool-enable name=memtrace cfg.suppress=2", false, "suppress"},
        {"tool-disable name=asan", false, "not enabled"},
        {"tool-report name=asan", false, "not enabled"},
        {"tool-report name=nosuchtool", false, "unknown tool"},
        // The happy path, for contrast.
        {"tool-list", true, ""},
        {"tool-enable name=asan cfg.redzone=16", true, ""},
        {"tool-enable name=asan", false, "already enabled"},
        {"tool-report name=asan", true, ""},
        {"tool-disable name=asan", true, ""},
        {"tool-disable name=asan", false, "not enabled"},
    };
    for (const Case &c : table) {
        Response resp;
        std::string err;
        ASSERT_TRUE(decodeResponse(session.handleEncoded(c.line), resp,
                                   &err))
            << c.line << ": " << err;
        EXPECT_EQ(resp.status == ResponseStatus::Ok, c.ok)
            << c.line << " -> " << resp.error;
        if (!c.ok && c.needle[0]) {
            EXPECT_NE(resp.error.find(c.needle), std::string::npos)
                << c.line << " -> " << resp.error;
        }
    }
}

TEST(ToolWire, EnableRunReportOverTheWire)
{
    DebugSession session(buildToolDemo(), sessionOptions());
    Response resp;
    ASSERT_TRUE(decodeResponse(
        session.handleEncoded("tool-enable name=memtrace "
                              "cfg.suppress=1"),
        resp));
    ASSERT_EQ(resp.status, ResponseStatus::Ok);

    ASSERT_TRUE(
        decodeResponse(session.handleEncoded("run-to-end"), resp));
    ASSERT_EQ(resp.status, ResponseStatus::Ok);

    ASSERT_TRUE(decodeResponse(
        session.handleEncoded("tool-report name=memtrace"), resp));
    ASSERT_EQ(resp.status, ResponseStatus::Ok);
    EXPECT_NE(resp.text.find("suppress=1"), std::string::npos)
        << resp.text;
    EXPECT_NE(resp.text.find("suppressed"), std::string::npos);

    // tool-list marks enabled tools.
    ASSERT_TRUE(decodeResponse(session.handleEncoded("tool-list"), resp));
    ASSERT_EQ(resp.status, ResponseStatus::Ok);
    EXPECT_NE(resp.text.find("memtrace*"), std::string::npos)
        << resp.text;
    EXPECT_NE(resp.text.find("asan"), std::string::npos);
}

// ------------------------------------ interventions: travel + replay

TEST(ToolTravel, ReverseUnwindsEnableAndForwardRearms)
{
    DebugSession session(buildToolDemo(), sessionOptions());
    // Advance a little, then enable asan mid-run: the enable is a
    // logged intervention at this stream position.
    session.stepi(40);
    std::string err;
    ASSERT_TRUE(session.toolEnable("asan", {}, &err)) << err;
    StopInfo stop = session.runToEnd();
    EXPECT_EQ(stop.reason, StopReason::Halted);

    const tools::ToolSet &ts = session.debugger().backend().tools();
    uint64_t endDigest = ts.digest("asan");
    size_t endFindings = ts.findings().size();
    EXPECT_NE(endDigest, 0u);
    EXPECT_GT(endFindings, 0u);
    uint64_t endState = session.digest();

    // Travel back before the enable point: the tool must be unwound.
    SessionStats st = session.stats();
    ASSERT_GT(st.appInsts, 50u);
    session.reverseStep(st.appInsts - 20);
    EXPECT_FALSE(ts.isEnabled("asan"));

    // Forward re-travel re-arms the tool at the recorded position and
    // re-derives bit-identical state.
    stop = session.runToEnd();
    EXPECT_EQ(stop.reason, StopReason::Halted);
    EXPECT_TRUE(ts.isEnabled("asan"));
    EXPECT_EQ(ts.digest("asan"), endDigest);
    EXPECT_EQ(ts.findings().size(), endFindings);
    EXPECT_EQ(session.digest(), endState);
}

TEST(ToolTravel, MidRunDisableIsReplayedToo)
{
    DebugSession session(buildToolDemo(), sessionOptions());
    std::string err;
    ASSERT_TRUE(session.toolEnable("coverage", {}, &err)) << err;
    session.stepi(60);
    ASSERT_TRUE(session.toolDisable("coverage", &err)) << err;
    session.stepi(40);
    ASSERT_TRUE(session.toolEnable("memtrace", {}, &err)) << err;
    StopInfo stop = session.runToEnd();
    EXPECT_EQ(stop.reason, StopReason::Halted);

    const tools::ToolSet &ts = session.debugger().backend().tools();
    EXPECT_FALSE(ts.isEnabled("coverage"));
    ASSERT_TRUE(ts.isEnabled("memtrace"));
    uint64_t endDigest = ts.digest("memtrace");
    uint64_t endState = session.digest();

    // Cross the whole intervention history backwards, then forwards.
    SessionStats st = session.stats();
    session.reverseStep(st.appInsts - 10);
    EXPECT_FALSE(ts.isEnabled("memtrace"));
    // Landed between enable(coverage)@0 and disable@60: coverage is
    // live again on the unwound timeline.
    EXPECT_TRUE(ts.isEnabled("coverage"));
    stop = session.runToEnd();
    EXPECT_EQ(stop.reason, StopReason::Halted);
    EXPECT_FALSE(ts.isEnabled("coverage"));
    EXPECT_EQ(ts.digest("memtrace"), endDigest);
    EXPECT_EQ(session.digest(), endState);
}

TEST(ToolTravel, IntervalReplayVerifiesWithToolsEnabled)
{
    // The interval-parallel reconstruction re-arms tools per interval
    // from the journal; its stitched digest must match the live one.
    DebugSession session(buildToolDemo(), sessionOptions());
    std::string err;
    ASSERT_TRUE(session.toolEnable("asan", {}, &err)) << err;
    session.stepi(100);
    ASSERT_TRUE(session.toolEnable("memtrace", {}, &err)) << err;
    StopInfo stop = session.runToEnd();
    EXPECT_EQ(stop.reason, StopReason::Halted);

    IntervalReplay::Report rep = session.verifyReplay(3);
    EXPECT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.finalDigest, session.digest());
}

TEST(ToolTravel, RefusedEnableLeavesTimelineIntact)
{
    // A refused enable (unknown tool / bad config) must not truncate
    // the redo timeline: reverse after the refusal still works.
    DebugSession session(buildToolDemo(), sessionOptions());
    session.stepi(50);
    std::string err;
    EXPECT_FALSE(session.toolEnable("nosuchtool", {}, &err));
    EXPECT_FALSE(
        session.toolEnable("asan", {{"redzone", "huge"}}, &err));
    uint64_t before = session.stats().appInsts;
    session.stepi(25);
    session.reverseStep(25);
    EXPECT_EQ(session.stats().appInsts, before);
}

} // namespace
} // namespace dise
