/**
 * @file
 * Trace-JIT / interpreter parity harness.
 *
 * The determinism contract (jit/trace.hh) says record mode is
 * bit-identical with the trace cache on or off: same stop positions,
 * same µop timestamps, same state digests, same tool state, same
 * interval-replay verification. This harness drives one eventful
 * session script — forward runs, slices, steps, reverse travel, a
 * mid-run tool enable, and a full replay-verify — under every backend
 * three times: cache off, cache on, and cache flipped between verbs.
 * Any divergence in the recorded stop log is a failure.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "cpu/loader.hh"
#include "jit/trace_cache.hh"
#include "session/debug_session.hh"

namespace dise {
namespace {

using namespace reg;

/**
 * A register-only inner loop, hot enough to get traced, under an outer
 * loop that stores to "mark" once per lap — long JIT-friendly
 * stretches punctuated by watch hits.
 */
Program
hotLoopProgram()
{
    Assembler a;
    a.data(layout::DataBase);
    a.label("mark");
    a.quad(0);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "mark");
    a.lda(t1, 0, zero);
    a.lda(t3, 0, zero);
    a.label("outer");
    a.stmt(1);
    a.lda(t2, 0, zero);
    a.label("inner");
    a.addq(t3, t2, t3);
    a.addq(t2, 1, t2);
    a.cmplt(t2, 60, t4);
    a.bne(t4, "inner");
    a.label("the_store");
    a.stq(t3, 0, s0);
    a.addq(t1, 1, t1);
    a.cmplt(t1, 6, t4);
    a.bne(t4, "outer");
    a.syscall(SysExit);
    return a.finish("main");
}

enum class JitMode { Off, On, Flip };

/**
 * Run the fixed verb script and record every observable: stop reason,
 * position (µop time, app insts, pc), event identity, and the session
 * digest after each verb; then the tool-state digest and the
 * interval-replay verification. Returns the log for cross-mode diff.
 */
std::vector<std::string>
runScenario(BackendKind kind, JitMode mode, uint64_t *tracedUops)
{
    Program prog = hotLoopProgram();
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 64;
    DebugSession session(prog, o);
    EXPECT_GE(session.setWatch(
                  WatchSpec::scalar("mark", prog.symbol("mark"), 8)),
              0);
    EXPECT_TRUE(session.attach()) << backendName(kind);
    auto jitCfg = [&]() -> TraceJitConfig & {
        return session.target().jit()->config();
    };
    if (mode == JitMode::Off)
        jitCfg().enabled = false;
    auto flip = [&]() {
        if (mode == JitMode::Flip)
            jitCfg().enabled = !jitCfg().enabled;
    };

    std::vector<std::string> log;
    auto rec = [&](const char *verb, const StopInfo &s) {
        std::ostringstream os;
        os << verb << " reason=" << static_cast<int>(s.reason)
           << " time=" << s.time << " insts=" << s.appInsts
           << " pc=" << std::hex << s.pc << " markpc=" << s.mark.pc
           << std::dec << " events=" << session.eventCount()
           << " digest=" << std::hex << session.digest();
        log.push_back(os.str());
    };

    // One bounded slice of a cont: its stop, or the interim position.
    auto contSlice = [&](uint64_t n) {
        Request req;
        req.kind = RequestKind::Cont;
        bool done = session.begin(req) || session.step(n);
        return done ? session.finish().stop : session.currentStop();
    };

    rec("cont1", session.cont());
    flip();
    rec("stepi", session.stepi(7));
    flip();
    rec("cont2", session.cont());
    flip();
    rec("rstep", session.reverseStep(40));
    flip();
    rec("slice", contSlice(123));
    flip();
    rec("cont3", session.cont());
    flip();
    std::string err;
    EXPECT_TRUE(session.toolEnable("coverage", {}, &err)) << err;
    rec("cont4", session.cont());
    flip();
    rec("end", session.runToEnd());
    flip();
    rec("rcont", session.reverseContinue());

    std::string report;
    uint64_t toolDigest = 0;
    EXPECT_TRUE(session.toolReport("coverage", &report, &toolDigest,
                                   &err))
        << err;
    {
        std::ostringstream os;
        os << "tool digest=" << std::hex << toolDigest;
        log.push_back(os.str());
    }

    IntervalReplay::Report vr = session.verifyReplay(2);
    EXPECT_TRUE(vr.ok) << backendName(kind) << ": " << vr.error;
    {
        std::ostringstream os;
        os << "verify final=" << std::hex << vr.finalDigest
           << " live=" << vr.liveDigest << " digest=" << session.digest()
           << std::dec << " marks=" << vr.marksVerified;
        log.push_back(os.str());
    }

    if (tracedUops)
        *tracedUops = session.target().jit()->stats().tracedUops;
    return log;
}

class JitParity : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(JitParity, TraceOnOffAndFlipConverge)
{
    BackendKind kind = GetParam();
    uint64_t traced = 0;
    std::vector<std::string> off = runScenario(kind, JitMode::Off,
                                               nullptr);
    std::vector<std::string> on = runScenario(kind, JitMode::On,
                                              &traced);
    std::vector<std::string> flip = runScenario(kind, JitMode::Flip,
                                                nullptr);
    ASSERT_EQ(off.size(), on.size());
    ASSERT_EQ(off.size(), flip.size());
    for (size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i], on[i])
            << backendName(kind) << " diverged (trace on) at step " << i;
        EXPECT_EQ(off[i], flip[i])
            << backendName(kind) << " diverged (flip) at step " << i;
    }
    // The on-leg must actually have exercised the trace cache, or the
    // parity above proves nothing.
    EXPECT_GT(traced, 0u) << backendName(kind);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, JitParity,
                         ::testing::Values(BackendKind::Dise,
                                           BackendKind::SingleStep,
                                           BackendKind::VirtualMemory,
                                           BackendKind::HardwareReg,
                                           BackendKind::Rewrite));

} // namespace
} // namespace dise
