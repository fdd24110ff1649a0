/**
 * @file
 * Golden stop transcript for every long session verb.
 *
 * A fixed script runs on all five backends and renders every stop
 * (StopInfo::describe()), the state digest, the timeline's event count
 * and every queued SessionEvent into one text transcript, compared
 * byte for byte against tests/golden/ops.txt. The script covers the
 * one-shot verbs, the coincident-event program (two watches on one
 * cell, either one muted after running), run-to-event to known and
 * undiscovered events, a poke at a watch stop, a post-attach rebuild
 * (refused on binary rewriting past time zero), a mute restart, a tool
 * enable, export + resurrection, and every sliceable verb driven in
 * quanta of 1 and 7 instructions. It pins which eventIndex each verb
 * reports when several marks share a µop.
 *
 * On a mismatch the rendered transcript is written next to the test
 * binary as ops.actual.txt for diffing.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <regex>
#include <sstream>

#include "session/debug_session.hh"
#include "workloads/workload.hh"

#ifndef DISE_GOLDEN_FILE
#error "DISE_GOLDEN_FILE must name tests/golden/ops.txt"
#endif

namespace dise {
namespace {

constexpr BackendKind AllBackends[] = {
    BackendKind::Dise, BackendKind::SingleStep,
    BackendKind::VirtualMemory, BackendKind::HardwareReg,
    BackendKind::Rewrite};

SessionOptions
goldenOptions(BackendKind kind)
{
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 500;
    return o;
}

class Transcript
{
  public:
    void
    line(const std::string &s)
    {
        os_ << s << "\n";
    }

    /** One verb's outcome plus everything it queued. */
    void
    stop(const std::string &label, const StopInfo &s, DebugSession &d)
    {
        os_ << label << ": " << s.describe();
        state(d);
    }

    void
    value(const std::string &label, int64_t v, DebugSession &d)
    {
        os_ << label << ": " << v;
        state(d);
    }

    std::string str() const { return os_.str(); }

  private:
    void
    state(DebugSession &d)
    {
        if (d.attached())
            os_ << " | digest=" << std::hex << d.digest() << std::dec;
        os_ << " events=" << d.eventCount() << "\n";
        for (const SessionEvent &ev : d.events().drain())
            os_ << "  " << encodeEvent(ev) << "\n";
    }

    std::ostringstream os_;
};

/** An error message without the assertion's source location (which
 *  moves whenever the code does). */
std::string
normalized(const std::string &msg)
{
    static const std::regex where("assertion '.*?' failed at \\S+:[0-9]+: ");
    return std::regex_replace(msg, where, "assertion failed: ");
}

Request
verb(RequestKind kind, uint64_t count = 0)
{
    Request r;
    r.kind = kind;
    r.count = count;
    return r;
}

// ------------------------------------------------------- verb drivers
// The only part of the script that touches the session's execution
// API. Slice counts follow the job scheduler: an op's start (a
// restore, a machinery commit, a re-attach) is its own slice.

/** Run a resume verb to completion in one call. */
StopInfo
runVerb(DebugSession &d, const Request &req)
{
    switch (req.kind) {
      case RequestKind::Cont: return d.cont();
      case RequestKind::Stepi: return d.stepi(req.count);
      case RequestKind::RunToEnd: return d.runToEnd();
      case RequestKind::ReverseContinue: return d.reverseContinue();
      case RequestKind::ReverseStep: return d.reverseStep(req.count);
      default: return d.runToEvent(req.count);
    }
}

/** Run an op in quanta of @p q instructions (0 = to completion). */
template <typename What>
Response
slicedOp(DebugSession &d, const What &what, uint64_t q, unsigned &slices)
{
    slices = 1; // an op that completes outright is one slice
    if (!d.begin(what)) {
        slices = 0;
        do {
            ++slices;
        } while (!d.step(q));
    }
    return d.finish();
}

/** Run a resume verb in quanta of @p q instructions. */
StopInfo
slicedVerb(DebugSession &d, const Request &req, uint64_t q,
           unsigned &slices)
{
    return slicedOp(d, req, q, slices).stop;
}

/** A set-watch in quanta of @p q instructions (0 = one call). */
Response
slicedSpec(DebugSession &d, const Request &req, uint64_t q,
           unsigned &slices)
{
    return slicedOp(d, req, q, slices);
}

/** Resurrect the fresh session @p r from @p img in quanta of @p q. */
Response
resurrectInto(DebugSession &r, const persist::SessionImage &img,
              uint64_t q, unsigned &slices)
{
    return slicedOp(r, img, q, slices);
}

// ------------------------------------------------------------ scripts

void
heisenbugScript(BackendKind kind, Transcript &t)
{
    Program prog = buildHeisenbugDemo();
    Addr dir = prog.symbol("directory");
    DebugSession s(prog, goldenOptions(kind));
    t.value("set-watch directory",
            s.setWatch(WatchSpec::scalar("dir", dir, 8)), s);
    for (int i = 0; i < 3; ++i)
        t.stop("cont", s.cont(), s);
    t.stop("stepi 7", s.stepi(7), s);
    t.stop("reverse-continue", s.reverseContinue(), s);
    t.stop("reverse-continue", s.reverseContinue(), s);
    t.stop("reverse-step 40", s.reverseStep(40), s);
    t.stop("run-to-event 1", s.runToEvent(1), s);
    t.stop("run-to-event undiscovered",
           s.runToEvent(s.eventCount() + 1), s);
    t.stop("reverse-continue", s.reverseContinue(), s);
    StopInfo hit = s.cont();
    t.stop("cont", hit, s);
    if (hit.reason == StopReason::Event) {
        t.value("poke at watch stop",
                s.writeMemory(dir + 48, 8, 0xdeadbeef), s);
        t.stop("cont after poke", s.cont(), s);
    }
    int idx = s.setWatch(WatchSpec::scalar("dir+8", dir + 8, 8));
    t.value("set-watch after running", idx, s);
    if (idx < 0)
        t.line("  refusal: " + s.lastRefusal());
    t.value("remove-watch 0", s.removeWatch(0), s);
    t.stop("reverse-continue muted", s.reverseContinue(), s);
    std::string err;
    t.value("tool-enable memtrace", s.toolEnable("memtrace", {}, &err),
            s);
    if (!err.empty())
        t.line("  error: " + err);
    t.stop("run-to-end", s.runToEnd(), s);

    persist::SessionImage img;
    err.clear();
    bool exported = s.exportImage(img, &err);
    t.value("export", exported, s);
    if (!exported) {
        t.line("  error: " + err);
        return;
    }
    DebugSession r(prog, goldenOptions(kind));
    unsigned n = 0;
    Response res = resurrectInto(r, img, 0, n);
    t.value("resurrect", res.ok(), r);
    if (!res.ok())
        t.line("  error: " + normalized(res.error));
    else
        t.stop("resurrected reverse-continue", r.reverseContinue(), r);
}

void
coincidentScript(BackendKind kind, int muted, Transcript &t)
{
    // Two watchpoints on one cell fire at the same µop: which index a
    // verb reports is part of its contract, and a stop stands while any
    // of its marks is unmuted.
    Program prog = buildHeisenbugDemo();
    Addr dir = prog.symbol("directory");
    for (uint64_t q : {0, 1, 7}) {
        DebugSession s(prog, goldenOptions(kind));
        t.line("coincident " + std::string(muted ? "mute 1 " : "") +
               "quantum " + std::to_string(q));
        t.value("set-watch d0", s.setWatch(WatchSpec::scalar("d0", dir, 8)),
                s);
        t.value("set-watch d0b",
                s.setWatch(WatchSpec::scalar("d0b", dir, 4)), s);
        unsigned n = 0;
        auto run = [&](const char *label, const Request &req) {
            StopInfo st = q ? slicedVerb(s, req, q, n) : runVerb(s, req);
            t.stop(label, st, s);
        };
        run("cont", verb(RequestKind::Cont));
        run("cont", verb(RequestKind::Cont));
        run("run-to-end", verb(RequestKind::RunToEnd));
        run("reverse-continue", verb(RequestKind::ReverseContinue));
        run("reverse-continue", verb(RequestKind::ReverseContinue));
        run("cont explored", verb(RequestKind::Cont));
        run("reverse-continue", verb(RequestKind::ReverseContinue));
        t.value("remove-watch " + std::to_string(muted),
                s.removeWatch(muted), s);
        run("cont explored muted", verb(RequestKind::Cont));
        run("reverse-continue muted", verb(RequestKind::ReverseContinue));
    }
}

void
slicedScript(BackendKind kind, uint64_t q, Transcript &t)
{
    Program prog = buildHeisenbugDemo();
    Addr dir = prog.symbol("directory");
    DebugSession s(prog, goldenOptions(kind));
    t.line("sliced quantum " + std::to_string(q));
    t.value("set-watch", s.setWatch(WatchSpec::scalar("dir", dir, 8)), s);
    unsigned n = 0;
    StopInfo st = slicedVerb(s, verb(RequestKind::Cont), q, n);
    t.stop("cont slices=" + std::to_string(n), st, s);
    st = slicedVerb(s, verb(RequestKind::Stepi, 23), q, n);
    t.stop("stepi 23 slices=" + std::to_string(n), st, s);
    st = slicedVerb(s, verb(RequestKind::Cont), q, n);
    t.stop("cont slices=" + std::to_string(n), st, s);
    st = slicedVerb(s, verb(RequestKind::RunToEnd), q, n);
    t.stop("run-to-end slices=" + std::to_string(n), st, s);
    st = slicedVerb(s, verb(RequestKind::ReverseContinue), q, n);
    t.stop("reverse-continue slices=" + std::to_string(n), st, s);
    st = slicedVerb(s, verb(RequestKind::ReverseStep, 40), q, n);
    t.stop("reverse-step 40 slices=" + std::to_string(n), st, s);
    st = slicedVerb(s, verb(RequestKind::RunToEvent, 0), q, n);
    t.stop("run-to-event 0 slices=" + std::to_string(n), st, s);

    Request add;
    add.kind = RequestKind::SetWatch;
    add.watch = WatchSpec::scalar("dir+8", dir + 8, 8);
    Response res = slicedSpec(s, add, q, n);
    t.value("set-watch rebuild slices=" + std::to_string(n),
            res.ok() ? res.index : -1, s);
    if (!res.ok())
        t.line("  refusal: " + normalized(res.error));
    st = slicedVerb(s, verb(RequestKind::Cont), q, n);
    t.stop("cont slices=" + std::to_string(n), st, s);

    persist::SessionImage img;
    std::string err;
    bool exported = s.exportImage(img, &err);
    t.value("export", exported, s);
    if (!exported) {
        t.line("  error: " + err);
        return;
    }
    DebugSession r(prog, goldenOptions(kind));
    res = resurrectInto(r, img, q, n);
    t.value("resurrect slices=" + std::to_string(n), res.ok(), r);
    if (!res.ok())
        t.line("  error: " + normalized(res.error));
}

std::string
renderAll()
{
    Transcript t;
    for (BackendKind kind : AllBackends) {
        t.line(std::string("=== ") + backendName(kind));
        // A script that throws (a replay divergence surfacing as an
        // assertion) is pinned up to and including the failure.
        auto guarded = [&](const std::function<void()> &script) {
            try {
                script();
            } catch (const std::exception &e) {
                t.line("exception: " + normalized(e.what()));
            }
        };
        guarded([&] { heisenbugScript(kind, t); });
        guarded([&] { coincidentScript(kind, 0, t); });
        guarded([&] { coincidentScript(kind, 1, t); });
        guarded([&] { slicedScript(kind, 1, t); });
        guarded([&] { slicedScript(kind, 7, t); });
    }
    return t.str();
}

TEST(OpGolden, TranscriptMatchesGoldenFile)
{
    std::string got = renderAll();
    std::ifstream in(DISE_GOLDEN_FILE, std::ios::binary);
    std::stringstream want;
    want << in.rdbuf();
    if (got != want.str()) {
        std::ofstream("ops.actual.txt", std::ios::binary) << got;
        FAIL() << "transcript differs from " << DISE_GOLDEN_FILE
               << " (rendered output written to ops.actual.txt)";
    }
}

} // namespace
} // namespace dise
