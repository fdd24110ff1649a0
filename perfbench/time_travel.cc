/**
 * @file
 * Workload `time-travel`: one typed-wire client records a
 * WARM1-watched mcf session to the end (part of set-up), then cycles
 * through reading history back: `run-to-event` at a seed-drawn event,
 * four `reverse-continue`s and two seed-sized `reverse-step`s (each
 * stop inspected with `read-registers`/`read-memory`), `run-to-event`
 * a quarter of the way into history, `session-hibernate` then
 * `session-select` (which resurrects the session from the store),
 * `stats`, and `replay-verify count=<hardware threads>`. The only
 * workload that exercises interval replay, the store and the
 * rebuild-from-log path.
 *
 * Correctness: every stop, register file and memory read matches an
 * in-process reference running the same script; the replay-verify
 * digest after each resurrection equals the reference's digest at that
 * position, and the resurrected position equals the position before
 * hibernation.
 */

#include <filesystem>
#include <thread>

#include "bench.hh"
#include "ledger.hh"

namespace perfbench {

using namespace dise;

namespace {

constexpr unsigned ReverseContinues = 4;
constexpr unsigned ReverseSteps = 2;

/** One scripted request plus its verb class (nullptr: untimed). */
struct Step
{
    Request req;
    const char *cls;
};

uint64_t
stopValue(const StopInfo &st)
{
    return hashWords({static_cast<uint64_t>(st.reason), st.pc, st.time,
                      st.appInsts,
                      static_cast<uint64_t>(st.eventIndex + 1)});
}

/** The requests of cycle @p c over a timeline of @p events events. */
std::vector<Step>
cycleScript(const Workload &w, uint64_t seed, uint64_t c, size_t events,
            uint64_t session)
{
    std::vector<Step> v;
    auto inspect = [&](bool mem) {
        Step s{Request(), "wire.inspect"};
        s.req.kind = RequestKind::ReadRegisters;
        v.push_back(s);
        if (mem) {
            s.req.kind = RequestKind::ReadMemory;
            s.req.addr = w.warm1Addr;
            s.req.size = 8;
            v.push_back(s);
        }
    };
    Step s{Request(), "wire.seek"};
    s.req.kind = RequestKind::RunToEvent;
    s.req.count = draw(seed, 50, c) % std::max<size_t>(events, 1);
    v.push_back(s);
    inspect(true);
    for (unsigned k = 0; k < ReverseContinues; ++k) {
        Step r{Request(), "wire.reverse"};
        r.req.kind = RequestKind::ReverseContinue;
        v.push_back(r);
        inspect(true);
    }
    for (unsigned k = 0; k < ReverseSteps; ++k) {
        Step r{Request(), "wire.reverse"};
        r.req.kind = RequestKind::ReverseStep;
        r.req.count = 1 + draw(seed, 51 + k, c) % 256;
        v.push_back(r);
        inspect(false);
    }
    // Hibernate from a fixed quarter of history, so every resurrection
    // replays the same distance and stays smaller than the recording
    // (which keeps the block's peak RSS steady).
    Step mid{Request(), "wire.seek"};
    mid.req.kind = RequestKind::RunToEvent;
    mid.req.count = events / 4;
    v.push_back(mid);
    Step h{Request(), "wire.hibernate"};
    h.req.kind = RequestKind::SessionHibernate;
    h.req.session = session;
    v.push_back(h);
    Step sel{Request(), "wire.resurrect"};
    sel.req.kind = RequestKind::SessionSelect;
    sel.req.session = session;
    v.push_back(sel);
    Step st{Request(), "wire.inspect"};
    st.req.kind = RequestKind::Stats;
    v.push_back(st);
    Step rv{Request(), "wire.verify"};
    rv.req.kind = RequestKind::ReplayVerify;
    rv.req.count = std::max(1u, std::thread::hardware_concurrency());
    v.push_back(rv);
    return v;
}

/** What a response contributes to the log (0: nothing to compare). */
uint64_t
logValue(const Response &r)
{
    switch (r.inReplyTo) {
      case RequestKind::RunToEvent:
      case RequestKind::ReverseContinue:
      case RequestKind::ReverseStep:
        return stopValue(r.stop);
      case RequestKind::ReadRegisters:
        return hashWords(r.regs);
      case RequestKind::ReadMemory:
        return hashBytes(r.bytes);
      case RequestKind::Stats:
        // Position only: a resurrected session may know a shorter
        // timeline than the reference.
        return hashWords({r.stats.time, r.stats.appInsts});
      case RequestKind::ReplayVerify:
        return r.value;
      default:
        return 0;
    }
}

/** Set-up requests: watch, attach, record to the end, count events. */
std::vector<Request>
recordScript(const Workload &w)
{
    std::vector<Request> v(4);
    v[0].kind = RequestKind::SetWatch;
    v[0].watch = w.watch(WatchSel::WARM1);
    v[1].kind = RequestKind::Attach;
    v[2].kind = RequestKind::RunToEnd;
    v[3].kind = RequestKind::Stats;
    return v;
}

} // namespace

PassResult
runTimeTravel(const Options &opts, bool traced, unsigned blocks)
{
    namespace fs = std::filesystem;
    PassResult out;
    Workload w = buildBenchWorkload("mcf", opts.seed);
    const std::string store = opts.scratch + "/store";
    std::unique_ptr<ServerHost> host;
    WireClient c;
    c.codec.timed = traced;
    Clock::time_point start;
    size_t events = 0;
    // record_mips: instructions recorded by the set-up recordings and
    // by every resurrection (a replay from time zero that re-takes the
    // checkpoints), over the wall time of those verbs.
    double recInsts = 0, recUs = 0;

    auto call = [&](const Request &req, Response &resp, const char *cls,
                    bool timed) {
        return wireVerb(c, out, timed ? cls : nullptr, req, resp, start);
    };

    // ---- blocks of set-up plus measured loop
    std::vector<std::vector<uint64_t>> logs; // per cycle, across blocks
    uint64_t steals = 0;
    uint64_t cyc = 0;
    for (unsigned blk = 0; blk < blocks; ++blk) {
        // Set-up: server start until the session is attached with its
        // watch armed and has recorded its whole history.
        std::error_code ec;
        fs::remove_all(store, ec);
        fs::create_directories(store, ec);
        resetPeakRss();
        Clock::time_point t0 = Clock::now();
        host = std::make_unique<ServerHost>("mcf", opts.seed, store);
        Response resp;
        Request create;
        create.kind = RequestKind::SessionCreate;
        create.name = "mcf";
        create.backend = BackendKind::Dise;
        bool ok = host->port && c.connectTo(host->port) &&
                  call(create, resp, nullptr, false);
        uint64_t session = resp.value;
        for (const Request &req : recordScript(w)) {
            if (!ok)
                break;
            Clock::time_point r0 = Clock::now();
            ok = call(req, resp, nullptr, false);
            if (ok && req.kind == RequestKind::RunToEnd) {
                recInsts += static_cast<double>(resp.stop.appInsts);
                recUs += usBetween(r0, Clock::now());
            }
        }
        events = resp.stats.events;
        out.setupS.push_back(usBetween(t0, Clock::now()) / 1e6);
        if (!ok || !events) {
            out.fail("set-up failed");
            return out;
        }

        start = Clock::now();
        if (traced && !traceStart(*host->srv, start, out))
            out.fail("trace-start failed");
        Clock::time_point deadline = start + blockLength(opts, blocks);
        double selectUs = 0;
        for (; ok && Clock::now() < deadline; ++cyc) {
            logs.emplace_back();
            for (const Step &s :
                 cycleScript(w, opts.seed, cyc, events, session)) {
                Clock::time_point v0 = Clock::now();
                ok = call(s.req, resp, s.cls, true);
                if (!ok)
                    break;
                logs.back().push_back(logValue(resp));
                // The stats after a resurrection give its position.
                if (s.req.kind == RequestKind::SessionSelect) {
                    selectUs = usBetween(v0, Clock::now());
                } else if (s.req.kind == RequestKind::Stats) {
                    recInsts += static_cast<double>(resp.stats.appInsts);
                    recUs += selectUs;
                }
                if (s.req.kind == RequestKind::ReplayVerify)
                    steals +=
                        static_cast<uint64_t>(std::max(resp.index, 0));
            }
        }
        out.peakRssMb.push_back(peakRssMb());
        if (traced)
            traceCollect(*host->srv, out);
        c.close();
        host.reset();
    }
    out.recordMips = recInsts / recUs;
    out.layer["replay.steals"] = static_cast<double>(steals);
    out.wire = c.codec;
    std::error_code ec;
    fs::remove_all(opts.scratch, ec);

    // ---- reference: record in process, then the same cycles.
    DebugSession ref(w.program, referenceSessionOptions());
    uint64_t recorded = 0;
    for (const Request &req : recordScript(w)) {
        Response r = ref.handle(req);
        if (!r.ok())
            out.fail("reference set-up refused");
        if (req.kind == RequestKind::RunToEnd)
            recorded = r.stop.appInsts;
    }
    InprocTimer tm(out, traced);
    uint64_t stops = 0;
    for (size_t cyc = 0; cyc < logs.size(); ++cyc) {
        std::vector<Step> script =
            cycleScript(w, opts.seed, cyc, events, 0);
        for (size_t k = 0; k < logs[cyc].size() && k < script.size(); ++k) {
            const Request &req = script[k].req;
            uint64_t want = 0;
            switch (req.kind) {
              case RequestKind::SessionHibernate:
              case RequestKind::SessionSelect:
                continue; // the reference never leaves memory
              case RequestKind::ReplayVerify:
                want = ref.digest();
                break;
              default: {
                const char *cls =
                    req.kind == RequestKind::RunToEvent ? "seek"
                    : req.kind == RequestKind::ReverseContinue ||
                            req.kind == RequestKind::ReverseStep
                        ? "reverse"
                        : "inspect";
                Response r = tm.time(cls, [&] { return ref.handle(req); });
                want = logValue(r);
                if (r.hasStop && r.stop.reason == StopReason::Event)
                    ++stops;
                break;
              }
            }
            if (logs[cyc][k] != want)
                out.fail("cycle " + std::to_string(cyc) + " " +
                         requestKindName(req.kind) +
                         " differs from reference");
        }
    }
    if (traced) {
        referenceCounters(ref, recorded, stops, out);
        IntervalReplay::Report rep = ref.verifyReplay(
            std::max(1u, std::thread::hardware_concurrency()));
        out.layer["replay.ireplay_uops"] =
            static_cast<double>(rep.uopsReplayed);
    }
    return out;
}

} // namespace perfbench
