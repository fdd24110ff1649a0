/**
 * @file
 * Workload `step-inspect`: three clients, each debugging its own bzip2
 * session with a HOT watch, concurrently. Two RSP clients loop `s`
 * (one to three times), `g`, `m` and `c` to the next HOT hit; one
 * typed-wire client with the memtrace tool enabled loops `stepi`,
 * `read-registers`, `read-memory`, `stats` and `tool-report`. Every
 * verb is a few microseconds of simulation, so the time goes to the
 * codecs, connection threads, scheduler handoff and session dispatch.
 *
 * Script choices are pure functions of (seed, client, iteration), so
 * every episode of a client runs the same script and the reference
 * replays it in process once.
 */

#include <thread>

#include "bench.hh"
#include "ledger.hh"

namespace perfbench {

using namespace dise;

namespace {

constexpr unsigned RspClients = 2;
/** Logged value standing for "the program exited". */
constexpr uint64_t HaltedMark = ~uint64_t(0);

/** A seed-drawn read inside the watched structure or the HOT cell. */
void
readChoice(const Workload &w, uint64_t r, Addr &addr, unsigned &len)
{
    len = 8u << ((r >> 4) % 3);
    if ((r & 1) || w.rangeLen < 64) {
        addr = w.hotAddr;
        return;
    }
    addr = w.rangeBase + ((r >> 8) % (w.rangeLen - 32)) / 8 * 8;
}

/** One client's episodes: the values its script observed, in order. */
using Log = std::vector<std::vector<uint64_t>>;

uint64_t
stopValue(const StopInfo &st)
{
    if (st.reason == StopReason::Halted)
        return HaltedMark;
    return hashWords({static_cast<uint64_t>(st.reason), st.pc, st.time,
                      st.appInsts});
}

/** The wire client's k-th request of iteration i (5 per iteration). */
Request
wireRequest(const Workload &w, uint64_t seed, uint64_t i, unsigned k)
{
    Request req;
    switch (k) {
      case 0:
        req.kind = RequestKind::Stepi;
        req.count = 1 + draw(seed, 30, i) % 8;
        break;
      case 1:
        req.kind = RequestKind::ReadRegisters;
        break;
      case 2: {
        req.kind = RequestKind::ReadMemory;
        Addr a = 0;
        unsigned len = 0;
        readChoice(w, draw(seed, 31, i), a, len);
        req.addr = a;
        req.size = len;
        break;
      }
      case 3:
        req.kind = RequestKind::Stats;
        break;
      default:
        req.kind = RequestKind::ToolReport;
        req.name = "memtrace";
        break;
    }
    return req;
}

/** What a wire response contributes to the log. */
uint64_t
wireValue(const Response &r)
{
    switch (r.inReplyTo) {
      case RequestKind::Stepi:
        return stopValue(r.stop);
      case RequestKind::ReadRegisters:
        return hashWords(r.regs);
      case RequestKind::ReadMemory:
        return hashBytes(r.bytes);
      case RequestKind::Stats:
        return hashWords({r.stats.time, r.stats.appInsts, r.stats.events,
                          r.stats.checkpoints, r.stats.pagesCopied});
      default:
        return r.value; // tool-report: the tool's state digest
    }
}

/** The wire client's set-up requests: create, watch, attach, tool. */
std::vector<Request>
wireSetup(const Workload &w)
{
    std::vector<Request> v(4);
    v[0].kind = RequestKind::SessionCreate;
    v[0].name = "bzip2";
    v[0].backend = BackendKind::Dise;
    v[1].kind = RequestKind::SetWatch;
    v[1].watch = w.watch(WatchSel::HOT);
    v[2].kind = RequestKind::Attach;
    v[3].kind = RequestKind::ToolEnable;
    v[3].name = "memtrace";
    v[3].toolConfig = {{"suppress", "1"}};
    return v;
}

/** Compare every logged episode against the reference stream. */
void
compareLog(const Log &log, const std::vector<uint64_t> &ref,
           const std::string &who, PassResult &out)
{
    for (size_t e = 0; e < log.size(); ++e) {
        for (size_t k = 0; k < log[e].size(); ++k) {
            if (k >= ref.size() || log[e][k] != ref[k]) {
                out.fail(who + " episode " + std::to_string(e) +
                         " value " + std::to_string(k) +
                         " differs from reference");
                break;
            }
        }
    }
}

size_t
longest(const Log &log)
{
    size_t n = 0;
    for (const auto &ep : log)
        n = std::max(n, ep.size());
    return n;
}

} // namespace

PassResult
runStepInspect(const Options &opts, bool traced, unsigned blocks)
{
    PassResult out;
    Workload w = buildBenchWorkload("bzip2", opts.seed);
    const std::string zPkt = "Z2," + hexNum(w.hotAddr) + ",8";
    std::unique_ptr<ServerHost> host;
    Clock::time_point start;

    struct RspState
    {
        RspClient c;
        Log log;
        /** Per episode: began in a block's set-up. */
        std::vector<bool> fromSetup;
        PassResult res;
        uint64_t iter = 0; ///< iteration within the current episode
    };
    struct WireState
    {
        WireClient c;
        Log log;
        PassResult res;
        uint64_t iter = 0;
    };
    std::vector<std::unique_ptr<RspState>> rsps;
    WireState wire;

    auto verb = [&](RspState &s, const char *cls, const std::string &pkt,
                    std::string &reply, bool timed) {
        return rspVerb(s.c, s.res, timed ? cls : nullptr, pkt, reply, start);
    };
    // Log a stop reply's pc (or the exit); false when the program exited.
    auto rspStop = [](RspState &s, const std::string &reply) {
        if (reply == "W00") {
            s.log.back().push_back(HaltedMark);
            return false;
        }
        uint64_t pc = 0;
        if (!parseStopPc(reply, pc))
            s.res.fail("unexpected stop reply '" + reply + "'");
        s.log.back().push_back(pc);
        return true;
    };
    auto rspStart = [&](RspState &s, bool timed) {
        std::string reply;
        s.log.emplace_back();
        s.iter = 0;
        if (!s.c.connectTo(host->port)) {
            s.res.check(false, "connect");
            return false;
        }
        return verb(s, "rsp.inspect", "qSupported:hwbreak+", reply, false) &&
               verb(s, "rsp.inspect", "?", reply, false) &&
               verb(s, "rsp.inspect", zPkt, reply, timed) &&
               verb(s, "rsp.cont", "c", reply, timed) &&
               rspStop(s, reply);
    };
    auto wireCall = [&](const Request &req, Response &resp, const char *cls,
                        bool timed) {
        return wireVerb(wire.c, wire.res, timed ? cls : nullptr, req, resp,
                        start);
    };
    auto wireStart = [&](bool timed) {
        wire.log.emplace_back();
        wire.iter = 0;
        Response resp;
        for (const Request &req : wireSetup(w))
            if (!wireCall(req, resp, timed ? "wire.inspect" : nullptr,
                          timed))
                return false;
        return true;
    };

    for (unsigned j = 0; j < RspClients; ++j) {
        rsps.push_back(std::make_unique<RspState>());
        rsps.back()->c.codec.timed = traced;
    }
    wire.c.codec.timed = traced;

    // The three closed-loop clients, run concurrently until deadline.
    auto rspLoop = [&](unsigned j, Clock::time_point deadline) {
        RspState &s = *rsps[j];
        std::string reply;
        bool live = true;
        while (Clock::now() < deadline) {
            if (!live) {
                verb(s, "rsp.inspect", "D", reply, false);
                if (!rspStart(s, true))
                    return;
                live = true;
                continue;
            }
            uint64_t i = s.iter++;
            unsigned steps = 1 + draw(opts.seed, 10 + j, i) % 3;
            for (unsigned k = 0; live && k < steps; ++k) {
                if (!verb(s, "rsp.step", "s", reply, true))
                    return;
                live = rspStop(s, reply);
            }
            if (!live)
                continue;
            if (!verb(s, "rsp.inspect", "g", reply, true))
                return;
            s.log.back().push_back(hashWords(parseRegisters(reply)));
            Addr a = 0;
            unsigned len = 0;
            readChoice(w, draw(opts.seed, 20 + j, i), a, len);
            std::vector<uint8_t> bytes;
            if (!verb(s, "rsp.inspect",
                         "m" + hexNum(a) + "," + hexNum(len), reply, true))
                return;
            rsp::fromHex(reply, bytes);
            s.log.back().push_back(hashBytes(bytes));
            if (!verb(s, "rsp.cont", "c", reply, true))
                return;
            live = rspStop(s, reply);
        }
    };
    auto wireLoop = [&](Clock::time_point deadline) {
        Response resp;
        while (Clock::now() < deadline) {
            uint64_t i = wire.iter++;
            bool halted = false;
            for (unsigned k = 0; k < 5; ++k) {
                Request req = wireRequest(w, opts.seed, i, k);
                const char *cls = k == 0 ? "wire.step" : "wire.inspect";
                if (!wireCall(req, resp, cls, true))
                    return;
                uint64_t v = wireValue(resp);
                wire.log.back().push_back(v);
                if (k == 0 && v == HaltedMark) {
                    halted = true;
                    break;
                }
            }
            if (halted) {
                Request d;
                d.kind = RequestKind::Detach;
                if (!wireCall(d, resp, nullptr, false) || !wireStart(true))
                    return;
            }
        }
    };

    // ---- blocks of set-up plus measured loop
    double loopS = 0;
    for (unsigned blk = 0; blk < blocks; ++blk) {
        // Set-up: server start until all three sessions are attached
        // with their watches armed (and memtrace enabled).
        resetPeakRss();
        Clock::time_point t0 = Clock::now();
        host = std::make_unique<ServerHost>("bzip2", opts.seed);
        bool ok = host->port != 0;
        for (unsigned j = 0; ok && j < RspClients; ++j) {
            ok = rspStart(*rsps[j], false);
            rsps[j]->fromSetup.resize(rsps[j]->log.size());
            rsps[j]->fromSetup.back() = true;
        }
        ok = ok && wire.c.connectTo(host->port) && wireStart(false);
        out.setupS.push_back(usBetween(t0, Clock::now()) / 1e6);
        if (!ok) {
            out.fail("set-up failed");
            break;
        }

        start = Clock::now();
        if (traced && !traceStart(*host->srv, start, out))
            out.fail("trace-start failed");
        Clock::time_point deadline = start + blockLength(opts, blocks);
        std::vector<std::thread> threads;
        for (unsigned j = 0; j < RspClients; ++j)
            threads.emplace_back(rspLoop, j, deadline);
        threads.emplace_back(wireLoop, deadline);
        for (std::thread &t : threads)
            t.join();
        loopS += usBetween(start, Clock::now()) / 1e6;
        out.peakRssMb.push_back(peakRssMb());
        if (traced)
            traceCollect(*host->srv, out);
        for (auto &s : rsps) {
            std::string reply;
            s->c.exchange("D", reply);
            s->c.close();
        }
        wire.c.close();
        host.reset();
    }
    for (auto &s : rsps) {
        out.rsp.packets += s->c.codec.packets;
        out.rsp.bytes += s->c.codec.bytes;
        out.rsp.codecUs += s->c.codec.codecUs;
        out.merge(s->res);
    }
    out.wire = wire.c.codec;
    out.merge(wire.res);
    if (out.setupS.size() < blocks)
        return out;

    // ---- references: each client's script in process.
    InprocTimer tm(out, traced);
    uint64_t insts = 0;
    for (unsigned j = 0; j < RspClients; ++j) {
        const Log &log = rsps[j]->log;
        size_t need = longest(log);
        DebugSession ref(w.program, referenceSessionOptions());
        WatchSpec spec =
            WatchSpec::scalar("rsp@" + hexNum(w.hotAddr), w.hotAddr, 8);
        ref.setWatch(spec);
        std::vector<uint64_t> vals;
        std::vector<uint64_t> instsAt; // position after each value
        auto stop = [&](const StopInfo &st) {
            vals.push_back(st.reason == StopReason::Halted ? HaltedMark
                                                           : st.pc);
            instsAt.push_back(st.appInsts);
            return st.reason != StopReason::Halted;
        };
        bool live = stop(tm.time("cont", [&] { return ref.cont(); }));
        uint64_t stops = 0;
        for (uint64_t i = 0; live && vals.size() < need; ++i) {
            unsigned steps = 1 + draw(opts.seed, 10 + j, i) % 3;
            for (unsigned k = 0; live && k < steps; ++k)
                live = stop(
                    tm.time("step", [&] { return ref.stepi(1); }));
            if (!live)
                break;
            vals.push_back(hashWords(
                tm.time("inspect", [&] { return ref.readRegisters(); })));
            instsAt.push_back(instsAt.back());
            Addr a = 0;
            unsigned len = 0;
            readChoice(w, draw(opts.seed, 20 + j, i), a, len);
            vals.push_back(hashBytes(tm.time(
                "inspect", [&] { return ref.readMemory(a, len); })));
            instsAt.push_back(instsAt.back());
            live = stop(tm.time("cont", [&] { return ref.cont(); }));
            ++stops;
        }
        compareLog(log, vals, "rsp client " + std::to_string(j), out);
        const std::vector<bool> &fromSetup = rsps[j]->fromSetup;
        for (size_t e = 0; e < log.size(); ++e) {
            size_t n = std::min(log[e].size(), instsAt.size());
            bool setupStop = e < fromSetup.size() && fromSetup[e];
            uint64_t from = setupStop && !instsAt.empty() ? instsAt[0] : 0;
            if (n && instsAt[n - 1] > from)
                insts += instsAt[n - 1] - from;
        }
        if (traced)
            referenceCounters(ref, instsAt.empty() ? 0 : instsAt.back(),
                              stops, out);
    }
    {
        size_t need = longest(wire.log);
        DebugSession ref(w.program, referenceSessionOptions());
        for (const Request &req : wireSetup(w))
            if (req.kind != RequestKind::SessionCreate &&
                !ref.handle(req).ok())
                out.fail("reference wire set-up refused");
        std::vector<uint64_t> vals;
        std::vector<uint64_t> instsAt; // position after each value
        uint64_t pos = 0;
        bool live = true;
        for (uint64_t i = 0; live && vals.size() < need; ++i) {
            for (unsigned k = 0; k < 5; ++k) {
                Request req = wireRequest(w, opts.seed, i, k);
                Response r = tm.time(k == 0 ? "step" : "inspect",
                                     [&] { return ref.handle(req); });
                vals.push_back(wireValue(r));
                if (k == 0) {
                    pos = r.stop.appInsts;
                    live = r.stop.reason != StopReason::Halted;
                }
                instsAt.push_back(pos);
                if (!live)
                    break;
            }
        }
        compareLog(wire.log, vals, "wire client", out);
        for (const auto &ep : wire.log)
            if (!ep.empty() && !instsAt.empty())
                insts += instsAt[std::min(ep.size(), instsAt.size()) - 1];
        if (traced)
            referenceCounters(ref, pos, 0, out);
    }
    out.recordMips = insts / loopS / 1e6;
    return out;
}

} // namespace perfbench
