/**
 * @file
 * Workload `gdb-record`: one RSP client runs the loop gdb performs
 * around every continue on mcf with a WARM1 watch — `Z2` insert, `c`,
 * then at the stop `g`, `m`, `z2` remove. When the program exits the
 * client detaches and reconnects, which starts a fresh session (gdb's
 * `run` again). Forward recording with a watch armed is where the
 * interpreter, JIT, DISE and checkpoint copy-on-write layers do nearly
 * all the work.
 *
 * Correctness: every stop's pc, register file and memory read is
 * compared against an in-process DebugSession running the same script.
 */

#include "bench.hh"
#include "ledger.hh"

namespace perfbench {

using namespace dise;

namespace {

/** What the client saw at one watch stop. */
struct StopObs
{
    uint64_t pc = 0;
    uint64_t regs = 0;
    uint64_t mem = 0;
};

struct Episode
{
    std::vector<StopObs> stops;
    bool halted = false;
    /** Began in a block's set-up, so its first stop is not loop work. */
    bool fromSetup = false;
};

/** The `m` read at stop @p k: the watched cell (what gdb prints for
 *  the watch) or, half the time, a seed-drawn node of the network. */
void
readChoice(uint64_t seed, uint64_t k, Addr cell, Addr nodes, Addr &addr,
           unsigned &len)
{
    uint64_t r = draw(seed, 1, k);
    if (r & 1) {
        addr = cell;
        len = 8;
        return;
    }
    addr = nodes + ((r >> 8) % 65536) * 64;
    len = 8u << ((r >> 4) % 4);
}

} // namespace

PassResult
runGdbRecord(const Options &opts, bool traced, unsigned blocks)
{
    PassResult out;
    Workload w = buildBenchWorkload("mcf", opts.seed);
    const Addr cell = w.warm1Addr;
    const Addr nodes = w.program.symbol("nodes");
    const std::string zArgs = "2," + hexNum(cell) + ",8";

    std::vector<Episode> episodes;
    RspClient c;
    c.codec.timed = traced;
    std::unique_ptr<ServerHost> host;
    Clock::time_point start;

    auto verb = [&](const char *cls, const std::string &pkt,
                    std::string &reply, bool timed) {
        return rspVerb(c, out, timed ? cls : nullptr, pkt, reply, start);
    };
    // The stop reply of `c`: T05 with the pc in register 0x20, or W00.
    auto onStop = [&](const std::string &reply, Episode &ep) {
        if (reply == "W00") {
            ep.halted = true;
            return false;
        }
        StopObs s;
        if (!parseStopPc(reply, s.pc))
            out.fail("unexpected stop reply '" + reply + "'");
        ep.stops.push_back(s);
        return true;
    };
    // Connect, handshake, insert the watch and run to the first stop.
    auto startEpisode = [&](bool timed) {
        std::string reply;
        episodes.emplace_back();
        if (!c.connectTo(host->port)) {
            out.check(false, "connect");
            return false;
        }
        if (!verb("rsp.inspect", "qSupported:hwbreak+", reply, false) ||
            !verb("rsp.inspect", "?", reply, false) ||
            !verb("rsp.inspect", "Z" + zArgs, reply, timed) ||
            !verb("rsp.cont", "c", reply, timed))
            return false;
        return onStop(reply, episodes.back());
    };

    // ---- blocks of set-up plus measured loop
    double loopS = 0;
    for (unsigned blk = 0; blk < blocks; ++blk) {
        // Set-up: server start until the session is attached (the first
        // `c` installs the machinery) with its watch armed.
        resetPeakRss();
        Clock::time_point t0 = Clock::now();
        host = std::make_unique<ServerHost>("mcf", opts.seed);
        bool ok = host->port && startEpisode(false);
        out.setupS.push_back(usBetween(t0, Clock::now()) / 1e6);
        if (!ok) {
            out.fail("set-up failed");
            return out;
        }
        episodes.back().fromSetup = true;

        start = Clock::now();
        if (traced && !traceStart(*host->srv, start, out))
            out.fail("trace-start failed");
        Clock::time_point deadline = start + blockLength(opts, blocks);
        bool live = !episodes.back().halted;
        while (Clock::now() < deadline) {
            std::string reply;
            if (!live) {
                if (!startEpisode(true))
                    break;
                live = !episodes.back().halted;
                continue;
            }
            Episode &ep = episodes.back();
            uint64_t k = ep.stops.size() - 1;
            Addr addr = 0;
            unsigned len = 0;
            readChoice(opts.seed, k, cell, nodes, addr, len);
            std::vector<uint8_t> bytes;
            ok = verb("rsp.inspect", "g", reply, true);
            ep.stops.back().regs = hashWords(parseRegisters(reply));
            ok = ok && verb("rsp.inspect",
                            "m" + hexNum(addr) + "," + hexNum(len), reply,
                            true);
            if (ok && rsp::fromHex(reply, bytes))
                ep.stops.back().mem = hashBytes(bytes);
            ok = ok && verb("rsp.inspect", "z" + zArgs, reply, true) &&
                 verb("rsp.inspect", "Z" + zArgs, reply, true) &&
                 verb("rsp.cont", "c", reply, true);
            if (!ok)
                break;
            if (!onStop(reply, ep)) {
                verb("rsp.inspect", "D", reply, false);
                c.close();
                live = false;
            }
        }
        loopS += usBetween(start, Clock::now()) / 1e6;
        out.peakRssMb.push_back(peakRssMb());
        if (traced)
            traceCollect(*host->srv, out);
        std::string reply;
        c.exchange("D", reply);
        c.close();
        host.reset();
    }
    out.rsp = c.codec;

    // ---- reference: the same script in process, one episode (every
    // episode runs the identical script from a fresh session).
    DebugSession ref(w.program, referenceSessionOptions());
    WatchSpec spec = WatchSpec::scalar("rsp@" + hexNum(cell), cell, 8);
    InprocTimer tm(out, traced);
    int idx = tm.time("inspect", [&] { return ref.setWatch(spec); });
    std::vector<StopObs> refStops;
    std::vector<uint64_t> refInsts;
    uint64_t endInsts = 0;
    for (;;) {
        StopInfo st = tm.time("cont", [&] { return ref.cont(); });
        if (st.reason != StopReason::Event) {
            endInsts = st.appInsts;
            break;
        }
        StopObs s;
        s.pc = st.pc;
        Addr addr = 0;
        unsigned len = 0;
        readChoice(opts.seed, refStops.size(), cell, nodes, addr, len);
        s.regs = hashWords(
            tm.time("inspect", [&] { return ref.readRegisters(); }));
        s.mem = hashBytes(
            tm.time("inspect", [&] { return ref.readMemory(addr, len); }));
        tm.time("inspect", [&] { return ref.removeWatch(idx); });
        tm.time("inspect", [&] { return ref.setWatch(spec); });
        refStops.push_back(s);
        refInsts.push_back(st.appInsts);
    }
    if (traced)
        referenceCounters(ref, endInsts, refStops.size(), out);

    // Compare, and count the application instructions the loop retired.
    uint64_t insts = 0;
    for (size_t e = 0; e < episodes.size(); ++e) {
        const Episode &ep = episodes[e];
        for (size_t k = 0; k < ep.stops.size(); ++k) {
            const StopObs &s = ep.stops[k];
            bool last = k + 1 == ep.stops.size();
            if (k >= refStops.size()) {
                out.fail("more stops than the reference");
                break;
            }
            const StopObs &r = refStops[k];
            // The final stop of a cut-off episode was never inspected.
            bool inspected = !last || ep.halted;
            if (s.pc != r.pc ||
                (inspected && (s.regs != r.regs || s.mem != r.mem)))
                out.fail("episode " + std::to_string(e) + " stop " +
                         std::to_string(k) + " differs from reference");
        }
        if (ep.halted && ep.stops.size() != refStops.size())
            out.fail("episode ended after " +
                     std::to_string(ep.stops.size()) + " stops, reference " +
                     std::to_string(refStops.size()));
        uint64_t reached = ep.halted ? endInsts
                           : ep.stops.empty()
                               ? 0
                               : refInsts[std::min(ep.stops.size(),
                                                   refInsts.size()) -
                                          1];
        uint64_t from =
            ep.fromSetup && !refInsts.empty() ? refInsts[0] : 0;
        insts += reached > from ? reached - from : 0;
    }
    out.recordMips = insts / loopS / 1e6;
    return out;
}

} // namespace perfbench
