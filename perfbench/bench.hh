/**
 * @file
 * Shared pieces of the end-to-end debugging-loop benchmark: run
 * options, latency samples, the two loopback clients (RSP and typed
 * wire), the in-process server host, and the result record every
 * workload fills.
 *
 * The benchmark hosts a server::DebugServer in its own process, with
 * the options tools/rsp_server.cc ships, and drives it over 127.0.0.1
 * the way gdb (RSP) or a typed-wire client does. Every client is a
 * closed loop: it sends its next verb only after the previous reply.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rsp/packet.hh"
#include "server/server.hh"
#include "session/protocol.hh"
#include "workloads/workload.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Microseconds between two steady-clock readings. */
double usBetween(Clock::time_point a, Clock::time_point b);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory for the time-travel session store. */
    std::string scratch = ".bench_build/perfbench-scratch";
};

/** Application scale of each workload (recorded in the run identity). */
constexpr unsigned McfScale = 1;
constexpr unsigned Bzip2Scale = 1;
/**
 * Blocks per untraced run. Each block starts a fresh server (new
 * connection and worker threads, so a new thread placement), sets up
 * (timed: setup_s is the median over blocks) and then measures for
 * seconds / Blocks; latency samples pool across blocks and peak RSS is
 * the median of the blocks' peaks.
 */
constexpr unsigned Blocks = 10;

/** Draw #@p i of stream @p stream under @p seed (a splitmix64 hash):
 *  a pure function, so a reference replay redraws the same script
 *  choice. */
uint64_t draw(uint64_t seed, uint64_t stream, uint64_t i);

/** FNV-1a over 64-bit words / bytes (register files, memory reads). */
uint64_t hashWords(const std::vector<uint64_t> &v);
uint64_t hashBytes(const std::vector<uint8_t> &v);

/** Latency samples of one verb class, in microseconds. */
class Samples
{
  public:
    void
    add(double us)
    {
        v_.push_back(us);
        sorted_ = false;
    }
    void
    append(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
        sorted_ = false;
    }
    size_t count() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    double sum() const;
    /** Nearest-rank quantile, q in [0, 1]. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    /** The tail the end-to-end metrics report: p90 once at least ten
     *  samples lie beyond it, else p50. Every workload takes hundreds
     *  of samples per class, so this is p90; p99 and p99.9 moved
     *  15-100% between identical runs on a shared 4-core box, and are
     *  only printed in the report. */
    double tailQuantile() const;
    double tail() const { return quantile(tailQuantile()); }

  private:
    mutable std::vector<double> v_;
    mutable bool sorted_ = false;
};

/** Client-side codec timing, collected only in the traced pass. */
struct CodecCounters
{
    bool timed = false;
    uint64_t packets = 0; ///< requests sent (RSP packets or wire lines)
    uint64_t bytes = 0;   ///< bytes sent and received
    double codecUs = 0;   ///< time inside the protocol codec
};

/**
 * A gdb-style RSP client built on rsp/packet.hh's codec. TCP_NODELAY
 * is set, as gdb's ser-tcp.c does: without it the `+` ack followed by
 * the next packet meets Nagle plus delayed ACK (tens of ms per
 * exchange). Each exchange sends one packet, waits for the `+` and the
 * reply packet, then acks the reply.
 */
class RspClient
{
  public:
    RspClient() = default;
    ~RspClient();
    RspClient(const RspClient &) = delete;
    RspClient &operator=(const RspClient &) = delete;

    bool connectTo(uint16_t port);
    /** One packet out, one reply payload back. False on transport
     *  failure or timeout. */
    bool exchange(const std::string &payload, std::string &reply);
    void close();

    CodecCounters codec;

  private:
    int fd_ = -1;
    dise::rsp::PacketDecoder dec_;
};

/** A blocking typed-wire client: one request line out, one response
 *  line back, on the session/protocol.hh codec. */
class WireClient
{
  public:
    WireClient() = default;
    ~WireClient();
    WireClient(const WireClient &) = delete;
    WireClient &operator=(const WireClient &) = delete;

    bool connectTo(uint16_t port);
    /** False only on transport failure; check resp.ok() as well. */
    bool call(dise::Request req, dise::Response &resp);
    void close();

    CodecCounters codec;

  private:
    int fd_ = -1;
    uint64_t seq_ = 1;
    std::string buf_;
};

struct PassResult;

/** @name Timed client verbs
 * One exchange, counted in @p out (an `E..` reply or an error response
 * counts as failed) and, when @p cls is set, timed into that class
 * relative to @p loopStart. Clients with codec timing on are traced. */
///@{
bool rspVerb(RspClient &c, PassResult &out, const char *cls,
             const std::string &pkt, std::string &reply,
             Clock::time_point loopStart);
bool wireVerb(WireClient &c, PassResult &out, const char *cls,
              const dise::Request &req, dise::Response &resp,
              Clock::time_point loopStart);
///@}

/** @name RSP reply parsing */
///@{
/** The pc (register 0x20) of a `T05` stop reply. */
bool parseStopPc(const std::string &reply, uint64_t &pc);
/** A `g` reply's register values. */
std::vector<uint64_t> parseRegisters(const std::string &reply);
/** Lower-case hex without a prefix, as RSP addresses are written. */
std::string hexNum(uint64_t v);
///@}

/** The in-process server, with rsp_server's shipped options. */
struct ServerHost
{
    /** @p rspWorkload is what RSP connections debug; @p storeDir is
     *  empty for no store. */
    ServerHost(const std::string &rspWorkload, uint64_t seed,
               const std::string &storeDir = "");
    ~ServerHost();

    static dise::server::DebugServerOptions
    options(const std::string &rspWorkload, const std::string &storeDir);

    std::unique_ptr<dise::server::DebugServer> srv;
    uint16_t port = 0;
};

/** Build a workload at the benchmark's scale from @p seed. */
dise::Workload buildBenchWorkload(const std::string &name, uint64_t seed);

/** Session options every in-process reference session uses (the
 *  server's session template). */
dise::SessionOptions referenceSessionOptions();

/** Start a new peak-RSS window (called before each block's set-up). */
void resetPeakRss();
/** Peak resident set of this process since resetPeakRss(), in MB. */
double peakRssMb();

/** A span the benchmark records around one client verb. */
struct Span
{
    std::string cls;  ///< verb class, e.g. "rsp.cont"
    double startUs;   ///< relative to the measured loop's start
    double durUs;     ///< client round trip
    double codecUs;   ///< of which client-side codec time
};

/** What one measured pass of a workload produced. */
struct PassResult
{
    /** Client round trips per verb class, "<protocol>.<class>" with
     *  class one of cont, step, inspect, reverse, seek, verify,
     *  hibernate, resurrect. */
    std::map<std::string, Samples> lat;
    /** Wall time of each block's set-up. */
    std::vector<double> setupS;
    double recordMips = 0;
    /** Peak RSS of each block. */
    std::vector<double> peakRssMb;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    /** @name Traced pass only */
    ///@{
    /** In-process DebugSession call times of the reference replay, by
     *  class (cont, step, inspect, reverse, seek). */
    std::map<std::string, Samples> inproc;
    CodecCounters rsp;
    CodecCounters wire;
    /** Layer counters and span totals, by metric name. */
    std::map<std::string, double> layer;
    std::vector<Span> spans;
    /** Chrome trace JSON of the server's flight recorder. */
    std::string serverTrace;
    /** µs from the measured loop's start to the tracer being armed. */
    double armUs = 0;
    /** The seven histograms when the tracer was armed (deltas are
     *  taken against this). */
    std::vector<dise::HistogramSnapshot> histBefore;
    ///@}

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
    /** Count one attempted verb; a false @p ok counts it failed. */
    void
    check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok)
            fail(why);
    }
    /** Fold another client's samples, spans and counts into this. */
    void merge(const PassResult &o);
    /** Record one timed client verb of class @p cls that ran from
     *  @p t0 to @p t1 (and, when traced, its span). */
    void
    sample(const std::string &cls, Clock::time_point loopStart,
           Clock::time_point t0, Clock::time_point t1, double codecUs,
           bool traced)
    {
        double us = usBetween(t0, t1);
        lat[cls].add(us);
        if (traced)
            spans.push_back({cls, usBetween(loopStart, t0), us, codecUs});
    }
};

/** One workload: @p blocks blocks of set-up plus closed-loop load,
 *  opts.seconds of load in all. With @p traced (one block), the
 *  flight recorder is armed and per-layer numbers are gathered. */
using WorkloadFn = PassResult (*)(const Options &opts, bool traced,
                                  unsigned blocks);

PassResult runGdbRecord(const Options &opts, bool traced, unsigned blocks);
PassResult runStepInspect(const Options &opts, bool traced,
                          unsigned blocks);
PassResult runTimeTravel(const Options &opts, bool traced, unsigned blocks);

/** Microseconds of load per block. */
inline std::chrono::microseconds
blockLength(const Options &opts, unsigned blocks)
{
    return std::chrono::microseconds(
        static_cast<int64_t>(opts.seconds * 1e6 / blocks));
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
