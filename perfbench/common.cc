#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hh"

namespace perfbench {

using namespace dise;

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

namespace {

/** splitmix64's finalizer. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
draw(uint64_t seed, uint64_t stream, uint64_t i)
{
    return mix64(mix64(mix64(seed) ^ stream) ^ i);
}

uint64_t
hashWords(const std::vector<uint64_t> &v)
{
    uint64_t h = 1469598103934665603ull;
    for (uint64_t w : v) {
        h ^= w;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
hashBytes(const std::vector<uint8_t> &v)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : v) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

// -------------------------------------------------------------- samples

double
Samples::sum() const
{
    double s = 0;
    for (double x : v_)
        s += x;
    return s;
}

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0;
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
    size_t rank = static_cast<size_t>(std::ceil(q * v_.size()));
    rank = std::clamp<size_t>(rank, 1, v_.size());
    return v_[rank - 1];
}

double
Samples::tailQuantile() const
{
    // Samples strictly beyond the nearest-rank p90 position.
    size_t rank = static_cast<size_t>(std::ceil(0.9 * v_.size()));
    return v_.size() >= rank + 10 ? 0.9 : 0.5;
}

void
PassResult::merge(const PassResult &o)
{
    for (const auto &[cls, s] : o.lat)
        lat[cls].append(s);
    for (const auto &[cls, s] : o.inproc)
        inproc[cls].append(s);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string &f : o.failures)
        if (failures.size() < 8)
            failures.push_back(f);
    for (const auto &[k, v] : o.layer)
        layer[k] += v;
}

// -------------------------------------------------------------- sockets

namespace {

int
connectLoopback(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
        0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A wedged server must fail the verb, not hang the run.
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

RspClient::~RspClient()
{
    close();
}

bool
RspClient::connectTo(uint16_t port)
{
    close();
    fd_ = connectLoopback(port);
    dec_ = rsp::PacketDecoder();
    return fd_ >= 0;
}

void
RspClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
RspClient::exchange(const std::string &payload, std::string &reply)
{
    if (fd_ < 0)
        return false;
    Clock::time_point c0 = codec.timed ? Clock::now() : Clock::time_point();
    std::string frame = rsp::frame(payload);
    if (codec.timed) {
        codec.codecUs += usBetween(c0, Clock::now());
        ++codec.packets;
        codec.bytes += frame.size();
    }
    if (!sendAll(fd_, frame))
        return false;
    char buf[4096];
    for (;;) {
        rsp::ItemKind kind;
        c0 = codec.timed ? Clock::now() : Clock::time_point();
        bool got = dec_.next(kind, reply);
        if (codec.timed)
            codec.codecUs += usBetween(c0, Clock::now());
        if (got) {
            if (kind == rsp::ItemKind::Packet)
                break;
            continue; // the '+' ack of our packet
        }
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0)
            return false;
        if (codec.timed) {
            codec.bytes += static_cast<uint64_t>(n);
            c0 = Clock::now();
        }
        dec_.feed(buf, static_cast<size_t>(n));
        if (codec.timed)
            codec.codecUs += usBetween(c0, Clock::now());
    }
    // Ack the reply, as gdb does in ack mode.
    return sendAll(fd_, "+");
}

WireClient::~WireClient()
{
    close();
}

bool
WireClient::connectTo(uint16_t port)
{
    close();
    fd_ = connectLoopback(port);
    buf_.clear();
    return fd_ >= 0;
}

void
WireClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
WireClient::call(Request req, Response &resp)
{
    if (fd_ < 0)
        return false;
    req.seq = seq_++;
    Clock::time_point c0 = codec.timed ? Clock::now() : Clock::time_point();
    std::string line = encodeRequest(req);
    line += '\n';
    if (codec.timed) {
        codec.codecUs += usBetween(c0, Clock::now());
        ++codec.packets;
        codec.bytes += line.size();
    }
    if (!sendAll(fd_, line))
        return false;
    size_t nl;
    char buf[65536];
    while ((nl = buf_.find('\n')) == std::string::npos) {
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0)
            return false;
        buf_.append(buf, static_cast<size_t>(n));
    }
    std::string reply = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    c0 = codec.timed ? Clock::now() : Clock::time_point();
    resp = Response();
    bool ok = decodeResponse(reply, resp);
    if (codec.timed) {
        codec.codecUs += usBetween(c0, Clock::now());
        codec.bytes += reply.size() + 1;
    }
    return ok && resp.seq == req.seq;
}

bool
rspVerb(RspClient &c, PassResult &out, const char *cls,
        const std::string &pkt, std::string &reply,
        Clock::time_point loopStart)
{
    double codec0 = c.codec.codecUs;
    Clock::time_point t0 = Clock::now();
    bool ok = c.exchange(pkt, reply) &&
              !(reply.size() == 3 && reply[0] == 'E');
    if (cls)
        out.sample(cls, loopStart, t0, Clock::now(),
                   c.codec.codecUs - codec0, c.codec.timed);
    out.check(ok, "rsp '" + pkt + "' -> '" + reply + "'");
    return ok;
}

bool
wireVerb(WireClient &c, PassResult &out, const char *cls,
         const Request &req, Response &resp, Clock::time_point loopStart)
{
    double codec0 = c.codec.codecUs;
    Clock::time_point t0 = Clock::now();
    bool ok = c.call(req, resp) && resp.ok();
    if (cls)
        out.sample(cls, loopStart, t0, Clock::now(),
                   c.codec.codecUs - codec0, c.codec.timed);
    out.check(ok, std::string("wire ") + requestKindName(req.kind) + ": " +
                      resp.error);
    return ok;
}

bool
parseStopPc(const std::string &reply, uint64_t &pc)
{
    size_t at = reply.find("20:");
    return reply.rfind("T05", 0) == 0 && at != std::string::npos &&
           rsp::parseHexLe(reply.substr(at + 3, 16), pc);
}

std::vector<uint64_t>
parseRegisters(const std::string &reply)
{
    std::vector<uint64_t> regs;
    for (size_t i = 0; i + 16 <= reply.size(); i += 16) {
        uint64_t v = 0;
        rsp::parseHexLe(reply.substr(i, 16), v);
        regs.push_back(v);
    }
    return regs;
}

std::string
hexNum(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --------------------------------------------------------------- server

Workload
buildBenchWorkload(const std::string &name, uint64_t seed)
{
    WorkloadParams p;
    p.scale = name == "mcf" ? McfScale : Bzip2Scale;
    p.seed = seed;
    return buildWorkload(name, p);
}

server::DebugServerOptions
ServerHost::options(const std::string &rspWorkload,
                    const std::string &storeDir)
{
    // tools/rsp_server.cc's shipped configuration.
    server::DebugServerOptions opts;
    opts.port = 0;
    opts.session.timeTravel.checkpointInterval = 1024;
    opts.sliceInsts = 50000;
    opts.slots = 0; // hardware concurrency
    opts.maxSessions = 8;
    opts.defaultBackend = BackendKind::Dise;
    opts.defaultWorkload = rspWorkload;
    opts.storeDir = storeDir;
    return opts;
}

ServerHost::ServerHost(const std::string &rspWorkload, uint64_t seed,
                       const std::string &storeDir)
{
    // The program factory builds each workload from the run's seed.
    auto factory = [seed](const std::string &name, Program &out) {
        if (name != "mcf" && name != "bzip2")
            return false;
        out = buildBenchWorkload(name, seed).program;
        return true;
    };
    srv = std::make_unique<server::DebugServer>(
        options(rspWorkload, storeDir), factory);
    if (srv->start())
        port = srv->port();
}

ServerHost::~ServerHost()
{
    if (srv)
        srv->stop();
}

SessionOptions
referenceSessionOptions()
{
    return ServerHost::options("", "").session;
}

// ------------------------------------------------------------------ rss

void
resetPeakRss()
{
    // Each block stands for a fresh server process: hand the previous
    // block's freed heap back to the kernel first, so a block's peak
    // does not count what earlier blocks left behind.
    malloc_trim(0);
    // Linux: writing 5 resets VmHWM to the current RSS.
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

} // namespace perfbench
