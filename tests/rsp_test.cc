/**
 * @file
 * GDB Remote Serial Protocol tests: the packet codec (framing,
 * checksum round-trip, escaping, run-length encoding, and a fuzz-ish
 * malformed-input table) and the transport-free server command set
 * over every backend — attach, Z2 watchpoint, continue to the hit,
 * reverse-continue back across it — checked for identical stop
 * locations against the in-process DebugSession path.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "rsp/client.hh"
#include "rsp/server.hh"
#include "server/server.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

using namespace rsp;
using namespace reg;

// ------------------------------------------------------------- framing

TEST(RspPacket, ChecksumAndFrame)
{
    EXPECT_EQ(checksum("OK"), 0x9a);
    EXPECT_EQ(frame("OK"), "$OK#9a");
    EXPECT_EQ(frame(""), "$#00");

    std::string payload;
    ASSERT_TRUE(decodeFrame("$OK#9a", payload));
    EXPECT_EQ(payload, "OK");
}

// Helper: frame a raw (pre-encoded) body without escaping.
std::string
frameRaw(const std::string &body)
{
    char tail[8];
    std::snprintf(tail, sizeof tail, "#%02x", checksum(body));
    return "$" + body + tail;
}

TEST(RspPacket, EscapingRoundTrip)
{
    // All four in-band characters survive a frame round-trip, and the
    // escaped body carries no literal '$' or '#'.
    std::string raw = "a$b#c}d*e";
    std::string wire = frame(raw);
    std::string body = wire.substr(1, wire.size() - 4);
    EXPECT_EQ(body.find('$'), std::string::npos);
    EXPECT_EQ(body.find('#'), std::string::npos);

    std::string payload;
    ASSERT_TRUE(decodeFrame(wire, payload));
    EXPECT_EQ(payload, raw);
}

TEST(RspPacket, RunLengthDecode)
{
    // "0* " = '0' + 3 repeats (' ' is 32, count 32-29=3).
    std::string payload;
    ASSERT_TRUE(decodeFrame(frameRaw("0* "), payload));
    EXPECT_EQ(payload, "0000");
}

TEST(RspPacket, RunLengthEncodeRoundTrip)
{
    // Runs of every interesting length: below the threshold, the
    // forbidden-count lengths (7, 8, 15, 17 would need '#', '$',
    // '+', '-'), and a run longer than one chunk can carry.
    for (size_t len : {1u, 3u, 4u, 6u, 7u, 8u, 15u, 17u, 97u, 98u,
                       99u, 200u}) {
        std::string raw(len, 'x');
        std::string encoded = runLengthEncode(raw);
        // No forbidden repeat characters may appear after '*'.
        for (size_t i = 0; i + 1 < encoded.size(); ++i)
            if (encoded[i] == '*') {
                char n = encoded[i + 1];
                EXPECT_NE(n, '$');
                EXPECT_NE(n, '#');
                EXPECT_NE(n, '+');
                EXPECT_NE(n, '-');
                EXPECT_GE(static_cast<int>(n), 32);
            }
        std::string payload;
        ASSERT_TRUE(decodeFrame(frameRaw(encoded), payload))
            << "len=" << len << " encoded='" << encoded << "'";
        EXPECT_EQ(payload, raw) << "len=" << len;
        if (len >= 4) {
            EXPECT_LT(encoded.size(), raw.size()) << "len=" << len;
        }
    }

    // Mixed content round-trips through the full framer with RLE on.
    std::string mixed = "g0000000011112222222222233}x";
    std::string payload;
    ASSERT_TRUE(decodeFrame(frame(mixed, /*rle=*/true), payload));
    EXPECT_EQ(payload, mixed);
}

TEST(RspPacket, MalformedFrameTable)
{
    const char *cases[] = {
        "$OK#00",      // wrong checksum
        "$OK#zz",      // non-hex checksum
        "$OK#9",       // truncated checksum
        "OK#9a",       // missing '$'
        "$O#K9a",      // '#' inside body shifts the frame
        "$}#fd",       // escape with nothing to escape
        "$*x#xx",      // '*' with nothing to repeat
        "$a*\x01#xx",  // repeat count below the minimum
        "",            // empty
        "$#",          // too short
    };
    for (const char *wire : cases) {
        std::string payload;
        EXPECT_FALSE(decodeFrame(wire, payload))
            << "accepted malformed frame '" << wire << "'";
    }
}

TEST(RspPacket, DecoderResyncsPastGarbage)
{
    PacketDecoder dec;
    // Garbage, a bad-checksum frame, then a good frame, byte by byte.
    std::string stream = "junk$OK#00\x01\x02+$m0,4#fd";
    for (char c : stream)
        dec.feed(&c, 1);

    ItemKind kind;
    std::string payload;
    ASSERT_TRUE(dec.next(kind, payload));
    EXPECT_EQ(kind, ItemKind::Ack);
    ASSERT_TRUE(dec.next(kind, payload));
    EXPECT_EQ(kind, ItemKind::Packet);
    EXPECT_EQ(payload, "m0,4");
    EXPECT_FALSE(dec.next(kind, payload));
    EXPECT_EQ(dec.badFrames(), 1u);
    EXPECT_GT(dec.strayBytes(), 0u);
}

TEST(RspConnection, OddLengthMemoryWritesSplitIntoPokes)
{
    // gdb writes 3-, 5- and 7-byte objects with one M packet, here at
    // a stop reached by reverse-continue; each is split into 4-, 2-
    // and 1-byte pokes and reads back whole.
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");
    SessionOptions so;
    so.timeTravel.checkpointInterval = 500;
    DebugSession session(prog, so);
    RspConnection server(session);
    char pkt[96];
    std::snprintf(pkt, sizeof pkt, "Z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    ASSERT_EQ(server.handlePacket(pkt), "OK");
    server.handlePacket("c");
    server.handlePacket("c");
    server.handlePacket("bc");
    const std::string bytes = "01020304050607";
    for (size_t len : {3u, 5u, 7u}) {
        Addr at = watchAddr + 72 + 8 * len;
        std::snprintf(pkt, sizeof pkt, "M%llx,%zx:%s",
                      static_cast<unsigned long long>(at), len,
                      bytes.substr(0, 2 * len).c_str());
        EXPECT_EQ(server.handlePacket(pkt), "OK") << pkt;
        std::snprintf(pkt, sizeof pkt, "m%llx,%zx",
                      static_cast<unsigned long long>(at), len);
        EXPECT_EQ(server.handlePacket(pkt), bytes.substr(0, 2 * len));
    }
}

TEST(RspPacket, HexHelpers)
{
    EXPECT_EQ(hexLe(0x1122334455667788ull, 8), "8877665544332211");
    uint64_t v = 0;
    ASSERT_TRUE(parseHexLe("8877665544332211", v));
    EXPECT_EQ(v, 0x1122334455667788ull);
    ASSERT_TRUE(parseHexNum("1000054", v));
    EXPECT_EQ(v, 0x1000054u);
    EXPECT_FALSE(parseHexLe("887", v));
    EXPECT_FALSE(parseHexNum("10zz", v));
}

// ------------------------------------------------- the server, 5 ways

SessionOptions
optionsFor(BackendKind kind)
{
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 500;
    return o;
}

class RspAllBackends : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(RspAllBackends, WireStopsMatchInProcessSession)
{
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");

    // In-process reference: same spec, typed verbs.
    DebugSession ref(prog, optionsFor(GetParam()));
    ref.setWatch(WatchSpec::scalar("directory", watchAddr, 8));
    ASSERT_TRUE(ref.attach());
    StopInfo refHit1 = ref.cont();
    StopInfo refHit2 = ref.cont();
    ASSERT_EQ(refHit1.reason, StopReason::Event);
    ASSERT_EQ(refHit2.reason, StopReason::Event);
    StopInfo refBack = ref.reverseContinue();
    ASSERT_EQ(refBack.reason, StopReason::Event);
    EXPECT_EQ(refBack.time, refHit1.time);

    // Wire path: a second session driven purely through packets.
    DebugSession session(prog, optionsFor(GetParam()));
    RspConnection server(session);

    EXPECT_NE(server.handlePacket("qSupported:hwbreak+").find(
                  "ReverseContinue+"),
              std::string::npos);
    EXPECT_EQ(server.handlePacket("?"), "S05");

    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    EXPECT_EQ(server.handlePacket(z2), "OK");

    std::string hit1 = server.handlePacket("c");
    EXPECT_NE(hit1.find("watch:"), std::string::npos) << hit1;
    uint64_t pc1 = 0;
    ASSERT_TRUE(stopReplyPc(hit1, pc1)) << hit1;
    EXPECT_EQ(pc1, refHit1.pc);

    std::string hit2 = server.handlePacket("c");
    uint64_t pc2 = 0;
    ASSERT_TRUE(stopReplyPc(hit2, pc2)) << hit2;
    EXPECT_EQ(pc2, refHit2.pc);

    // Reverse-continue back across the second hit.
    std::string back = server.handlePacket("bc");
    EXPECT_NE(back.find("watch:"), std::string::npos) << back;
    uint64_t pcBack = 0;
    ASSERT_TRUE(stopReplyPc(back, pcBack)) << back;
    EXPECT_EQ(pcBack, refBack.pc);

    // Registers agree with the reference at the same position.
    std::string g = server.handlePacket("g");
    ASSERT_EQ(g.size(), DebugSession::NumSessionRegs * 16u);
    std::vector<uint64_t> refRegs = ref.readRegisters();
    for (unsigned i = 0; i < DebugSession::NumSessionRegs; ++i) {
        uint64_t v = 0;
        ASSERT_TRUE(parseHexLe(g.substr(i * 16, 16), v));
        EXPECT_EQ(v, refRegs[i]) << "register " << i;
    }

    // Memory reads go through too.
    char m[64];
    std::snprintf(m, sizeof m, "m%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    std::string mem = server.handlePacket(m);
    EXPECT_EQ(mem.size(), 16u);

    // Reverse-step and detach.
    std::string bs = server.handlePacket("bs");
    uint64_t pcBs = 0;
    EXPECT_TRUE(stopReplyPc(bs, pcBs)) << bs;
    EXPECT_EQ(server.handlePacket("D"), "OK");
    EXPECT_TRUE(server.wantClose());
}

INSTANTIATE_TEST_SUITE_P(Kinds, RspAllBackends,
                         ::testing::Values(BackendKind::Dise,
                                           BackendKind::SingleStep,
                                           BackendKind::VirtualMemory,
                                           BackendKind::HardwareReg,
                                           BackendKind::Rewrite));

// ------------------------------------------------------- TCP transport

// -------------------------------------------- fuzz, multi-connection

/**
 * A raw loopback socket speaking hand-framed (and deliberately
 * mis-framed) RSP: the fuzz tests need byte-level control the polite
 * RspClient does not give.
 */
class RawRspClient
{
  public:
    ~RawRspClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool
    connectTo(uint16_t port, unsigned timeoutSeconds = 20)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        timeval tv{};
        tv.tv_sec = timeoutSeconds;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        return ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    bool
    sendRaw(const std::string &bytes)
    {
        return ::write(fd_, bytes.data(), bytes.size()) ==
               static_cast<ssize_t>(bytes.size());
    }

    /** Next framed reply payload, skipping acks. Empty on timeout. */
    std::string
    readReply()
    {
        for (;;) {
            ItemKind kind;
            std::string payload;
            while (dec_.next(kind, payload))
                if (kind == ItemKind::Packet)
                    return payload;
            char chunk[4096];
            ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n <= 0)
                return "<eof>";
            dec_.feed(chunk, static_cast<size_t>(n));
        }
    }

    /** Frame + send a payload, collect the reply. */
    std::string
    exchange(const std::string &payload)
    {
        if (!sendRaw(std::string("+").append(frame(payload))))
            return "<write-error>";
        return readReply();
    }

  private:
    int fd_ = -1;
    PacketDecoder dec_;
};

/** Deterministic garbage: a fixed-seed LCG, bytes that never include
 *  '$' (so the decoder's resync has to skip them as stray). */
std::string
garbageBytes(uint32_t &state, size_t n)
{
    std::string out;
    for (size_t i = 0; i < n; ++i) {
        state = state * 1664525u + 1013904223u;
        char c = static_cast<char>(state >> 24);
        if (c == '$' || c == '+' || c == '-' || c == '\x03')
            c = '!';
        out += c;
    }
    return out;
}

TEST(RspFuzz, CorruptFramesAcrossConcurrentConnectionsDontLeak)
{
    // Three concurrent connections to one daemon, each interleaving a
    // deterministic corruption corpus (truncation, bad checksums,
    // resync garbage) with valid commands. Every client must keep
    // getting correct replies on ITS OWN session: the watchpoint one
    // client sets must never surface on another's target.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    DebugSession ref(demo, optionsFor(BackendKind::Dise));
    ref.setWatch(WatchSpec::scalar("w", watchAddr, 8));
    StopInfo refHit = ref.cont();
    ASSERT_EQ(refHit.reason, StopReason::Event);

    server::DebugServerOptions opts;
    opts.maxSessions = 4;
    opts.session.timeTravel.checkpointInterval = 512;
    server::DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));

    std::atomic<int> failures{0};
    auto fail = [&](const char *what, const std::string &got) {
        ++failures;
        ADD_FAILURE() << what << ": '" << got << "'";
    };

    // Client 0 sets a watch and interleaves corruption; clients 1-2
    // send corruption plus a clean `c` that must run to completion
    // (no watch on THEIR session) — a leaked watchpoint would stop
    // them with T05watch instead of W00.
    auto watcher = [&](uint32_t seed) {
        RawRspClient c;
        if (!c.connectTo(srv.port()))
            return fail("connect", "");
        uint32_t lcg = seed;
        if (c.exchange(z2) != "OK")
            return fail("Z2", "not OK");
        // Truncated frame, then garbage, then a valid continue.
        c.sendRaw("$m0,4#");             // checksum cut mid-frame
        c.sendRaw(garbageBytes(lcg, 64));
        std::string hit = c.exchange("c");
        uint64_t pc = 0;
        if (hit.find("watch:") == std::string::npos ||
            !stopReplyPc(hit, pc) || pc != refHit.pc)
            return fail("post-corruption c", hit);
        // Bad checksum + escape-with-nothing, then reverse works.
        c.sendRaw("$bc#00");
        c.sendRaw("$}#fd");
        std::string back = c.exchange("bc");
        if (back.find("replaylog:begin") == std::string::npos)
            return fail("post-corruption bc", back);
        if (c.exchange("D") != "OK")
            return fail("detach", "");
    };
    auto bystander = [&](uint32_t seed) {
        RawRspClient c;
        if (!c.connectTo(srv.port()))
            return fail("connect", "");
        uint32_t lcg = seed;
        // A clean opening classifies the connection as RSP; the
        // garbage goes mid-stream, where resync must skip it.
        if (c.exchange("qSupported").find("PacketSize") ==
            std::string::npos)
            return fail("bystander handshake", "");
        c.sendRaw(garbageBytes(lcg, 128));
        c.sendRaw("$OK#9z");             // non-hex checksum
        std::string run = c.exchange("c");
        if (run != "W00") // no watch here: must run to completion
            return fail("bystander c (leakage?)", run);
        c.sendRaw("$*x#xx");             // repeat with nothing before
        std::string regs = c.exchange("g");
        if (regs.size() != DebugSession::NumSessionRegs * 16)
            return fail("bystander g", regs);
        if (c.exchange("D") != "OK")
            return fail("bystander detach", "");
    };

    std::thread t0(watcher, 0xd15e0001u);
    std::thread t1(bystander, 0xd15e0002u);
    std::thread t2(bystander, 0xd15e0003u);
    t0.join();
    t1.join();
    t2.join();
    EXPECT_EQ(failures.load(), 0);

    // The daemon survived the corpus and still admits clients.
    RawRspClient post;
    ASSERT_TRUE(post.connectTo(srv.port()));
    EXPECT_NE(post.exchange("qSupported").find("PacketSize"),
              std::string::npos);
    srv.stop();
}

TEST(RspFuzz, OversizedAndPathologicalFramesSingleConnection)
{
    // Pathological-but-framed input against a plain connection: the
    // handler must answer (or empty-reply) every decodable payload
    // and never throw out of the packet layer.
    Program demo = buildHeisenbugDemo();
    DebugSession session(demo, optionsFor(BackendKind::Dise));
    RspConnection server(session);

    // Payloads with a pinned reply shape.
    struct Case
    {
        const char *payload;
        const char *expect; // exact reply
    };
    const Case pinned[] = {
        {"m,", "E01"},          {"mzz,8", "E01"},
        {"m0,zz", "E01"},       {"m0,ffffffff", "E01"},
        {"M0,4:zzzz", "E01"},   {"M0,8:00", "E01"},
        {"Zx,0,0", "E01"},      {"Z2,,", "E01"},
        // A watch size outside the session's limits, and a kind that
        // only a truncation to 32 bits would bring inside them.
        {"Z2,2000100,3", "E02"}, {"Z2,2000100,100000004", "E01"},
        {"z2,beef,8", "E03"},   {"p999", "E01"},
        {"P=deadbeef", "E01"},  {"Pzz=00", "E01"},
        // qRcmd now answers: bad hex is E01, a decodable non-tool
        // command gets a hex-encoded usage hint (checked elsewhere).
        {"G0011", "E01"},       {"qRcmd,zz", "E01"},
        {"vAttach;1", ""},      {"Hg-1", "OK"},
        {"X0,0:", ""},          {"!", ""},
        {"R00", ""},
    };
    for (const Case &c : pinned)
        EXPECT_EQ(server.handlePacket(c.payload), c.expect)
            << c.payload;
    // `c` with a (bogus) resume address: runs the watch-less session
    // to completion rather than crashing on the argument.
    EXPECT_EQ(server.handlePacket("c0bad"), "W00");
    // And the session still works afterwards — the stray `c` in the
    // corpus ran it to completion, so this Z2 exercises the
    // post-attach rebuild+replay path over the wire, and reverse
    // lands on the materialized watch history.
    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(
                      demo.symbol("directory")));
    EXPECT_EQ(server.handlePacket(z2), "OK");
    std::string back = server.handlePacket("bc");
    EXPECT_NE(back.find("watch:"), std::string::npos) << back;
}

// --------------------------------------- vCont / qXfer / parked pokes

TEST(RspVCont, ActionsMatchPlainResumePackets)
{
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");
    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));

    DebugSession a(prog, optionsFor(BackendKind::Dise));
    DebugSession b(prog, optionsFor(BackendKind::Dise));
    RspConnection plain(a), vcont(b);
    EXPECT_EQ(plain.handlePacket(z2), "OK");
    EXPECT_EQ(vcont.handlePacket(z2), "OK");

    EXPECT_EQ(vcont.handlePacket("vCont?"), "vCont;c;C;s;S");
    EXPECT_NE(plain.handlePacket("qSupported")
                  .find("vContSupported+"),
              std::string::npos);

    // vCont;c ≙ c, vCont;s ≙ s, signal forms accepted, thread ids
    // tolerated; bogus actions are errors.
    EXPECT_EQ(vcont.handlePacket("vCont;c"),
              plain.handlePacket("c"));
    EXPECT_EQ(vcont.handlePacket("vCont;s:0"),
              plain.handlePacket("s"));
    EXPECT_EQ(vcont.handlePacket("vCont;C05"),
              plain.handlePacket("c"));
    EXPECT_EQ(vcont.handlePacket("vCont;t"), "E01");
    EXPECT_EQ(vcont.handlePacket("vCont"), "E01");
}

TEST(RspQXfer, TargetXmlChunksReassemble)
{
    Program prog = buildHeisenbugDemo();
    DebugSession session(prog, optionsFor(BackendKind::Dise));
    RspConnection server(session);

    EXPECT_NE(server.handlePacket("qSupported")
                  .find("qXfer:features:read+"),
              std::string::npos);

    // Read the document in small chunks, honoring the m/l framing.
    std::string doc;
    for (uint64_t off = 0;;) {
        char req[80];
        std::snprintf(req, sizeof req,
                      "qXfer:features:read:target.xml:%llx,40",
                      static_cast<unsigned long long>(off));
        std::string reply = server.handlePacket(req);
        ASSERT_FALSE(reply.empty());
        ASSERT_TRUE(reply[0] == 'm' || reply[0] == 'l') << reply;
        doc += reply.substr(1);
        off += reply.size() - 1;
        if (reply[0] == 'l')
            break;
        ASSERT_LT(off, 65536u) << "runaway document";
    }
    EXPECT_NE(doc.find("<target"), std::string::npos);
    EXPECT_NE(doc.find("org.dise.sim.core"), std::string::npos);
    // One <reg> per session register, pc at the session's index.
    size_t regs = 0;
    for (size_t pos = 0; (pos = doc.find("<reg ", pos)) !=
                         std::string::npos;
         ++pos)
        ++regs;
    EXPECT_EQ(regs, DebugSession::NumSessionRegs);
    EXPECT_NE(doc.find("name=\"pc\""), std::string::npos);

    // Unknown annexes and malformed ranges fail cleanly.
    EXPECT_EQ(server.handlePacket("qXfer:features:read:other.xml:0,40"),
              "E01");
    EXPECT_EQ(server.handlePacket("qXfer:features:read:target.xml:zz"),
              "E01");
}

TEST(RspParkedPoke, MemoryWriteAtWatchpointStopSucceeds)
{
    // gdb writing memory at a watchpoint stop used to get E02 (step
    // once first); the poke now records against the park position.
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");
    DebugSession session(prog, optionsFor(BackendKind::Dise));
    RspConnection server(session);

    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    ASSERT_EQ(server.handlePacket(z2), "OK");
    std::string hit = server.handlePacket("c");
    ASSERT_NE(hit.find("watch:"), std::string::npos) << hit;

    Addr scratch = watchAddr + 48;
    char m[96];
    std::snprintf(m, sizeof m, "M%llx,8:efbeadde00000000",
                  static_cast<unsigned long long>(scratch));
    EXPECT_EQ(server.handlePacket(m), "OK");
    std::snprintf(m, sizeof m, "m%llx,8",
                  static_cast<unsigned long long>(scratch));
    EXPECT_EQ(server.handlePacket(m), "efbeadde00000000");

    // The poked timeline stays reversible.
    std::string back = server.handlePacket("bs");
    uint64_t backPc = 0;
    EXPECT_TRUE(stopReplyPc(back, backPc)) << back;
}

// ----------------------------------------------------- non-stop mode

/** Signalled after a non-stop job's completion callback has run. */
class JobFinished
{
  public:
    void
    signal()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            done_ = true;
        }
        cv_.notify_all();
    }

    /** Whether the job finished within two minutes. */
    bool
    wait()
    {
        std::unique_lock<std::mutex> lk(mu_);
        return cv_.wait_for(lk, std::chrono::minutes(2),
                            [&] { return done_; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
};

TEST(RspNonStop, AsyncContinueNotifiesStopAndStaysResponsive)
{
    using namespace server;
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");

    SessionManagerOptions mopts;
    mopts.maxSessions = 1;
    mopts.session = optionsFor(BackendKind::Dise);
    SessionManager mgr(mopts);
    // Declared before the scheduler, whose destructor joins the worker
    // that runs the completion callback.
    JobFinished finished;
    JobScheduler sched({1, 200});
    ManagedSessionPtr ms =
        mgr.create("demo", BackendKind::Dise, /*exclusive=*/true);
    ASSERT_TRUE(ms);

    auto exec = [&](const Request &req, Response &out, std::string *err) {
        return sched.drive(*ms, req, out, err);
    };
    rsp::RspConnection conn(ms->session, exec);
    conn.setAsyncExec(
        [&](RequestKind kind, uint64_t count,
            rsp::RspConnection::AsyncDoneFn done)
            -> std::function<void()> {
            JobScheduler::TicketPtr t = sched.driveAsync(
                ms, kind, count,
                [done, &finished](bool ok, bool interrupted,
                                  const StopInfo &stop,
                                  const std::string &err) {
                    done(ok, interrupted, stop, err);
                    finished.signal();
                });
            if (!t)
                return {};
            return [&sched, t] { sched.cancel(t); };
        });

    EXPECT_NE(conn.handlePacket("qSupported").find("QNonStop+"),
              std::string::npos);
    EXPECT_EQ(conn.handlePacket("QNonStop:1"), "OK");
    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    ASSERT_EQ(conn.handlePacket(z2), "OK");

    // The continue is acknowledged immediately; the stop lands later
    // (observable through `?`, which never blocks).
    ASSERT_EQ(conn.handlePacket("vCont;c"), "OK");
    std::string stop = conn.handlePacket("?");
    if (stop.rfind("T05", 0) != 0) {
        EXPECT_EQ(stop, "OK"); // still running: responsive, not wedged
        ASSERT_TRUE(finished.wait());
        stop = conn.handlePacket("?");
    }
    EXPECT_NE(stop.find("watch:"), std::string::npos) << stop;
    EXPECT_EQ(conn.handlePacket("vStopped"), "OK");

    // Back to all-stop: synchronous verbs behave as before.
    EXPECT_EQ(conn.handlePacket("QNonStop:0"), "OK");
    std::string back = conn.handlePacket("bc");
    EXPECT_NE(back.find("replaylog:begin"), std::string::npos) << back;
}

TEST(RspNonStop, WritePacketsLandAtSliceBoundariesWhileRunning)
{
    // Write-class packets (M/P/Z/z) during a non-stop run used to get
    // a flat E05; they now take the peek lock like g/p/m, landing the
    // mutation exactly at a slice boundary — stock gdbserver behavior.
    using namespace server;
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");

    SessionManagerOptions mopts;
    mopts.maxSessions = 1;
    mopts.session = optionsFor(BackendKind::Dise);
    SessionManager mgr(mopts);
    // Declared before the scheduler, whose destructor joins the worker
    // that runs the completion callback.
    JobFinished finished;
    JobScheduler sched({1, 200});
    ManagedSessionPtr ms =
        mgr.create("demo", BackendKind::Dise, /*exclusive=*/true);
    ASSERT_TRUE(ms);

    auto exec = [&](const Request &req, Response &out, std::string *err) {
        return sched.drive(*ms, req, out, err);
    };
    rsp::RspConnection conn(ms->session, exec);
    conn.setAsyncExec(
        [&](RequestKind kind, uint64_t count,
            rsp::RspConnection::AsyncDoneFn done)
            -> std::function<void()> {
            JobScheduler::TicketPtr t = sched.driveAsync(
                ms, kind, count,
                [done, &finished](bool ok, bool interrupted,
                                  const StopInfo &stop,
                                  const std::string &err) {
                    done(ok, interrupted, stop, err);
                    finished.signal();
                });
            if (!t)
                return {};
            return [&sched, t] { sched.cancel(t); };
        });
    conn.setPeekLock([ms] {
        return std::unique_lock<std::mutex>(ms->sliceMu);
    });

    EXPECT_EQ(conn.handlePacket("QNonStop:1"), "OK");

    // Park the job deterministically: holding sliceMu keeps the async
    // run alive (running between slices) while we poke at it.
    std::unique_lock<std::mutex> park(ms->sliceMu);
    ASSERT_EQ(conn.handlePacket("vCont;c"), "OK");

    std::thread poker([&] {
        // These block on the peek lock until the parker releases,
        // then mutate at the slice boundary instead of failing.
        Addr scratch = watchAddr + 48;
        char m[96];
        std::snprintf(m, sizeof m, "M%llx,8:efbeadde00000000",
                      static_cast<unsigned long long>(scratch));
        EXPECT_EQ(conn.handlePacket(m), "OK");
        char z2[64];
        std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                      static_cast<unsigned long long>(watchAddr));
        EXPECT_EQ(conn.handlePacket(z2), "OK");
        std::snprintf(m, sizeof m, "m%llx,8",
                      static_cast<unsigned long long>(scratch));
        EXPECT_EQ(conn.handlePacket(m), "efbeadde00000000");
    });
    // Give the poker time to block on the held lock, then release.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    park.unlock();
    poker.join();

    // The run finishes healthy: either the freshly inserted watch
    // fires (T05) or the program runs to its natural end (W00) when
    // the scheduler got ahead of the poke — never a wedge, never a
    // corrupted stop. What must NOT happen is the old E05.
    std::string stop = conn.handlePacket("?");
    if (stop.rfind("T05", 0) != 0 && stop.rfind("W", 0) != 0) {
        EXPECT_EQ(stop, "OK");
        ASSERT_TRUE(finished.wait());
        stop = conn.handlePacket("?");
    }
    if (stop.rfind("T05", 0) == 0) {
        EXPECT_NE(stop.find("watch:"), std::string::npos) << stop;
        EXPECT_EQ(conn.handlePacket("vStopped"), "OK");
    }
    // The mid-run insert registered for real: removing it succeeds.
    char z2off[64];
    std::snprintf(z2off, sizeof z2off, "z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    EXPECT_EQ(conn.handlePacket(z2off), "OK");
    EXPECT_EQ(conn.handlePacket("QNonStop:0"), "OK");
}

TEST(RspServerTcp, LoopbackSessionEndToEnd)
{
    // The server gives the RSP client an exclusive session on its
    // default workload, the heisenbug demo.
    Program prog = buildHeisenbugDemo();
    server::DebugServerOptions opts;
    opts.defaultBackend = BackendKind::Dise;
    opts.session = optionsFor(BackendKind::Dise);
    server::DebugServer srv(opts);
    ASSERT_TRUE(srv.start());
    ASSERT_NE(srv.port(), 0);

    RspClient client;
    ASSERT_TRUE(client.connectTo(srv.port()));
    auto exchange = [&](const std::string &payload) {
        return client.exchange(payload);
    };

    EXPECT_NE(exchange("qSupported").find("ReverseStep+"),
              std::string::npos);
    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(
                      prog.symbol("directory")));
    EXPECT_EQ(exchange(z2), "OK");
    std::string hit = exchange("c");
    EXPECT_NE(hit.find("watch:"), std::string::npos) << hit;
    std::string back = exchange("bc");
    EXPECT_NE(back.find("replaylog:begin"), std::string::npos) << back;
    EXPECT_EQ(exchange("D"), "OK");

    client.close();
    srv.stop();
}

} // namespace
} // namespace dise
