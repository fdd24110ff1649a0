/**
 * @file
 * Golden wire corpus for the session protocol codec.
 *
 * A fixed corpus of messages is rendered as wire lines, each one twice:
 * as encoded, and as re-encoded after a decode. It covers every
 * RequestKind (fully populated, plus edge variants of session, count,
 * tool configuration and escaped strings), responses of every
 * status with every stats block, stops with and without a mark and
 * every payload, and every SessionEventKind. A second section feeds
 * hand-written lines through the decoders — malformed values, repeated
 * and unknown keys, odd whitespace, error precedence — and records each
 * verdict with its error text. A per-key mutation test checks that
 * every damaged key=value token is rejected, or decodes to a stable
 * re-encoding.
 *
 * The transcript is compared byte for byte against
 * tests/golden/wire.txt. On a mismatch it is written next to the test
 * binary as wire.actual.txt for diffing.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

#include "session/protocol.hh"

#ifndef DISE_GOLDEN_FILE
#error "DISE_GOLDEN_FILE must name tests/golden/wire.txt"
#endif

namespace dise {
namespace {

/** Every string field carries the characters the escaper must handle. */
const std::string Awkward = "a b%c=d\te\nf";

constexpr RequestKind AllRequestKinds[] = {
    RequestKind::Ping, RequestKind::SelectBackend, RequestKind::SetWatch,
    RequestKind::SetBreak, RequestKind::RemoveWatch,
    RequestKind::RemoveBreak, RequestKind::Attach, RequestKind::Cont,
    RequestKind::Stepi, RequestKind::RunToEnd,
    RequestKind::ReverseContinue, RequestKind::ReverseStep,
    RequestKind::RunToEvent, RequestKind::ReadRegisters,
    RequestKind::WriteRegister, RequestKind::ReadMemory,
    RequestKind::WriteMemory, RequestKind::Stats, RequestKind::Detach,
    RequestKind::ReplayVerify, RequestKind::SessionCreate,
    RequestKind::SessionSelect, RequestKind::SessionDestroy,
    RequestKind::SessionList, RequestKind::ServerStats,
    RequestKind::Subscribe, RequestKind::Unsubscribe,
    RequestKind::SessionHibernate, RequestKind::SessionPersist,
    RequestKind::StoreStats, RequestKind::TraceStart,
    RequestKind::TraceStop, RequestKind::TraceDump, RequestKind::Metrics,
    RequestKind::ToolEnable, RequestKind::ToolDisable,
    RequestKind::ToolList, RequestKind::ToolReport,
};

constexpr SessionEventKind AllEventKinds[] = {
    SessionEventKind::Watch, SessionEventKind::Break,
    SessionEventKind::Protection, SessionEventKind::Checkpoint,
    SessionEventKind::Restore, SessionEventKind::Attached,
    SessionEventKind::Halted, SessionEventKind::SubscriberDropped,
    SessionEventKind::ToolFinding,
};

/** A request of @p kind with every field set away from its default,
 *  so the encoding shows exactly which fields the kind carries. */
Request
populatedRequest(RequestKind kind)
{
    Request r;
    r.kind = kind;
    r.seq = 42;
    r.backend = BackendKind::HardwareReg;
    r.watch = WatchSpec::range("hot table", 0x10002000, 256)
                  .withCondition(0xdeadbeef);
    r.watch.size = 4;
    r.brk.pc = 0x1000040;
    r.brk.name = "loop head";
    r.brk.conditional = true;
    r.brk.condAddr = 0x10001000;
    r.brk.condSize = 4;
    r.brk.condConst = 7;
    r.index = 3;
    r.count = 9;
    r.addr = 0x10000010;
    r.size = 16;
    r.value = 0xfeedface;
    r.reg = 5;
    r.session = 7;
    r.name = "memtrace";
    // Two keys in non-sorted order: decode returns them in key order.
    r.toolConfig = {{"suppress", "0"}, {"redzone", "32"}};
    return r;
}

std::vector<Request>
requestCorpus()
{
    std::vector<Request> out;
    for (RequestKind kind : AllRequestKinds)
        out.push_back(populatedRequest(kind));

    auto variant = [&](RequestKind kind) -> Request & {
        out.push_back(populatedRequest(kind));
        return out.back();
    };
    for (uint64_t session : {0, 7})
        for (RequestKind kind :
             {RequestKind::SessionHibernate, RequestKind::SessionPersist,
              RequestKind::ToolEnable, RequestKind::ToolDisable,
              RequestKind::ToolList, RequestKind::ToolReport,
              RequestKind::SessionSelect})
            variant(kind).session = session;
    for (uint64_t count : {0, 1, 9}) {
        variant(RequestKind::TraceStart).count = count;
        variant(RequestKind::TraceDump).count = count;
        variant(RequestKind::Stepi).count = count;
    }
    for (int index : {-1, 0})
        variant(RequestKind::RemoveBreak).index = index;
    for (BackendKind b :
         {BackendKind::Dise, BackendKind::SingleStep,
          BackendKind::VirtualMemory, BackendKind::HardwareReg,
          BackendKind::Rewrite}) {
        variant(RequestKind::SelectBackend).backend = b;
        variant(RequestKind::SessionCreate).backend = b;
    }
    for (WatchKind wk :
         {WatchKind::Scalar, WatchKind::Indirect, WatchKind::Range}) {
        Request &r = variant(RequestKind::SetWatch);
        r.watch.kind = wk;
        r.watch.conditional = false;
        r.watch.predConst = 0;
    }
    variant(RequestKind::SetBreak).brk.conditional = false;

    // Strings holding space, '%', '=', tab and newline.
    variant(RequestKind::SetWatch).watch.name = Awkward;
    variant(RequestKind::SetBreak).brk.name = Awkward;
    variant(RequestKind::SessionCreate).name = Awkward;
    variant(RequestKind::ToolReport).name = Awkward;
    variant(RequestKind::ToolEnable).toolConfig = {{"z", Awkward},
                                                   {"a", "%"}};
    // Extremes of the numeric fields.
    Request &big = variant(RequestKind::WriteMemory);
    big.addr = ~0ull;
    big.size = ~0u;
    big.value = ~0ull;
    big.seq = ~0ull;
    Request &reg = variant(RequestKind::WriteRegister);
    reg.reg = 32;
    reg.value = 0;
    variant(RequestKind::RemoveWatch).index = 2147483647;
    return out;
}

StopInfo
stopWithoutMark(StopReason reason)
{
    StopInfo s;
    s.reason = reason;
    s.eventIndex = -1;
    s.time = 1234;
    s.appInsts = 567;
    s.pc = 0x100005c;
    return s;
}

StopInfo
stopWithMark(EventKind kind)
{
    StopInfo s = stopWithoutMark(StopReason::Event);
    s.eventIndex = 2;
    s.mark.kind = kind;
    s.mark.index = 1;
    s.mark.time = s.time;
    s.mark.appInsts = s.appInsts;
    s.mark.pc = 0x1000058;
    return s;
}

/** Every stats block filled, whatever the reply is to. */
void
fillStats(Response &r)
{
    r.stats = {1000, 250, 3, 4, 5, 6, 7, 8, 9, 10};
    ServerStats &s = r.server;
    uint64_t v = 100;
    for (uint64_t *c :
         {&s.activeSessions, &s.peakSessions, &s.created, &s.destroyed,
          &s.rejected, &s.maxSessions, &s.workers, &s.slices, &s.jobs,
          &s.totalUops, &s.totalAppInsts, &s.totalEvents,
          &s.eventsPushed, &s.subscribers, &s.dropped, &s.hibernated,
          &s.evictions, &s.resurrections, &s.quarantined,
          &s.faultsInjected})
        *c = v++;
    s.hists.push_back({"dise_verb_latency_us", 5, 77, {0, 2, 3}});
    s.hists.push_back({"dise_event_push_us", 0, 0, {}});
    s.hists.push_back({"a_first", 1, 1, {0, 1}});
    tools::ToolStatsRow t1;
    t1.name = "memtrace";
    t1.uopsSeen = 900;
    t1.checks = 80;
    t1.suppressed = 7;
    t1.findings = 0;
    tools::ToolStatsRow t2;
    t2.name = "asan";
    t2.uopsSeen = 1;
    t2.checks = 2;
    t2.suppressed = 3;
    t2.findings = 4;
    s.tools = {t1, t2};
    r.store = {11, 12, 13, 14, 15, 16, 17};
}

std::vector<Response>
responseCorpus()
{
    std::vector<Response> out;
    auto reply = [&](RequestKind re) -> Response & {
        out.emplace_back();
        out.back().seq = 42;
        out.back().inReplyTo = re;
        return out.back();
    };
    reply(RequestKind::Ping);
    Response &err = reply(RequestKind::Cont);
    err.status = ResponseStatus::Error;
    err.error = "no such session " + Awkward;
    Response &uns = reply(RequestKind::ReverseContinue);
    uns.status = ResponseStatus::Unsupported;
    uns.error = "batch runs cannot travel";

    // Each stats block, in a reply to its verb and (dropped) elsewhere.
    for (RequestKind re :
         {RequestKind::Stats, RequestKind::ServerStats,
          RequestKind::StoreStats, RequestKind::Ping})
        fillStats(reply(re));
    reply(RequestKind::ServerStats); // empty rows

    for (StopReason reason :
         {StopReason::Start, StopReason::Event, StopReason::Step,
          StopReason::Halted, StopReason::Fault, StopReason::InstLimit}) {
        Response &r = reply(RequestKind::Stepi);
        r.hasStop = true;
        r.stop = stopWithoutMark(reason);
    }
    for (EventKind kind :
         {EventKind::Watch, EventKind::Break, EventKind::Protection}) {
        Response &r = reply(RequestKind::Cont);
        r.hasStop = true;
        r.stop = stopWithMark(kind);
    }
    Response &regs = reply(RequestKind::ReadRegisters);
    for (uint64_t i = 0; i < 33; ++i)
        regs.regs.push_back(i * 0x1111111111111111ull);
    regs.regs.back() = ~0ull;
    Response &bytes = reply(RequestKind::ReadMemory);
    for (unsigned i = 0; i < 64; ++i)
        bytes.bytes.push_back(static_cast<uint8_t>(i * 37));
    reply(RequestKind::ReadMemory).value = 0xfeedface;
    reply(RequestKind::SessionCreate).value = ~0ull;
    reply(RequestKind::TraceDump).text = "{\"x\": [1, 2]}\n" + Awkward;
    for (int index : {-1, 0, 5})
        reply(RequestKind::SetWatch).index = index;
    Response &all = reply(RequestKind::Stats);
    all.status = ResponseStatus::Error;
    all.error = "everything";
    all.index = 1;
    all.hasStop = true;
    all.stop = stopWithMark(EventKind::Watch);
    all.regs = {1, 2};
    all.bytes = {0xab};
    all.value = 9;
    all.text = "t";
    fillStats(all);
    return out;
}

std::vector<SessionEvent>
eventCorpus()
{
    std::vector<SessionEvent> out;
    for (SessionEventKind kind : AllEventKinds) {
        SessionEvent e;
        e.kind = kind;
        e.seq = 17;
        e.time = 1234;
        e.appInsts = 567;
        e.pc = 0x100005c;
        e.index = 2;
        e.addr = 0x10002008;
        e.oldValue = 0x30;
        e.newValue = 0x60;
        e.value = 4;
        e.tool = "asan";
        e.detail = "heap-oob: " + Awkward;
        out.push_back(e);
    }
    SessionEvent bare;
    out.push_back(bare);
    bare.kind = SessionEventKind::ToolFinding;
    bare.index = -7;
    bare.detail = "only detail";
    out.push_back(bare);
    return out;
}

/** Hand-written lines: which decoder reads them, and the line. */
struct Probe
{
    char decoder; ///< 'Q' request, 'R' response, 'E' event
    const char *line;
};

const Probe Probes[] = {
    // Rejected at the parent already.
    {'Q', ""},
    {'Q', "   "},
    {'Q', "warp-speed seq=1"},
    {'Q', "set-watch seq=1"},
    {'Q', "set-watch addr=nope wkind=scalar"},
    {'Q', "set-watch addr=0x10 wkind=diagonal"},
    {'Q', "set-watch wkind=x"},
    {'Q', "set-break name=x"},
    {'Q', "select-backend backend=quantum"},
    {'Q', "select-backend seq=1"},
    {'Q', "cont =bare"},
    {'Q', "cont bare"},
    {'Q', "write-register seq=1"},
    {'Q', "write-register reg=1"},
    {'Q', "remove-watch seq=1"},
    {'Q', "read-memory size=8"},
    {'Q', "session-select seq=1"},
    {'Q', "session-create backend=quantum"},
    {'Q', "tool-enable"},
    {'Q', "tool-enable name="},
    {'Q', "tool-enable name=asan cfg.=1"},
    {'Q', "tool-enable name=asan cfg.redzone=%z"},
    {'R', "yes stop=1"},
    {'R', "ok seq=1 re=stepi stop=1 sreason=warp"},
    {'R', "ok seq=1 re=stepi stop=1"},
    {'R', "ok seq=1 re=read-registers regs=1,zz"},
    {'R', "ok seq=1 re=read-registers regs=1,,2"},
    {'R', "ok seq=1 re=read-memory bytes=abc"},
    {'R', "ok seq=1 re=server-stats hist.x=1:2"},
    {'R', "ok seq=1 re=server-stats hist.x=1:2:3,z"},
    {'R', "ok seq=1 re=server-stats tool.x=1:2:3"},
    {'R', "ok seq=1 re=server-stats tool.x=1:2:3:4:5"},
    {'E', "ok kind=watch"},
    {'E', "event kind=mystery"},
    {'E', "event seq=1"},

    // Accepted at the parent; rejected once values are checked.
    {'Q', "remove-watch index=4294967296"},
    {'Q', "remove-watch index=99999999999999999999"},
    {'Q', "write-register reg=4294967328 value=1"},
    {'Q', "write-memory addr=0x10 size=4294967297 value=1"},
    {'Q', "read-memory addr=0x10 size=4294967304"},
    {'Q', "reverse-step count=18446744073709551616"},
    {'Q', "stepi count=-1"},
    {'Q', "stepi count=banana"},
    {'Q', "set-watch wkind=scalar addr=0x10 size=banana"},
    {'Q', "set-watch wkind=scalar addr=0x10 name=%zz"},
    {'R', "ok seq=1 re=server-stats hist.x=a:b:1"},

    // Decode rules that hold either way.
    {'Q', "stepi seq=1 count=3 count=5"},
    {'Q', "stepi\tseq=1\vcount=010\fvalue=9\r"},
    {'Q', "stepi seq=0x10 count=0x1f colour=blue"},
    {'Q', "trace-start seq=1"},
    {'Q', "trace-dump seq=1 value=5"},
    {'Q', "session-create name=demo"},
    {'Q', "session-create name=demo backend="},
    {'Q', "session-hibernate"},
    {'Q', "tool-enable name=asan cfg.red%zz=1"},
    {'Q', "tool-enable name=asan cfg.b=2 cfg.a=1 cfg.a=3"},
    {'Q', "set-watch wkind=range addr=0x10 length=0x40 cond=1 pred=7"},
    {'Q', "set-break pc=0x1000 cond=1 caddr=0x20 csize=4 cconst=9"},
    {'Q', "read-memory addr=0x10"},
    {'Q', "remove-break index=-1"},
    {'R', "ok seq=1 re=bogus-verb value=0x5"},
    {'R', "error seq=9 re=cont msg=a%20b"},
    {'R', "ok seq=1 re=stepi stop=0 sreason=warp"},
    {'R', "ok seq=1 re=stepi stop=1 sreason=step sevent=-1 skind=break"},
    {'R', "ok seq=1 re=cont stop=1 sreason=event sevent=4 sindex=2 "
          "smarkpc=0x40 stime=9 sinsts=3 spc=0x44"},
    {'R', "ok seq=1 re=server-stats tool.b=1:2:3:4 tool.a=5:6:7:8 "
          "hist.b=1:2:3 hist.a=0:0:"},
    {'R', "ok seq=1 re=stats st.time=5 sv.active=3 ps.images=2"},
    {'R', "ok seq=1 re=read-registers regs="},
    {'E', "event kind=halted"},
    {'E', "event kind=watch seq=1 seq=2 index=-5 detail=%41"},

    // A verb the server no longer has is an unknown request.
    {'Q', "session-migrate session=1"},
};

/** Shows a probe's line with its control characters visible. */
std::string
shown(const std::string &line)
{
    std::string out;
    for (char c : line) {
        switch (c) {
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          case '\v': out += "\\v"; break;
          case '\f': out += "\\f"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    return out;
}

template <typename T, typename Enc, typename Dec>
void
verdict(std::ostream &os, const std::string &line, Enc enc, Dec dec)
{
    T back;
    std::string err;
    if (dec(line, back, &err))
        os << "  ok    " << enc(back) << "\n";
    else
        os << "  error " << err << "\n";
}

template <typename T, typename Enc, typename Dec>
void
roundTrip(std::ostream &os, const T &msg, Enc enc, Dec dec)
{
    std::string line = enc(msg);
    os << line << "\n";
    verdict<T>(os, line, enc, dec);
}

bool
decodeReq(const std::string &l, Request &r, std::string *e)
{
    return decodeRequest(l, r, e);
}

bool
decodeResp(const std::string &l, Response &r, std::string *e)
{
    return decodeResponse(l, r, e);
}

bool
decodeEv(const std::string &l, SessionEvent &r, std::string *e)
{
    return decodeEvent(l, r, e);
}

std::string
renderCorpus()
{
    std::ostringstream os;
    os << "=== requests\n";
    for (const Request &r : requestCorpus())
        roundTrip(os, r, encodeRequest, decodeReq);
    os << "=== responses\n";
    for (const Response &r : responseCorpus())
        roundTrip(os, r, encodeResponse, decodeResp);
    os << "=== events\n";
    for (const SessionEvent &e : eventCorpus())
        roundTrip(os, e, encodeEvent, decodeEv);
    os << "=== hand-written lines\n";
    for (const Probe &p : Probes) {
        os << p.decoder << " " << shown(p.line) << "\n";
        if (p.decoder == 'Q')
            verdict<Request>(os, p.line, encodeRequest, decodeReq);
        else if (p.decoder == 'R')
            verdict<Response>(os, p.line, encodeResponse, decodeResp);
        else
            verdict<SessionEvent>(os, p.line, encodeEvent, decodeEv);
    }
    return os.str();
}

TEST(WireGolden, CorpusMatchesGoldenFile)
{
    std::string got = renderCorpus();
    std::ifstream in(DISE_GOLDEN_FILE, std::ios::binary);
    std::stringstream want;
    want << in.rdbuf();
    if (got != want.str()) {
        std::ofstream("wire.actual.txt", std::ios::binary) << got;
        FAIL() << "corpus differs from " << DISE_GOLDEN_FILE
               << " (rendered output written to wire.actual.txt)";
    }
}

/** Values no numeric key may accept, and other damage. */
const char *const Overflows[] = {"18446744073709551616",
                                 "-18446744073709551617"};
const char *const Garbage[] = {"zz", "%", "%zz", "0x"};

/** Keys whose values are strings, tokens or byte strings. */
bool
textKey(const std::string &key)
{
    for (const char *k : {"name", "msg", "text", "detail", "tool",
                          "bytes", "wkind", "backend", "re", "sreason",
                          "skind", "kind"})
        if (key == k)
            return true;
    return key.rfind("cfg.", 0) == 0;
}

/** A decoder and encoder for one message type, over wire lines. */
struct Codec
{
    std::function<bool(const std::string &, std::string &,
                       std::string *)> reencode;
};

template <typename T, typename Enc, typename Dec>
Codec
codecOf(Enc enc, Dec dec)
{
    return {[enc, dec](const std::string &line, std::string &out,
                       std::string *err) {
        T msg;
        if (!dec(line, msg, err))
            return false;
        out = enc(msg);
        return true;
    }};
}

TEST(WireGolden, EveryKeyMutationIsRejectedOrStable)
{
    std::vector<std::pair<std::string, Codec>> inputs;
    Codec req = codecOf<Request>(encodeRequest, decodeReq);
    Codec resp = codecOf<Response>(encodeResponse, decodeResp);
    Codec ev = codecOf<SessionEvent>(encodeEvent, decodeEv);
    for (RequestKind kind : AllRequestKinds)
        inputs.push_back({encodeRequest(populatedRequest(kind)), req});
    for (RequestKind re :
         {RequestKind::Stats, RequestKind::ServerStats,
          RequestKind::StoreStats}) {
        Response r;
        r.seq = 42;
        r.inReplyTo = re;
        r.error = "e";
        r.index = 1;
        r.hasStop = true;
        r.stop = stopWithMark(EventKind::Break);
        r.regs = {1, 0xfeed};
        r.bytes = {0xab, 0xcd};
        r.value = 9;
        r.text = "t";
        fillStats(r);
        inputs.push_back({encodeResponse(r), resp});
    }
    for (const SessionEvent &e : eventCorpus())
        inputs.push_back({encodeEvent(e), ev});

    size_t mutants = 0;
    for (const auto &[line, codec] : inputs) {
        std::vector<std::string> toks;
        std::istringstream in(line);
        for (std::string t; in >> t;)
            toks.push_back(t);
        for (size_t i = 1; i < toks.size(); ++i) {
            size_t eq = toks[i].find('=');
            ASSERT_NE(eq, std::string::npos) << line;
            std::string key = toks[i].substr(0, eq);
            std::string value = toks[i].substr(eq + 1);
            auto with = [&](const std::string *replacement,
                            const std::string &extra) {
                std::string out = toks[0];
                for (size_t j = 1; j < toks.size(); ++j) {
                    if (j == i && !replacement)
                        continue;
                    out += ' ';
                    out += j == i ? key + "=" + *replacement : toks[j];
                }
                return out + extra;
            };
            std::vector<std::string> lines = {
                with(nullptr, ""),
                with(&value, " " + key + "=" + value + "7")};
            for (const char *bad : Garbage) {
                std::string v = bad;
                lines.push_back(with(&v, ""));
            }
            for (const char *bad : Overflows) {
                std::string v = bad;
                std::string mutant = with(&v, "");
                lines.push_back(mutant);
                if (textKey(key))
                    continue;
                std::string out, err;
                EXPECT_FALSE(codec.reencode(mutant, out, &err))
                    << "numeric key " << key << " accepted " << bad
                    << ": " << mutant;
            }
            for (const std::string &mutant : lines) {
                ++mutants;
                std::string once, twice, err;
                if (!codec.reencode(mutant, once, &err)) {
                    EXPECT_FALSE(err.empty()) << mutant;
                    continue;
                }
                ASSERT_TRUE(codec.reencode(once, twice, &err))
                    << mutant << " -> " << once << ": " << err;
                EXPECT_EQ(once, twice) << mutant;
            }
        }
    }
    EXPECT_GT(mutants, 1000u);
}

TEST(WireGolden, DescribeMatchesEncodeRequest)
{
    for (const Request &r : requestCorpus())
        EXPECT_EQ(r.describe(), encodeRequest(r));
}

} // namespace
} // namespace dise
