/**
 * @file
 * Scripted GDB-RSP client: the CI smoke job.
 *
 * For each of the five watchpoint backends, starts a DebugServer on a
 * loopback port (that backend as its default, the demo workload),
 * connects over real TCP, and drives one debugging session — qSupported handshake, Z2 watchpoint insert, `c` to the
 * first two hits, `bc` back across the second, `bs`, a
 * `vCont?`/`vCont;s`/`vCont;c` round-trip, a `qXfer:features:read`
 * target description fetch, `m`, detach — verifying every stop
 * location against an in-process DebugSession running the identical
 * scenario. Exits non-zero on any mismatch;
 * every socket read carries a timeout so a hung server fails the job
 * instead of wedging it.
 *
 * Build & run:  ./build/rsp_smoke
 */

#include <cstdio>

#include "rsp/client.hh"
#include "server/server.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

using namespace dise;
using namespace dise::rsp;

namespace {

int failures = 0;

#define CHECK(cond, ...)                                                \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__);   \
            std::fprintf(stderr, __VA_ARGS__);                          \
            std::fprintf(stderr, "\n");                                 \
            ++failures;                                                 \
        }                                                               \
    } while (0)

SessionOptions
optionsFor(BackendKind kind)
{
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 500;
    return o;
}

void
driveBackend(BackendKind kind)
{
    const char *name = backendName(kind);
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");

    // In-process reference session: identical scenario, typed verbs.
    DebugSession ref(prog, optionsFor(kind));
    ref.setWatch(WatchSpec::scalar("directory", watchAddr, 8));
    if (!ref.attach()) {
        std::printf("%-16s n/a (backend cannot attach)\n", name);
        return;
    }
    StopInfo refHit1 = ref.cont();
    StopInfo refHit2 = ref.cont();
    StopInfo refBack = ref.reverseContinue();
    StopInfo refStep = ref.reverseStep(1);
    CHECK(refHit1.reason == StopReason::Event, "%s: no first hit", name);
    CHECK(refHit2.reason == StopReason::Event, "%s: no second hit",
          name);
    CHECK(refBack.time == refHit1.time,
          "%s: reference bc missed the first hit", name);

    // Wire session: a second, independent target driven over TCP. The
    // server gives each RSP client its own session on the demo.
    server::DebugServerOptions opts;
    opts.defaultBackend = kind;
    opts.session = optionsFor(kind);
    server::DebugServer server(opts);
    if (!server.start()) {
        CHECK(false, "%s: server start failed", name);
        return;
    }
    RspClient client;
    if (!client.connectTo(server.port())) {
        CHECK(false, "%s: connect failed", name);
        return;
    }

    std::string supported = client.exchange("qSupported:hwbreak+");
    CHECK(supported.find("ReverseContinue+") != std::string::npos,
          "%s: qSupported lacks reverse: '%s'", name, supported.c_str());
    CHECK(client.exchange("?") == "S05", "%s: bad initial ?", name);

    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    CHECK(client.exchange(z2) == "OK", "%s: Z2 rejected", name);

    uint64_t pc1 = 0, pc2 = 0, pcBack = 0, pcStep = 0;
    std::string hit1 = client.exchange("c");
    CHECK(hit1.find("watch:") != std::string::npos,
          "%s: c reply lacks watch: '%s'", name, hit1.c_str());
    CHECK(stopReplyPc(hit1, pc1) && pc1 == refHit1.pc,
          "%s: first hit pc %llx != reference %llx", name,
          static_cast<unsigned long long>(pc1),
          static_cast<unsigned long long>(refHit1.pc));

    std::string hit2 = client.exchange("c");
    CHECK(stopReplyPc(hit2, pc2) && pc2 == refHit2.pc,
          "%s: second hit diverged: '%s'", name, hit2.c_str());

    std::string back = client.exchange("bc");
    CHECK(back.find("watch:") != std::string::npos,
          "%s: bc reply lacks watch: '%s'", name, back.c_str());
    CHECK(stopReplyPc(back, pcBack) && pcBack == refBack.pc,
          "%s: bc pc %llx != reference %llx", name,
          static_cast<unsigned long long>(pcBack),
          static_cast<unsigned long long>(refBack.pc));

    std::string step = client.exchange("bs");
    CHECK(stopReplyPc(step, pcStep) && pcStep == refStep.pc,
          "%s: bs diverged: '%s'", name, step.c_str());

    // vCont round-trip: the action form of the same verbs.
    std::string vq = client.exchange("vCont?");
    CHECK(vq == "vCont;c;C;s;S", "%s: vCont? said '%s'", name,
          vq.c_str());
    StopInfo refVs = ref.stepi(1);
    uint64_t pcVs = 0;
    std::string vs = client.exchange("vCont;s");
    CHECK(stopReplyPc(vs, pcVs) && pcVs == refVs.pc,
          "%s: vCont;s diverged: '%s'", name, vs.c_str());
    StopInfo refVc = ref.cont();
    std::string vc = client.exchange("vCont;c");
    if (refVc.reason == StopReason::Event) {
        uint64_t pcVc = 0;
        CHECK(stopReplyPc(vc, pcVc) && pcVc == refVc.pc,
              "%s: vCont;c diverged: '%s'", name, vc.c_str());
    } else {
        CHECK(vc == "W00", "%s: vCont;c at end said '%s'", name,
              vc.c_str());
    }

    // Target description: gdb must not have to guess the registers.
    std::string xml =
        client.exchange("qXfer:features:read:target.xml:0,1000");
    CHECK(!xml.empty() && (xml[0] == 'l' || xml[0] == 'm') &&
              xml.find("<target") != std::string::npos &&
              xml.find("org.dise.sim.core") != std::string::npos,
          "%s: bad target.xml reply: '%.60s'", name, xml.c_str());

    // Memory read-back of the watched cell at matched positions.
    char m[64];
    std::snprintf(m, sizeof m, "m%llx,8",
                  static_cast<unsigned long long>(watchAddr));
    std::string mem = client.exchange(m);
    std::vector<uint8_t> refBytes = ref.readMemory(watchAddr, 8);
    CHECK(mem == toHex(refBytes), "%s: memory diverged: %s vs %s", name,
          mem.c_str(), toHex(refBytes).c_str());

    CHECK(client.exchange("D") == "OK", "%s: detach failed", name);
    client.close();
    server.stop();

    std::printf("%-16s ok: c@0x%llx c@0x%llx bc@0x%llx bs@0x%llx\n",
                name, static_cast<unsigned long long>(pc1),
                static_cast<unsigned long long>(pc2),
                static_cast<unsigned long long>(pcBack),
                static_cast<unsigned long long>(pcStep));
}

} // namespace

int
main()
{
    std::printf("RSP smoke: attach over TCP, Z2, c, bc on every "
                "backend\n");
    for (BackendKind kind :
         {BackendKind::Dise, BackendKind::SingleStep,
          BackendKind::VirtualMemory, BackendKind::HardwareReg,
          BackendKind::Rewrite})
        driveBackend(kind);
    if (failures) {
        std::fprintf(stderr, "rsp_smoke: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("rsp_smoke: all backends agree with the in-process "
                "session\n");
    return 0;
}
