/**
 * @file
 * The multi-session debug daemon: one process and one TCP port
 * serving many concurrent targets.
 *
 * Every connecting GDB (or any RSP client) gets its own
 * per-connection session — two gdbs against one daemon debug two
 * independent targets — while typed-wire clients manage shared
 * sessions with the session-* verbs (session-create, session-select,
 * session-destroy, session-list, server-stats). Admission is capped
 * by --max-sessions; execution is round-robined in bounded µop slices
 * across --workers slots.
 *
 *   ./build/rsp_server                          # demo scenario, port 7777
 *   ./build/rsp_server --port 9999 --backend single-step
 *   ./build/rsp_server --workload twolf --max-sessions 32 --workers 8
 *
 * Then, from any number of gdbs:
 *   (gdb) target remote 127.0.0.1:7777
 * or from a wire client (one request per line):
 *   session-create seq=1 name=mcf backend=dise
 *   cont seq=2
 *   server-stats seq=3
 *
 * Observability: --trace-out arms the flight recorder at startup and
 * writes the Chrome trace_event JSON (open it in Perfetto) on clean
 * shutdown (SIGINT/SIGTERM); clients can also drive trace-start /
 * trace-stop / trace-dump and scrape `metrics` over the wire at any
 * time.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "server/server.hh"
#include "workloads/workload.hh"

using namespace dise;

namespace {

/** Self-pipe written by the signal handler: main blocks on the read
 *  end instead of srv.wait(), so a SIGINT/SIGTERM unwinds through the
 *  normal shutdown path (stop, dump trace, exit) instead of killing
 *  the process mid-write. */
int shutdownPipe[2] = {-1, -1};

void
onShutdownSignal(int)
{
    char byte = 1;
    // Best effort; a full pipe means a shutdown is already pending.
    [[maybe_unused]] ssize_t n = ::write(shutdownPipe[1], &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    server::DebugServerOptions opts;
    opts.port = 7777;
    opts.session.timeTravel.checkpointInterval = 1024;
    std::string traceOut;
    uint64_t traceBufferKb = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--port") {
            opts.port = static_cast<uint16_t>(std::atoi(next()));
        } else if (arg == "--backend") {
            if (!parseBackendToken(next(), opts.defaultBackend))
                fatal("unknown backend (dise, single-step, vm, hwreg, "
                      "rewrite)");
        } else if (arg == "--workload") {
            opts.defaultWorkload = next();
        } else if (arg == "--max-sessions") {
            opts.maxSessions =
                static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--workers") {
            opts.slots = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--slice") {
            opts.sliceInsts =
                static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--store-dir") {
            opts.storeDir = next();
        } else if (arg == "--trace-out") {
            traceOut = next();
        } else if (arg == "--trace-buffer-kb") {
            traceBufferKb =
                static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--log-level") {
            LogLevel level = LogLevel::Info;
            if (!parseLogLevel(next(), level))
                fatal("unknown log level (error, warn, info, debug)");
            setLogLevel(level);
        } else if (arg == "--chaos-seed") {
            // Probability-armed fault injection across every store
            // primitive and scheduler slice boundary — the daemon's
            // chaos mode (crash-recovery CI uses it).
            static persist::FaultInjector chaos(
                static_cast<uint64_t>(std::atoll(next())));
            for (auto site : {persist::FaultInjector::Site::Open,
                              persist::FaultInjector::Site::Write,
                              persist::FaultInjector::Site::Fsync,
                              persist::FaultInjector::Site::Rename})
                chaos.armProbability(site, 1, 64);
            chaos.armProbability(persist::FaultInjector::Site::Slice,
                                 1, 256);
            opts.faults = &chaos;
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options:\n"
                "  --port N          TCP port (default 7777)\n"
                "  --backend NAME    dise | single-step | vm | hwreg | "
                "rewrite (RSP default)\n"
                "  --workload NAME   target for RSP connections "
                "(default: the heisenbug demo)\n"
                "  --max-sessions N  admission cap, 0 = unlimited "
                "(default 8)\n"
                "  --workers N       scheduler threads running every "
                "session's slices\n"
                "                    (default: hardware concurrency)\n"
                "  --slice N         app instructions per slice "
                "(default 50000)\n"
                "  --store-dir DIR   durable session store: crash "
                "recovery on start,\n"
                "                    LRU hibernation at the cap\n"
                "  --trace-out FILE  arm the flight recorder now; "
                "write Chrome trace\n"
                "                    JSON (Perfetto) on SIGINT/SIGTERM\n"
                "  --trace-buffer-kb N  per-thread trace ring size "
                "(default 256)\n"
                "  --log-level L     error | warn | info | debug "
                "(also: DISE_LOG env)\n"
                "  --chaos-seed N    seeded fault injection on store + "
                "scheduler paths\n"
                "  --verbose         log packets and connections\n");
            return 0;
        } else {
            fatal("unknown option '", arg, "' (try --help)");
        }
    }

    // Print the watch candidate for the default target so a gdb user
    // knows where to aim.
    if (opts.defaultWorkload.empty() || opts.defaultWorkload == "demo") {
        Program demo = buildHeisenbugDemo();
        std::printf("RSP sessions serve the heisenbug demo (watch "
                    "candidate: directory @ 0x%llx)\n",
                    static_cast<unsigned long long>(
                        demo.symbol("directory")));
    } else {
        Workload w = buildWorkload(opts.defaultWorkload, {});
        std::printf("RSP sessions serve workload '%s' (HOT variable @ "
                    "0x%llx)\n",
                    opts.defaultWorkload.c_str(),
                    static_cast<unsigned long long>(w.hotAddr));
    }

    server::DebugServer srv(opts);
    if (!srv.start()) {
        std::fprintf(stderr, "cannot bind 127.0.0.1:%u\n", opts.port);
        return 1;
    }
    std::printf(
        "multi-session daemon on 127.0.0.1:%u — %s backend, cap %u "
        "sessions, %u scheduler workers\n"
        "  gdb -ex 'target remote 127.0.0.1:%u'   (each gdb gets its "
        "own target)\n",
        srv.port(), backendName(opts.defaultBackend), opts.maxSessions,
        srv.scheduler().workers(), srv.port());
    if (!opts.storeDir.empty())
        std::printf("  durable store: %s (%llu hibernated session(s) "
                    "recovered)\n",
                    opts.storeDir.c_str(),
                    static_cast<unsigned long long>(
                        srv.stats().hibernated));

    if (traceOut.empty()) {
        srv.wait();
        return 0;
    }

    // Flight-recorder mode: arm now, block on the self-pipe instead of
    // srv.wait(), and render the dump during orderly shutdown.
    obs::Tracer::instance().arm(
        static_cast<size_t>(traceBufferKb) * 1024);
    std::printf("  flight recorder armed -> %s (%llu KiB/thread)\n",
                traceOut.c_str(),
                static_cast<unsigned long long>(
                    traceBufferKb ? traceBufferKb : 256));
    if (::pipe(shutdownPipe) != 0)
        fatal("cannot create shutdown pipe");
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onShutdownSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    char byte;
    while (::read(shutdownPipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::printf("shutting down; writing trace to %s\n",
                traceOut.c_str());
    srv.stop();
    obs::Tracer::instance().disarm();
    std::string json = obs::Tracer::instance().dumpJson();
    std::FILE *f = std::fopen(traceOut.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", traceOut.c_str());
        return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %llu bytes of trace (open in "
                "https://ui.perfetto.dev)\n",
                static_cast<unsigned long long>(json.size()));
    return 0;
}
