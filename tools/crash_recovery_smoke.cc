/**
 * @file
 * Crash-recovery smoke: the durable-store CI job.
 *
 * Forks a real rsp_server with --store-dir, drives one session per
 * watchpoint backend over TCP (watch, cont to the hit, a few steps,
 * session-persist), then SIGKILLs the daemon while an mcf run-to-end
 * is in flight — no orderly shutdown, no flush. A second daemon started on
 * the same store directory must recover every persisted session:
 * session-select resurrects each one by rebuild-replay, and the smoke
 * verifies position and state digest are bit-identical to what the
 * dead server reported. Exits non-zero on any mismatch or on a server
 * that fails to come back.
 *
 * Build & run:  ./build/crash_recovery_smoke [--server ./rsp_server]
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "persist/scratch_dir.hh"
#include "server/wire_client.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

using namespace dise;

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

/** Connect to a server that may still be starting up. */
bool
connectWithRetry(server::WireClient &w, uint16_t port)
{
    for (unsigned i = 0; i < 100; ++i) {
        if (w.connectTo(port))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
}

/** One wire request that must succeed: a reply came and it is ok. */
bool
callOk(server::WireClient &w, const std::string &line, Response &resp)
{
    return w.call(line, resp) && resp.ok();
}

pid_t
spawnServer(const std::string &exe, uint16_t port,
            const std::string &storeDir)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    std::string portStr = std::to_string(port);
    ::execl(exe.c_str(), exe.c_str(), "--port", portStr.c_str(),
            "--store-dir", storeDir.c_str(), "--max-sessions", "8",
            static_cast<char *>(nullptr));
    std::fprintf(stderr, "cannot exec %s\n", exe.c_str());
    ::_exit(127);
}

struct Persisted
{
    const char *backend;
    uint64_t id = 0;
    uint64_t appInsts = 0;
    uint64_t digest = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string exe = "./rsp_server";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--server" && i + 1 < argc)
            exe = argv[++i];
    }
    uint16_t port = static_cast<uint16_t>(
        30000 + (::getpid() % 10000) * 2);
    persist::ScratchDir store("crash_smoke_store");
    const std::string &storeDir = store.path;

    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    const char *backends[] = {"dise", "single-step", "vm", "hwreg",
                              "rewrite"};

    // ---- phase 1: populate the store through a live daemon --------
    pid_t first = spawnServer(exe, port, storeDir);
    CHECK(first > 0, "fork failed");

    std::vector<Persisted> sessions;
    server::WireClient wire;
    CHECK(connectWithRetry(wire, port), "first server never came up");
    unsigned seq = 1;
    for (const char *backend : backends) {
        Persisted p;
        p.backend = backend;
        Response resp;
        char line[128];
        std::snprintf(line, sizeof line,
                      "session-create seq=%u name=demo backend=%s",
                      seq++, backend);
        CHECK(callOk(wire, line, resp), "%s: create failed: %s",
              backend, resp.error.c_str());
        p.id = resp.value;

        Request setw;
        setw.kind = RequestKind::SetWatch;
        setw.seq = seq++;
        setw.watch = WatchSpec::scalar("w", watchAddr, 8);
        CHECK(callOk(wire, encodeRequest(setw), resp),
              "%s: set-watch failed: %s", backend, resp.error.c_str());

        std::snprintf(line, sizeof line, "cont seq=%u", seq++);
        CHECK(callOk(wire, line, resp), "%s: cont failed: %s",
              backend, resp.error.c_str());
        CHECK(resp.hasStop, "%s: cont returned no stop", backend);
        std::snprintf(line, sizeof line, "stepi seq=%u count=3",
                      seq++);
        CHECK(callOk(wire, line, resp), "%s: stepi failed: %s",
              backend, resp.error.c_str());

        // Crash-consistent image of the watch-hit+3 position.
        std::snprintf(line, sizeof line, "session-persist seq=%u",
                      seq++);
        CHECK(callOk(wire, line, resp),
              "%s: session-persist failed: %s", backend,
              resp.error.c_str());
        p.digest = resp.value;
        std::snprintf(line, sizeof line, "stats seq=%u", seq++);
        CHECK(callOk(wire, line, resp), "%s: stats failed",
              backend);
        p.appInsts = resp.stats.appInsts;
        std::printf("persisted %-12s session %llu @ %llu insts "
                    "(digest %016llx)\n",
                    backend, static_cast<unsigned long long>(p.id),
                    static_cast<unsigned long long>(p.appInsts),
                    static_cast<unsigned long long>(p.digest));
        sessions.push_back(p);
    }

    // ---- phase 2: SIGKILL with a job in flight --------------------
    // A fresh mcf session runs to its end on a helper thread, a run far
    // longer than the pause before the daemon dies; that call returns
    // false once the SIGKILL lands. Nothing after the persist images
    // reaches the store — recovery must cope with a store that is
    // simply *older* than the moment of death.
    {
        Response resp;
        char line[64];
        std::snprintf(line, sizeof line,
                      "session-create seq=%u name=mcf backend=dise", seq++);
        CHECK(callOk(wire, line, resp), "mcf: create failed: %s",
              resp.error.c_str());
    }
    char runLine[32];
    std::snprintf(runLine, sizeof runLine, "run-to-end seq=%u", seq++);
    bool answered = false; // read only after the join
    std::thread inFlight([&] {
        Response r;
        answered = wire.call(runLine, r);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    CHECK(::kill(first, SIGKILL) == 0, "SIGKILL failed");
    int status = 0;
    ::waitpid(first, &status, 0);
    CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
          "first server did not die from SIGKILL");
    inFlight.join();
    wire.close();
    std::printf("killed pid %ld %s; restarting on the same store\n",
                static_cast<long>(first),
                answered ? "after the run answered" : "mid-run");

    // ---- phase 3: restart on the same store, verify resurrection --
    uint16_t port2 = static_cast<uint16_t>(port + 1);
    pid_t second = spawnServer(exe, port2, storeDir);
    CHECK(second > 0, "second fork failed");
    server::WireClient wire2;
    CHECK(connectWithRetry(wire2, port2), "second server never came up");

    Response resp;
    CHECK(callOk(wire2, "server-stats seq=1", resp),
          "server-stats failed");
    CHECK(resp.server.hibernated == sessions.size(),
          "recovered %llu sessions, expected %zu",
          static_cast<unsigned long long>(resp.server.hibernated),
          sessions.size());

    seq = 2;
    for (const Persisted &p : sessions) {
        char line[128];
        std::snprintf(line, sizeof line,
                      "session-select seq=%u session=%llu", seq++,
                      static_cast<unsigned long long>(p.id));
        CHECK(callOk(wire2, line, resp),
              "%s: resurrection failed: %s", p.backend,
              resp.error.c_str());
        std::snprintf(line, sizeof line, "stats seq=%u", seq++);
        CHECK(callOk(wire2, line, resp), "%s: stats failed",
              p.backend);
        CHECK(resp.stats.appInsts == p.appInsts,
              "%s: position drifted (%llu != %llu)", p.backend,
              static_cast<unsigned long long>(resp.stats.appInsts),
              static_cast<unsigned long long>(p.appInsts));
        std::snprintf(line, sizeof line, "session-persist seq=%u",
                      seq++);
        CHECK(callOk(wire2, line, resp),
              "%s: re-persist failed: %s", p.backend,
              resp.error.c_str());
        CHECK(resp.value == p.digest,
              "%s: digest mismatch after resurrection "
              "(%016llx != %016llx)",
              p.backend, static_cast<unsigned long long>(resp.value),
              static_cast<unsigned long long>(p.digest));
        std::snprintf(line, sizeof line, "replay-verify seq=%u count=2",
                      seq++);
        CHECK(callOk(wire2, line, resp),
              "%s: replay-verify failed: %s", p.backend,
              resp.error.c_str());
        std::printf("resurrected %-12s session %llu @ %llu insts — "
                    "digest matches\n",
                    p.backend, static_cast<unsigned long long>(p.id),
                    static_cast<unsigned long long>(p.appInsts));
    }
    wire2.close();
    ::kill(second, SIGTERM);
    ::waitpid(second, &status, 0);

    if (failures) {
        std::fprintf(stderr, "crash-recovery smoke: %d FAILURE(S)\n",
                     failures);
        return 1;
    }
    std::printf("crash-recovery smoke: PASS (%zu backends, "
                "kill -9 mid-run, bit-identical resurrection)\n",
                sessions.size());
    return 0;
}
