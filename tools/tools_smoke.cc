/**
 * @file
 * Debug-tools smoke: the tools CI job.
 *
 * Forks a real rsp_server and, for every watchpoint backend, drives a
 * `tooldemo` session over TCP: enable all five debug tools
 * (tool-enable), run to completion, and fetch every tool's report and
 * state digest (tool-report). The tooldemo workload seeds one of each
 * bug class, so the smoke asserts each tool actually caught its prey —
 * and that reports and digests are bit-identical across all five
 * backends (tools observe retired application instructions only, so
 * the backend must not show through). Also covers:
 *
 *  - server-stats tool.* rollup rows (counters aggregated across
 *    live sessions);
 *  - tool-enable aimed at a *hibernated* session transparently
 *    resurrecting it (no explicit session-select);
 *  - the RSP monitor passthrough: `qRcmd,<hex(tool-list)>` from a
 *    plain GDB-remote connection.
 *
 * Exits non-zero on any mismatch; every wire call and RSP exchange
 * carries a timeout, so a hung server fails the job instead of wedging
 * it.
 *
 * Build & run:  ./build/tools_smoke [--server ./rsp_server]
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "persist/scratch_dir.hh"
#include "rsp/client.hh"
#include "rsp/packet.hh"
#include "server/wire_client.hh"

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

const char *kBackends[] = {"dise", "single-step", "vm", "hwreg",
                           "rewrite"};
const char *kTools[] = {"asan", "leakcheck", "coverage", "memtrace",
                        "addrleak"};

/** Per-backend record of what every tool reported. */
struct ToolResult
{
    std::string report;
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
        31000 + (::getpid() % 10000) * 2);
    persist::ScratchDir store("tools_smoke_store");
    const std::string &storeDir = store.path;

    pid_t server = spawnServer(exe, port, storeDir);
    CHECK(server > 0, "fork failed");
    server::WireClient wire;
    CHECK(connectWithRetry(wire, port), "server never came up");
    unsigned seq = 1;
    Response resp;

    // ---- every tool x every backend, reports compared pairwise ----
    std::map<std::string, ToolResult> reference; // from the first backend
    for (const char *backend : kBackends) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "session-create seq=%u name=tooldemo backend=%s",
                      seq++, backend);
        CHECK(callOk(wire, line, resp), "%s: create failed: %s",
              backend, resp.error.c_str());

        for (const char *tool : kTools) {
            // memtrace runs with suppression on, as the README advises.
            std::snprintf(line, sizeof line,
                          "tool-enable seq=%u name=%s%s", seq++, tool,
                          std::strcmp(tool, "memtrace") == 0
                              ? " cfg.suppress=1"
                              : "");
            CHECK(callOk(wire, line, resp),
                  "%s: enable %s failed: %s", backend, tool,
                  resp.error.c_str());
        }
        std::snprintf(line, sizeof line, "tool-list seq=%u", seq++);
        CHECK(callOk(wire, line, resp), "%s: tool-list failed",
              backend);
        for (const char *tool : kTools)
            CHECK(resp.text.find(std::string(tool) + "*") !=
                      std::string::npos,
                  "%s: tool-list does not mark %s enabled: '%s'",
                  backend, tool, resp.text.c_str());

        std::snprintf(line, sizeof line, "run-to-end seq=%u", seq++);
        CHECK(callOk(wire, line, resp), "%s: run failed: %s",
              backend, resp.error.c_str());
        CHECK(resp.hasStop, "%s: run-to-end returned no stop", backend);

        for (const char *tool : kTools) {
            std::snprintf(line, sizeof line,
                          "tool-report seq=%u name=%s", seq++, tool);
            CHECK(callOk(wire, line, resp),
                  "%s: report %s failed: %s", backend, tool,
                  resp.error.c_str());
            CHECK(!resp.text.empty() && resp.value != 0,
                  "%s: %s report empty or digest zero", backend, tool);
            auto it = reference.find(tool);
            if (it == reference.end()) {
                reference[tool] = {resp.text, resp.value};
            } else {
                CHECK(it->second.digest == resp.value,
                      "%s: %s digest %016llx != %s on %s", backend,
                      tool,
                      static_cast<unsigned long long>(resp.value),
                      tool, kBackends[0]);
                CHECK(it->second.report == resp.text,
                      "%s: %s report text diverged from %s", backend,
                      tool, kBackends[0]);
            }
        }
        std::printf("%-12s all five tools enabled, run, reported\n",
                    backend);
    }

    // The seeded bugs, as the first backend saw them (all backends
    // already proved identical above).
    // heap-oob + use-after-free + invalid-free
    CHECK(reference["asan"].report.find("3 findings") !=
              std::string::npos,
          "asan missed a seeded bug: %s",
          reference["asan"].report.c_str());
    CHECK(reference["leakcheck"].report.find("1 live blocks") !=
              std::string::npos,
          "leakcheck leak count wrong: %s",
          reference["leakcheck"].report.c_str());
    CHECK(reference["addrleak"].report.find("1 leaks") !=
              std::string::npos,
          "addrleak sink count wrong: %s",
          reference["addrleak"].report.c_str());
    CHECK(reference["memtrace"].report.find("suppress=1") !=
              std::string::npos,
          "memtrace lost its config: %s",
          reference["memtrace"].report.c_str());

    // ---- server-stats rollup: tool.* rows across live sessions ----
    {
        char line[64];
        std::snprintf(line, sizeof line, "server-stats seq=%u", seq++);
        CHECK(callOk(wire, line, resp), "server-stats failed");
        const size_t nBackends =
            sizeof kBackends / sizeof kBackends[0];
        std::map<std::string, tools::ToolStatsRow> rows;
        for (const tools::ToolStatsRow &r : resp.server.tools)
            rows[r.name] = r;
        for (const char *tool : kTools) {
            CHECK(rows.count(tool), "no tool.%s row in server-stats",
                  tool);
            CHECK(rows[tool].uopsSeen > 0, "tool.%s saw no uops", tool);
        }
        // Three asan findings per session (heap-oob, use-after-free,
        // invalid-free).
        CHECK(rows["asan"].findings == 3 * nBackends,
              "asan rollup findings %llu != %zu",
              static_cast<unsigned long long>(rows["asan"].findings),
              3 * nBackends);
        CHECK(rows["memtrace"].suppressed > 0,
              "memtrace rollup shows no suppression");
    }

    // ---- tool-enable on a hibernated session resurrects it --------
    {
        char line[160];
        std::snprintf(line, sizeof line,
                      "session-create seq=%u name=tooldemo backend=dise",
                      seq++);
        CHECK(callOk(wire, line, resp), "6th create failed: %s",
              resp.error.c_str());
        uint64_t id = resp.value;
        std::snprintf(line, sizeof line, "stepi seq=%u count=50",
                      seq++);
        CHECK(callOk(wire, line, resp), "stepi failed: %s",
              resp.error.c_str());
        std::snprintf(line, sizeof line, "session-hibernate seq=%u",
                      seq++);
        CHECK(callOk(wire, line, resp), "hibernate failed: %s",
              resp.error.c_str());
        std::snprintf(line, sizeof line, "server-stats seq=%u", seq++);
        CHECK(callOk(wire, line, resp) &&
                  resp.server.hibernated == 1,
              "expected exactly one hibernated session");

        // No session-select: the tool verb itself names the sleeper.
        std::snprintf(line, sizeof line,
                      "tool-enable seq=%u session=%llu name=asan",
                      seq++, static_cast<unsigned long long>(id));
        CHECK(callOk(wire, line, resp),
              "tool-enable on hibernated session failed: %s",
              resp.error.c_str());
        std::snprintf(line, sizeof line, "server-stats seq=%u", seq++);
        CHECK(callOk(wire, line, resp) &&
                  resp.server.hibernated == 0,
              "tool-enable did not resurrect the sleeper");
        std::snprintf(line, sizeof line, "run-to-end seq=%u", seq++);
        CHECK(callOk(wire, line, resp),
              "resurrected run failed: %s", resp.error.c_str());
        // The digest differs from the straight-through runs by design
        // (asan armed at inst 50 misses the early allocs) — what must
        // hold is that the resurrected session reports at all.
        std::snprintf(line, sizeof line,
                      "tool-report seq=%u session=%llu name=asan",
                      seq++, static_cast<unsigned long long>(id));
        CHECK(callOk(wire, line, resp) && resp.value != 0 &&
                  resp.text.find("asan:") != std::string::npos,
              "resurrected session's asan report missing");
        std::printf("hibernated session %llu resurrected by "
                    "tool-enable; asan armed and reporting\n",
                    static_cast<unsigned long long>(id));
    }

    // ---- RSP monitor passthrough: qRcmd from a GDB connection -----
    {
        rsp::RspClient gdb;
        CHECK(gdb.connectTo(port), "RSP connect failed");
        std::string cmd = "tool-list";
        std::string hex =
            rsp::toHex(std::vector<uint8_t>(cmd.begin(), cmd.end()));
        std::string reply = gdb.exchange("qRcmd," + hex);
        std::vector<uint8_t> bytes;
        CHECK(rsp::fromHex(reply, bytes),
              "qRcmd reply is not hex: '%s'", reply.c_str());
        std::string text(bytes.begin(), bytes.end());
        CHECK(text.find("asan") != std::string::npos &&
                  text.find("memtrace") != std::string::npos,
              "monitor tool-list incomplete: '%s'", text.c_str());
        gdb.exchange("D");
        gdb.close();
        std::printf("qRcmd monitor passthrough: %s",
                    text.c_str()); // text ends with \n
    }

    wire.close();
    ::kill(server, SIGTERM);
    int status = 0;
    ::waitpid(server, &status, 0);

    if (failures) {
        std::fprintf(stderr, "tools smoke: %d FAILURE(S)\n", failures);
        return 1;
    }
    std::printf("tools smoke: PASS (5 tools x 5 backends over the "
                "wire, identical findings everywhere)\n");
    return 0;
}
