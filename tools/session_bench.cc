/**
 * @file
 * Multi-session scaling benchmark: aggregate simulated MIPS as a
 * function of concurrent session count.
 *
 * For N in {1, 2, 4, 8}, hosts N independent instrumented sessions
 * (each its own workload instance with a watched variable under the
 * chosen backend) in one SessionManager, drives them all to
 * completion through the JobScheduler from N client threads, and reports
 * total application instructions / wall time. Sessions are
 * share-nothing, so aggregate throughput should scale with
 * min(sessions, slots, cores) — the "many concurrent users" claim,
 * measured.
 *
 * Emits BENCH_sessions.json:
 *   ./build/session_bench --out BENCH_sessions.json
 *   ./build/session_bench --quick        # CI smoke (small work items)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "persist/scratch_dir.hh"
#include "persist/store.hh"
#include "server/job_scheduler.hh"
#include "server/session_manager.hh"
#include "workloads/workload.hh"

using namespace dise;
using namespace dise::server;

namespace {

struct RunResult
{
    unsigned sessions = 0;
    uint64_t totalInsts = 0;
    uint64_t totalUops = 0;
    uint64_t totalEvents = 0;
    uint64_t slices = 0;
    double wallMs = 0;
    double mips = 0;
};

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** Drive N sessions of @p workload to completion on one scheduler. */
RunResult
runScale(unsigned n, const std::string &workload, BackendKind backend,
         unsigned scale, unsigned slots)
{
    Workload proto = buildWorkload(workload, {scale});
    Addr watchAddr = proto.warm1Addr;

    SessionManagerOptions mopts;
    mopts.maxSessions = n;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager manager(
        mopts, [&](const std::string &, Program &out) {
            out = buildWorkload(workload, {scale}).program;
            return true;
        });
    JobScheduler queue({slots, 50000});

    std::vector<ManagedSessionPtr> sessions;
    for (unsigned i = 0; i < n; ++i) {
        ManagedSessionPtr ms = manager.create(workload, backend);
        DISE_ASSERT(ms, "admission failed in bench");
        ms->session.setWatch(
            WatchSpec::scalar("WARM1", watchAddr, 8));
        sessions.push_back(std::move(ms));
    }

    uint64_t slices0 = queue.slicesRun();
    double t0 = nowMs();
    std::vector<std::thread> drivers;
    for (auto &ms : sessions)
        drivers.emplace_back([&queue, ms] {
            StopInfo stop;
            std::string err;
            bool ok = queue.drive(*ms, RequestKind::RunToEnd, 0, stop,
                                  &err);
            DISE_ASSERT(ok, "bench session failed: ", err);
        });
    for (auto &t : drivers)
        t.join();
    double t1 = nowMs();

    RunResult r;
    r.sessions = n;
    r.wallMs = t1 - t0;
    r.slices = queue.slicesRun() - slices0;
    for (auto &ms : sessions) {
        r.totalInsts += ms->appInsts.load();
        r.totalUops += ms->uops.load();
        r.totalEvents += ms->events.load();
    }
    r.mips = r.wallMs > 0 ? r.totalInsts / (r.wallMs * 1000.0) : 0;
    return r;
}

struct DurableResult
{
    unsigned iters = 0;
    uint64_t appInsts = 0;
    uint64_t imageBytes = 0;
    double hibernateMs = 0; ///< mean export + crash-consistent put
    double resurrectMs = 0; ///< mean load + rebuild-replay + verify
};

/** Hibernate/resurrect round-trip latency at a mid-run position. */
DurableResult
runDurable(const std::string &workload, BackendKind backend,
           unsigned scale, unsigned iters)
{
    const char *tmp = std::getenv("TMPDIR");
    persist::ScratchDir scratch(std::string(tmp && *tmp ? tmp : "/tmp") +
                                "/session_bench_store");
    persist::RealVfs vfs;
    persist::SessionStore store(scratch.path, vfs);
    DISE_ASSERT(store.open().ok, "bench store open failed");

    Workload proto = buildWorkload(workload, {scale});
    SessionManagerOptions mopts;
    mopts.maxSessions = 2;
    SessionManager manager(
        mopts, [&](const std::string &, Program &out) {
            out = buildWorkload(workload, {scale}).program;
            return true;
        });
    manager.adoptStore(&store);
    JobScheduler queue({1, 50000});

    ManagedSessionPtr ms = manager.create(workload, backend);
    DISE_ASSERT(ms, "bench admission failed");
    ms->session.setWatch(
        WatchSpec::scalar("WARM1", proto.warm1Addr, 8));
    StopInfo stop;
    std::string err;
    DISE_ASSERT(queue.drive(*ms, RequestKind::Cont, 0, stop, &err),
                "bench cont failed: ", err);

    DurableResult r;
    r.iters = iters;
    r.appInsts = ms->appInsts.load();
    uint64_t id = ms->id;
    ms.reset();
    for (unsigned i = 0; i < iters; ++i) {
        double t0 = nowMs();
        DISE_ASSERT(manager.hibernate(id, &err),
                    "bench hibernate failed: ", err);
        double t1 = nowMs();
        ms = manager.find(id, false, &err);
        DISE_ASSERT(ms, "bench resurrect failed: ", err);
        double t2 = nowMs();
        ms.reset();
        r.hibernateMs += t1 - t0;
        r.resurrectMs += t2 - t1;
    }
    r.hibernateMs /= iters;
    r.resurrectMs /= iters;
    r.imageBytes = store.counters().bytes;

    manager.destroy(id);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out = "BENCH_sessions.json";
    std::string workload = "mcf";
    BackendKind backend = BackendKind::Dise;
    unsigned slots = 0; // hardware concurrency

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out")
            out = next();
        else if (arg == "--workload")
            workload = next();
        else if (arg == "--workers")
            slots = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--backend") {
            if (!parseBackendToken(next(), backend))
                fatal("unknown backend");
        } else {
            fatal("unknown option '", arg, "'");
        }
    }

    unsigned scale = quick ? 1 : 4;
    unsigned hw = std::thread::hardware_concurrency();
    std::printf("session scaling bench: workload=%s backend=%s "
                "scale=%u cores=%u slots=%s\n",
                workload.c_str(), backendName(backend), scale, hw,
                slots ? std::to_string(slots).c_str() : "hw");

    std::vector<RunResult> results;
    DurableResult d;
    // Catch bench assertions (they throw) so ScratchDir unwinds and
    // early failures never leak a scratch store into the filesystem.
    try {
        for (unsigned n : {1u, 2u, 4u, 8u}) {
            RunResult r = runScale(n, workload, backend, scale, slots);
            results.push_back(r);
            std::printf(
                "  %u session(s): %8.1f ms, %llu insts, %llu slices, "
                "aggregate %.2f MIPS (%.2fx vs 1)\n",
                n, r.wallMs,
                static_cast<unsigned long long>(r.totalInsts),
                static_cast<unsigned long long>(r.slices), r.mips,
                results.front().mips > 0
                    ? r.mips / results.front().mips
                    : 0);
        }
        d = runDurable(workload, backend, scale, quick ? 3 : 10);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench failed: %s\n", e.what());
        return 1;
    }
    std::printf("  durable round-trip @ %llu insts: hibernate %.2f ms, "
                "resurrect %.2f ms, image %llu bytes (%u iters)\n",
                static_cast<unsigned long long>(d.appInsts),
                d.hibernateMs, d.resurrectMs,
                static_cast<unsigned long long>(d.imageBytes),
                d.iters);

    FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        fatal("cannot write ", out);
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"sessions\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"workload\": \"%s\",\n", workload.c_str());
    std::fprintf(f, "  \"backend\": \"%s\",\n", backendName(backend));
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
    std::fprintf(f, "  \"slots\": %u,\n",
                 slots ? slots : std::max(2u, hw));
    std::fprintf(f, "  \"slice_insts\": 50000,\n");
    std::fprintf(f, "  \"runs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        std::fprintf(
            f,
            "    {\"sessions\": %u, \"total_app_insts\": %llu, "
            "\"total_uops\": %llu, \"events\": %llu, \"slices\": %llu, "
            "\"wall_ms\": %g, \"aggregate_mips\": %g, "
            "\"scaling_vs_1\": %g}%s\n",
            r.sessions, static_cast<unsigned long long>(r.totalInsts),
            static_cast<unsigned long long>(r.totalUops),
            static_cast<unsigned long long>(r.totalEvents),
            static_cast<unsigned long long>(r.slices), r.wallMs,
            r.mips,
            results.front().mips > 0 ? r.mips / results.front().mips
                                     : 0,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"durable\": {\"iterations\": %u, \"app_insts\": %llu, "
        "\"image_bytes\": %llu, \"hibernate_ms\": %g, "
        "\"resurrect_ms\": %g}\n",
        d.iters, static_cast<unsigned long long>(d.appInsts),
        static_cast<unsigned long long>(d.imageBytes), d.hibernateMs,
        d.resurrectMs);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
