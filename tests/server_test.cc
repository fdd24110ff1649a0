/**
 * @file
 * Multi-session server tests: the SessionManager's admission cap and
 * stat rollups, the JobScheduler's slicing/round-robin/teardown-mid-run
 * behavior, and the one-port TCP front end serving concurrent RSP and
 * typed-wire clients on distinct targets with isolated, cross-checked
 * stop locations — including a seeded-random multi-client soak.
 */

#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <utility>

#include "common/stats.hh"
#include "persist/fault_injector.hh"
#include "persist/scratch_dir.hh"
#include "persist/store.hh"
#include "persist/vfs.hh"
#include "obs/metrics.hh"
#include "rsp/client.hh"
#include "rsp/server.hh"
#include "server/server.hh"
#include "server/wire_client.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

using namespace server;
using rsp::RspClient;
using rsp::stopReplyPc;

SessionOptions
smallSessions()
{
    SessionOptions o;
    o.timeTravel.checkpointInterval = 512;
    return o;
}

/** One wire request that must succeed: a reply came and it is ok. */
bool
callOk(WireClient &c, const std::string &line, Response &resp)
{
    return c.call(line, resp) && resp.ok();
}

// ------------------------------------------------------ SessionManager

TEST(SessionManager, AdmissionCapAndLifecycle)
{
    SessionManager mgr({2, smallSessions()});
    std::string err;
    ManagedSessionPtr a = mgr.create("demo", BackendKind::Dise);
    ManagedSessionPtr b = mgr.create("mcf", BackendKind::Dise);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(mgr.count(), 2u);

    ManagedSessionPtr c =
        mgr.create("demo", BackendKind::Dise, false, &err);
    EXPECT_EQ(c, nullptr);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
    EXPECT_EQ(mgr.stats().rejected, 1u);

    // Destroying one frees a slot.
    EXPECT_TRUE(mgr.destroy(a->id));
    EXPECT_TRUE(a->closing.load());
    EXPECT_FALSE(mgr.destroy(a->id)); // already gone
    ManagedSessionPtr d = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(d);
    EXPECT_EQ(mgr.count(), 2u);
    EXPECT_EQ(mgr.stats().peakSessions, 2u);
    EXPECT_EQ(mgr.stats().created, 3u);

    // Unknown workloads are rejected, not fatal.
    EXPECT_EQ(mgr.create("not-a-workload", BackendKind::Dise, false,
                         &err),
              nullptr);
    EXPECT_NE(err.find("unknown workload"), std::string::npos);

    // Exclusive (per-connection) sessions never resolve via select.
    EXPECT_TRUE(mgr.destroy(b->id));
    ManagedSessionPtr e =
        mgr.create("demo", BackendKind::Dise, /*exclusive=*/true);
    ASSERT_TRUE(e);
    EXPECT_EQ(mgr.find(e->id, /*forSelect=*/true), nullptr);
    EXPECT_EQ(mgr.find(e->id), e);
}

TEST(SessionManager, StatsRollAcrossDestroy)
{
    SessionManager mgr({4, smallSessions()});
    JobScheduler queue({2, 2000});
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    StopInfo stop;
    std::string err;
    ASSERT_TRUE(
        queue.drive(*ms, RequestKind::RunToEnd, 0, stop, &err))
        << err;
    EXPECT_EQ(stop.reason, StopReason::Halted);

    ServerStats live = mgr.stats();
    EXPECT_GT(live.totalAppInsts, 0u);
    EXPECT_GT(live.totalUops, 0u);

    // The totals survive the session's destruction (retired rollup).
    EXPECT_TRUE(mgr.destroy(ms->id));
    ServerStats after = mgr.stats();
    EXPECT_EQ(after.activeSessions, 0u);
    EXPECT_EQ(after.destroyed, 1u);
    EXPECT_EQ(after.totalAppInsts, live.totalAppInsts);
}

// ------------------------------------------------------------ JobScheduler

TEST(JobScheduler, BoundedSlicesMatchUnboundedExecution)
{
    // A watch-hit cont driven through 1-slot, small-slice scheduling
    // stops at the identical location as a direct session.
    Program prog = buildHeisenbugDemo();
    Addr watchAddr = prog.symbol("directory");

    DebugSession ref(prog, smallSessions());
    ref.setWatch(WatchSpec::scalar("directory", watchAddr, 8));
    StopInfo refHit = ref.cont();
    ASSERT_EQ(refHit.reason, StopReason::Event);

    SessionManager mgr({1, smallSessions()});
    JobScheduler queue({1, 500});
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    ms->session.setWatch(
        WatchSpec::scalar("directory", watchAddr, 8));

    StopInfo stop;
    std::string err;
    ASSERT_TRUE(queue.drive(*ms, RequestKind::Cont, 0, stop, &err))
        << err;
    EXPECT_EQ(stop.reason, StopReason::Event);
    EXPECT_EQ(stop.pc, refHit.pc);
    EXPECT_EQ(stop.time, refHit.time);
    EXPECT_EQ(stop.appInsts, refHit.appInsts);

    // Run-to-end from here takes many bounded slices, not one.
    uint64_t before = queue.slicesRun();
    ASSERT_TRUE(
        queue.drive(*ms, RequestKind::RunToEnd, 0, stop, &err));
    EXPECT_EQ(stop.reason, StopReason::Halted);
    EXPECT_GT(queue.slicesRun() - before, 3u);

    // Reverse works through the queue too.
    ASSERT_TRUE(queue.drive(*ms, RequestKind::ReverseContinue, 0,
                            stop, &err));
    EXPECT_EQ(stop.reason, StopReason::Event);

    // Non-resume verbs are refused.
    EXPECT_FALSE(
        queue.drive(*ms, RequestKind::ReadRegisters, 0, stop, &err));
}

TEST(JobScheduler, TeardownMidRunAbortsAtSliceBoundary)
{
    SessionManager mgr({1, smallSessions()});
    JobScheduler queue({1, 1000});
    ManagedSessionPtr ms = mgr.create("mcf", BackendKind::Dise);
    ASSERT_TRUE(ms);

    std::atomic<bool> failed{false};
    std::string err;
    std::thread driver([&] {
        StopInfo stop;
        failed = !queue.drive(*ms, RequestKind::RunToEnd, 0, stop,
                              &err);
    });
    // Let it make some progress, then tear the session down under it.
    while (ms->slices.load() < 2)
        std::this_thread::yield();
    EXPECT_TRUE(mgr.destroy(ms->id));
    driver.join();
    EXPECT_TRUE(failed.load());
    EXPECT_NE(err.find("destroyed"), std::string::npos) << err;
    EXPECT_EQ(mgr.count(), 0u);
}

TEST(JobScheduler, UnsupportedBackendFailsCleanly)
{
    SessionManager mgr({1, smallSessions()});
    JobScheduler queue({1, 1000});
    ManagedSessionPtr ms =
        mgr.create("demo", BackendKind::VirtualMemory);
    ASSERT_TRUE(ms);
    Program prog = buildHeisenbugDemo();
    ms->session.setWatch(WatchSpec::indirect(
        "*p", prog.symbol("directory"), 8));
    StopInfo stop;
    std::string err;
    EXPECT_FALSE(
        queue.drive(*ms, RequestKind::Cont, 0, stop, &err));
    EXPECT_NE(err.find("cannot implement"), std::string::npos) << err;
}

/**
 * The order one scheduler worker ran slices in, recorded without any
 * clock: every slice start and finish, and every submit, appended
 * under one mutex. Fairness is checked from this order alone.
 */
class OrderLog
{
  public:
    enum Kind : uint8_t { Submit, Start, Finish };
    struct Entry
    {
        char who; ///< 'R': the long op, 'F': a forward job
        int job;
        Kind kind;
    };

    /** Submit @p step as a job whose slices append to the log. The
     *  submit is logged under the same mutex, before any slice of the
     *  job can start. */
    JobScheduler::TicketPtr
    submit(JobScheduler &sched, char who, int job,
           std::function<bool(uint64_t)> step)
    {
        std::lock_guard<std::mutex> lk(mu_);
        entries_.push_back({who, job, Submit});
        return sched.submit([this, who, job,
                             step = std::move(step)](uint64_t slice) {
            add(who, job, Start);
            if (who == 'R')
                if (std::function<void()> hook = takeFirstRHook())
                    hook();
            bool done = step(slice);
            if (done)
                add(who, job, Finish);
            return done;
        });
    }

    /** Run @p hook from the first 'R' slice, on the worker, before the
     *  slice steps. */
    void
    onFirstR(std::function<void()> hook)
    {
        std::lock_guard<std::mutex> lk(mu_);
        firstR_ = std::move(hook);
    }

    /** Block until @p who's job @p job logs @p kind; false after a
     *  minute without it. */
    bool
    waitFor(char who, int job, Kind kind)
    {
        std::unique_lock<std::mutex> lk(mu_);
        return logged_.wait_for(lk, std::chrono::minutes(1), [&] {
            for (const Entry &e : entries_)
                if (e.who == who && e.job == job && e.kind == kind)
                    return true;
            return false;
        });
    }

    /** Step @p s's begun op to completion as one logged 'R' job (a
     *  SessionManager runner). */
    bool
    runOp(JobScheduler &sched, ManagedSession &s, std::string *err)
    {
        return sched.wait(submit(sched, 'R', 0,
                                 [&s](uint64_t slice) {
                                     return s.session.step(slice);
                                 }),
                          err);
    }

    size_t
    count(char who, Kind kind)
    {
        std::lock_guard<std::mutex> lk(mu_);
        size_t n = 0;
        for (const Entry &e : entries_)
            n += e.who == who && e.kind == kind;
        return n;
    }

    std::vector<Entry>
    entries()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return entries_;
    }

  private:
    void
    add(char who, int job, Kind kind)
    {
        std::lock_guard<std::mutex> lk(mu_);
        entries_.push_back({who, job, kind});
        logged_.notify_all();
    }

    std::function<void()>
    takeFirstRHook()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return std::exchange(firstR_, {});
    }

    std::mutex mu_;
    std::condition_variable logged_;
    std::vector<Entry> entries_;
    std::function<void()> firstR_;
};

/**
 * The acceptance scenario, with ONE worker slot: while the long op R
 * (started by @p startR) runs, session @p f steps forward in ten small
 * jobs F0..F9. The scheduler side drives them, so no test thread has
 * to be scheduled promptly: R's first slice submits F0, the final
 * slice of each F submits the next, and each F begins and finishes its
 * stepi on the worker. Because every job yields at bounded slice
 * boundaries and the ready queue round-robins, the recorded order must
 * show that
 *  - after each F submit, at most one R slice starts before F's slice;
 *  - R runs at least one slice between consecutive F jobs;
 *  - all ten F jobs finish before R does.
 */
void
expectForwardNotStarved(OrderLog &log, JobScheduler &sched,
                        ManagedSession &f,
                        const std::function<void()> &startR)
{
    std::function<void(int)> submitF = [&](int i) {
        auto fSlice = [&, i, begun = false](uint64_t slice) mutable {
            if (!std::exchange(begun, true)) {
                Request req;
                req.kind = RequestKind::Stepi;
                req.count = 200;
                EXPECT_FALSE(f.session.begin(req));
            }
            if (!f.session.step(slice))
                return false;
            EXPECT_EQ(f.session.finish().stop.reason, StopReason::Step);
            if (i < 9)
                submitF(i + 1);
            return true;
        };
        log.submit(sched, 'F', i, fSlice);
    };
    log.onFirstR([&] { submitF(0); });
    startR();
    // An R that never reaches the scheduler returns without a slice
    // and starts no F; no later R may start them either.
    log.onFirstR({});
    if (log.count('R', OrderLog::Start) > 0 &&
        !log.waitFor('F', 9, OrderLog::Finish)) {
        ADD_FAILURE() << "the F jobs stalled";
        sched.stop(); // no slice may outlive submitF
        return;
    }

    std::vector<OrderLog::Entry> order = log.entries();
    auto at = [&](char who, int job, OrderLog::Kind kind) {
        for (size_t i = 0; i < order.size(); ++i)
            if (order[i].who == who && order[i].job == job &&
                order[i].kind == kind)
                return i;
        ADD_FAILURE() << who << job << " kind " << int(kind)
                      << " never logged";
        return order.size();
    };
    auto rStarts = [&](size_t from, size_t to) {
        size_t n = 0;
        for (size_t i = from + 1; i < to && i < order.size(); ++i)
            n += order[i].who == 'R' && order[i].kind == OrderLog::Start;
        return n;
    };
    size_t rFinish = at('R', 0, OrderLog::Finish);
    for (int i = 0; i < 10; ++i) {
        size_t first = at('F', i, OrderLog::Start);
        EXPECT_LE(rStarts(at('F', i, OrderLog::Submit), first), 1u)
            << "F" << i << " waited behind more than one R slice";
        if (i > 0) {
            EXPECT_GE(rStarts(at('F', i - 1, OrderLog::Finish), first),
                      1u)
                << "R made no progress between F" << i - 1 << " and F"
                << i;
        }
        EXPECT_LT(at('F', i, OrderLog::Finish), rFinish)
            << "F" << i << " finished after R";
    }
}

TEST(JobScheduler, ReverseReplayDoesNotStarveForwardSessions)
{
    // R: a run-to-event hunt for an event number that never fires — a
    // bounded O(trace) sliced replay ending in Halted.
    SessionManagerOptions mopts;
    mopts.maxSessions = 2;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager mgr(mopts);
    JobScheduler sched({1, 1000});
    ManagedSessionPtr r = mgr.create("mcf", BackendKind::Dise);
    ManagedSessionPtr f = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(r && f);

    OrderLog log;
    StopInfo rStop;
    expectForwardNotStarved(log, sched, *f, [&] {
        Request req;
        req.kind = RequestKind::RunToEvent;
        req.count = 999999;
        std::string err;
        if (!r->session.begin(req) && !log.runOp(sched, *r, &err))
            ADD_FAILURE() << err;
        rStop = r->session.finish().stop;
    });
    EXPECT_EQ(rStop.reason, StopReason::Halted);
    EXPECT_GT(log.count('R', OrderLog::Start), 50u)
        << "replay should take many slices";
}

/** A long mcf history (recorded to its end) as an image. */
persist::SessionImage
longMcfImage(uint64_t id)
{
    SessionOptions o;
    o.timeTravel.checkpointInterval = 1u << 20;
    Workload w = buildWorkload("mcf");
    DebugSession s(w.program, o);
    s.setWatch(w.watch(WatchSel::WARM1));
    s.runToEnd();
    persist::SessionImage img;
    std::string err;
    EXPECT_TRUE(s.exportImage(img, &err)) << err;
    img.id = id;
    img.workload = "mcf";
    return img;
}

TEST(JobScheduler, ResurrectionDoesNotStarveForwardSessions)
{
    persist::ScratchDir scratch("server_test_store_fair_resurrect");
    const std::string &dir = scratch.path;
    persist::RealVfs vfs;
    persist::SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);
    ASSERT_TRUE(store.put(longMcfImage(7)).ok);

    SessionManagerOptions mopts;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager mgr(mopts);
    mgr.adoptStore(&store); // id 7 is now a hibernated session
    JobScheduler sched({1, 1000});
    OrderLog log;
    mgr.setRunner([&](ManagedSession &s, std::string *err) {
        return log.runOp(sched, s, err);
    });
    ManagedSessionPtr f = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(f);

    ManagedSessionPtr r;
    expectForwardNotStarved(log, sched, *f, [&] {
        std::string err;
        r = mgr.find(7, false, &err); // resurrects through the runner
        if (!r)
            ADD_FAILURE() << err;
    });
    ASSERT_TRUE(r);
    EXPECT_GT(r->session.stats().appInsts, 0u);
    EXPECT_EQ(mgr.stats().resurrections, 1u);
}

TEST(JobScheduler, RspRebuildDoesNotStarveForwardSessions)
{
    // A gdb `Z` after the target ran rebuilds and replays the whole
    // history: it goes through the connection's exec hook as a sliced
    // job, not inline on the connection thread.
    SessionManagerOptions mopts;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager mgr(mopts);
    JobScheduler sched({1, 1000});
    ManagedSessionPtr r =
        mgr.create("mcf", BackendKind::Dise, /*exclusive=*/true);
    ManagedSessionPtr f = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(r && f);
    Workload w = buildWorkload("mcf");
    ASSERT_GE(r->session.setWatch(w.watch(WatchSel::WARM1)), 0);
    ASSERT_EQ(r->session.runToEnd().reason, StopReason::Halted);

    OrderLog log;
    rsp::RspConnection conn(
        r->session,
        [&](const Request &req, Response &out, std::string *err) {
            if (!r->session.begin(req) && !log.runOp(sched, *r, err))
                return false;
            out = r->session.finish();
            return true;
        });
    char z2[64];
    std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                  static_cast<unsigned long long>(w.hotAddr));
    std::string reply;
    expectForwardNotStarved(log, sched, *f,
                            [&] { reply = conn.handlePacket(z2); });
    EXPECT_EQ(reply, "OK");

    // gdb's mute/re-arm cycle needs no rebuild: no job at all.
    size_t jobs = log.count('R', OrderLog::Submit);
    char z2off[64];
    std::snprintf(z2off, sizeof z2off, "z2,%llx,8",
                  static_cast<unsigned long long>(w.hotAddr));
    EXPECT_EQ(conn.handlePacket(z2off), "OK");
    EXPECT_EQ(conn.handlePacket(z2), "OK");
    EXPECT_EQ(log.count('R', OrderLog::Submit), jobs);
}

TEST(JobScheduler, CallerRunSlicesKeepTheQueueOrderAndWorkerBound)
{
    // completeHere() (the server's resurrection runner) runs
    // each slice on the calling thread while a worker holds the slot.
    // With one worker its op must still interleave slice by slice with
    // other jobs, and never run beside one.
    SessionManagerOptions mopts;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager mgr(mopts);
    JobScheduler sched({1, 1000});
    ManagedSessionPtr r = mgr.create("mcf", BackendKind::Dise);
    ManagedSessionPtr f = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(r && f);
    Request hunt;
    hunt.kind = RequestKind::RunToEvent;
    hunt.count = 999999;
    ASSERT_FALSE(r->session.begin(hunt));

    // The scheduler side drives the ten F jobs, so no test thread has
    // to be scheduled promptly: a starter job yields until R's first
    // slice has run, then submits F0, and the final slice of each F
    // submits the next. Each F records what it saw for the checks
    // below.
    struct FRun
    {
        JobScheduler::TicketPtr ticket;
        uint64_t atStart = 0, atEnd = 0;
        bool overlapped = false;
    };
    std::array<FRun, 10> runs;
    std::promise<void> lastSubmitted;
    std::function<void(int)> submitF = [&](int i) {
        Request step;
        step.kind = RequestKind::Stepi;
        step.count = 200;
        EXPECT_FALSE(f->session.begin(step));
        runs[i].ticket = sched.submit([&, i](uint64_t slice) {
            FRun &run = runs[i];
            // R's step holds its sliceMu: free here, or R ran beside F.
            std::unique_lock<std::mutex> lk(r->sliceMu, std::try_to_lock);
            run.overlapped |= !lk.owns_lock();
            run.atStart = r->slices.load();
            bool done = f->session.step(slice);
            run.atEnd = r->slices.load();
            if (done) {
                f->session.finish();
                if (i < 9)
                    submitF(i + 1);
            }
            return done;
        });
        if (i == 9)
            lastSubmitted.set_value();
    };
    sched.submit([&](uint64_t) {
        if (r->slices.load() < 1) {
            std::this_thread::yield();
            return false; // requeue behind R
        }
        submitF(0);
        return true;
    });
    std::thread rDriver([&] { EXPECT_TRUE(sched.completeHere(*r)); });
    lastSubmitted.get_future().wait();

    uint64_t prevEnd = 0;
    for (int i = 0; i < 10; ++i) {
        const FRun &run = runs[i];
        EXPECT_TRUE(sched.wait(run.ticket));
        EXPECT_FALSE(run.overlapped) << "R's slice ran beside F" << i;
        EXPECT_EQ(run.atStart, run.atEnd) << "R advanced during F" << i;
        if (i > 0) {
            EXPECT_GT(run.atStart, prevEnd)
                << "R made no progress between F" << i - 1 << " and F"
                << i;
        }
        prevEnd = run.atEnd;
    }
    rDriver.join();
    EXPECT_GT(r->slices.load(), prevEnd) << "R finished before the F jobs";
    EXPECT_EQ(r->session.finish().stop.reason, StopReason::Halted);
}

TEST(JobScheduler, InterruptedJobLandsAtSliceBoundaryAndResumes)
{
    // A gdb Ctrl-C: cancel() finalizes the job between slices; the
    // session sits at a valid intermediate position and keeps working.
    SessionManagerOptions mopts;
    mopts.session.timeTravel.checkpointInterval = 1u << 20;
    SessionManager mgr(mopts);
    JobScheduler sched({1, 500});
    ManagedSessionPtr ms = mgr.create("mcf", BackendKind::Dise);
    ASSERT_TRUE(ms);

    std::atomic<bool> landed{false};
    std::atomic<bool> wasInterrupted{false};
    StopInfo landing;
    std::mutex mu;
    JobScheduler::TicketPtr t = sched.driveAsync(
        ms, RequestKind::RunToEnd, 0,
        [&](bool ok, bool interrupted, const StopInfo &stop,
            const std::string &err) {
            std::lock_guard<std::mutex> lk(mu);
            landing = stop;
            wasInterrupted = interrupted;
            landed = ok;
        });
    ASSERT_TRUE(t);
    while (ms->slices.load() < 3)
        std::this_thread::yield();
    sched.cancel(t);
    std::string err;
    EXPECT_FALSE(sched.wait(t, &err)); // result: interrupted
    EXPECT_EQ(err, "interrupted");
    while (!landed.load())
        std::this_thread::yield();
    EXPECT_TRUE(wasInterrupted.load());
    {
        std::lock_guard<std::mutex> lk(mu);
        EXPECT_GT(landing.appInsts, 0u);
        EXPECT_LT(landing.appInsts,
                  1000000u); // mid-run, not at the end
    }

    // The session resumes from the interrupted position to completion.
    StopInfo stop;
    ASSERT_TRUE(
        sched.drive(*ms, RequestKind::RunToEnd, 0, stop, &err))
        << err;
    EXPECT_EQ(stop.reason, StopReason::Halted);
    EXPECT_GE(ms->jobs.load(), 2u);
}

// --------------------------------------------- concurrency, in-process

TEST(ServerConcurrency, DistinctSessionsCrossCheckedInParallel)
{
    // N threads, each driving its own session through a
    // watch/continue/reverse cycle; every stop location must equal
    // the single-threaded reference for that session's workload.
    struct Scenario
    {
        std::string workload;
        Addr watchAddr;
        StopInfo refHit1, refHit2, refBack;
    };
    std::vector<Scenario> scenarios;
    for (std::string w : {"demo", "mcf", "bzip2", "twolf"}) {
        Scenario sc;
        sc.workload = w;
        Program prog;
        if (w == "demo") {
            prog = buildHeisenbugDemo();
            sc.watchAddr = prog.symbol("directory");
        } else {
            Workload wl = buildWorkload(w, {});
            sc.watchAddr = wl.hotAddr;
            prog = std::move(wl.program);
        }
        DebugSession ref(prog, smallSessions());
        ref.setWatch(WatchSpec::scalar("w", sc.watchAddr, 8));
        sc.refHit1 = ref.cont();
        sc.refHit2 = ref.cont(); // may be Halted (single-hit watches)
        sc.refBack = ref.reverseContinue();
        ASSERT_EQ(sc.refHit1.reason, StopReason::Event) << w;
        scenarios.push_back(sc);
    }

    SessionManager mgr(
        {static_cast<unsigned>(scenarios.size()), smallSessions()});
    JobScheduler queue({2, 2000}); // fewer slots than sessions: contention
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (const Scenario &sc : scenarios) {
        threads.emplace_back([&, sc] {
            ManagedSessionPtr ms =
                mgr.create(sc.workload, BackendKind::Dise);
            if (!ms) {
                ++mismatches;
                return;
            }
            ms->session.setWatch(
                WatchSpec::scalar("w", sc.watchAddr, 8));
            StopInfo h1, h2, back;
            std::string err;
            bool ok =
                queue.drive(*ms, RequestKind::Cont, 0, h1, &err) &&
                queue.drive(*ms, RequestKind::Cont, 0, h2, &err) &&
                queue.drive(*ms, RequestKind::ReverseContinue, 0,
                            back, &err);
            if (!ok || h1.reason != sc.refHit1.reason ||
                h1.pc != sc.refHit1.pc ||
                h1.time != sc.refHit1.time ||
                h2.reason != sc.refHit2.reason ||
                h2.pc != sc.refHit2.pc ||
                h2.time != sc.refHit2.time ||
                back.reason != sc.refBack.reason ||
                back.time != sc.refBack.time)
                ++mismatches;
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(queue.slicesRun(), scenarios.size());
}

// ------------------------------------------------------- TCP front end

TEST(DebugServerTcp, TwoRspClientsPlusWireClientOnDistinctTargets)
{
    // The acceptance scenario: one daemon, two simultaneous
    // gdb-style clients (each its own demo target) plus a typed-wire
    // client on a different workload, all with correct isolated
    // stops.
    Program demo = buildHeisenbugDemo();
    Addr demoWatch = demo.symbol("directory");
    DebugSession demoRef(demo, smallSessions());
    demoRef.setWatch(WatchSpec::scalar("w", demoWatch, 8));
    StopInfo demoHit1 = demoRef.cont();
    StopInfo demoHit2 = demoRef.cont();
    ASSERT_EQ(demoHit1.reason, StopReason::Event);

    Workload mcf = buildWorkload("mcf", {});
    DebugSession mcfRef(mcf.program, smallSessions());
    mcfRef.setWatch(WatchSpec::scalar("HOT", mcf.hotAddr, 8));
    StopInfo mcfHit = mcfRef.cont();
    ASSERT_EQ(mcfHit.reason, StopReason::Event);

    DebugServerOptions opts;
    opts.maxSessions = 8;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    std::atomic<int> failures{0};
    auto rspClient = [&] {
        RspClient client;
        if (!client.connectTo(srv.port())) {
            ++failures;
            return;
        }
        char z2[64];
        std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                      static_cast<unsigned long long>(demoWatch));
        if (client.exchange("qSupported").find("ReverseContinue+") ==
            std::string::npos)
            ++failures;
        if (client.exchange(z2) != "OK")
            ++failures;
        uint64_t pc1 = 0, pc2 = 0, pcBack = 0;
        std::string h1 = client.exchange("c");
        std::string h2 = client.exchange("c");
        std::string back = client.exchange("bc");
        if (!stopReplyPc(h1, pc1) || pc1 != demoHit1.pc)
            ++failures;
        if (!stopReplyPc(h2, pc2) || pc2 != demoHit2.pc)
            ++failures;
        if (!stopReplyPc(back, pcBack) || pcBack != demoHit1.pc)
            ++failures;
        if (client.exchange("D") != "OK")
            ++failures;
    };

    std::thread rsp1(rspClient), rsp2(rspClient);
    // Wire client rides along on its own target.
    {
        WireClient wire;
        ASSERT_TRUE(wire.connectTo(srv.port()));
        Response resp;
        ASSERT_TRUE(callOk(wire, "session-create seq=1 name=mcf backend=dise",
                           resp));
        uint64_t sessionId = resp.value;
        EXPECT_GT(sessionId, 0u);

        Request setw;
        setw.kind = RequestKind::SetWatch;
        setw.seq = 2;
        setw.watch = WatchSpec::scalar("HOT", mcf.hotAddr, 8);
        ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));

        ASSERT_TRUE(callOk(wire, "cont seq=3", resp));
        ASSERT_TRUE(resp.hasStop);
        EXPECT_EQ(resp.stop.reason, StopReason::Event);
        EXPECT_EQ(resp.stop.pc, mcfHit.pc);
        EXPECT_EQ(resp.stop.time, mcfHit.time);

        ASSERT_TRUE(callOk(wire, "server-stats seq=4", resp));
        EXPECT_GE(resp.server.created, 1u);
        EXPECT_GE(resp.server.activeSessions, 1u);
        EXPECT_EQ(resp.server.maxSessions, 8u);
        EXPECT_GT(resp.server.totalAppInsts, 0u);

        char destroy[64];
        std::snprintf(destroy, sizeof destroy,
                      "session-destroy seq=5 session=%llu",
                      static_cast<unsigned long long>(sessionId));
        ASSERT_TRUE(callOk(wire, destroy, resp));
    }
    rsp1.join();
    rsp2.join();
    EXPECT_EQ(failures.load(), 0);

    // Per-connection teardown completes shortly after the detach
    // reply reaches the client; wait for it rather than race it.
    ServerStats st = srv.stats();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(2);
    while (st.activeSessions != 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        st = srv.stats();
    }
    EXPECT_GE(st.created, 3u);
    EXPECT_EQ(st.activeSessions, 0u); // all torn down
    EXPECT_GE(st.slices, 1u);
    EXPECT_GE(srv.connectionsServed(), 3u);
    srv.stop();
}

TEST(DebugServerTcp, AdmissionCapRejectsExcessRspClients)
{
    DebugServerOptions opts;
    opts.maxSessions = 1;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    RspClient first;
    ASSERT_TRUE(first.connectTo(srv.port()));
    // Holding a live session...
    EXPECT_NE(first.exchange("qSupported").find("PacketSize"),
              std::string::npos);

    // ...the second client is admitted at TCP level but gets no
    // session: the server hangs up before any reply.
    RspClient second;
    ASSERT_TRUE(second.connectTo(srv.port(), 5));
    std::string reply = second.exchange("qSupported");
    EXPECT_EQ(reply, "<timeout-or-eof>") << reply;
    EXPECT_GE(srv.stats().rejected, 1u);

    // A wire client is told why.
    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(
        wire.call("session-create seq=1 name=demo", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("cap"), std::string::npos);

    EXPECT_EQ(first.exchange("D"), "OK");
    srv.stop();
}

TEST(DebugServerTcp, SeededRandomMultiClientSoak)
{
    // Three concurrent RSP clients fire seeded-random command mixes
    // at one daemon while a wire client polls server-stats; nothing
    // may wedge, crash, or bleed between sessions.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");

    DebugServerOptions opts;
    opts.maxSessions = 8;
    opts.sliceInsts = 2000;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    std::atomic<int> failures{0};
    auto soakClient = [&](uint32_t seed) {
        std::mt19937 rng(seed);
        RspClient client;
        if (!client.connectTo(srv.port(), 30)) {
            ++failures;
            return;
        }
        char z2[64];
        std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                      static_cast<unsigned long long>(watchAddr));
        if (client.exchange(z2) != "OK")
            ++failures;
        char m[64];
        std::snprintf(m, sizeof m, "m%llx,8",
                      static_cast<unsigned long long>(watchAddr));
        for (int op = 0; op < 30; ++op) {
            std::string reply;
            switch (rng() % 6) {
              case 0:
                reply = client.exchange("c");
                break;
              case 1:
                reply = client.exchange("s");
                break;
              case 2:
                reply = client.exchange("bc");
                break;
              case 3:
                reply = client.exchange("bs");
                break;
              case 4:
                reply = client.exchange(m);
                break;
              case 5:
                reply = client.exchange("g");
                break;
            }
            if (reply == "<timeout-or-eof>" ||
                reply == "<write-error>") {
                ++failures;
                return;
            }
        }
        if (client.exchange("D") != "OK")
            ++failures;
    };

    std::vector<std::thread> clients;
    for (uint32_t i = 0; i < 3; ++i)
        clients.emplace_back(soakClient, 1234u + i);
    std::thread wirePoll([&] {
        WireClient wire;
        if (!wire.connectTo(srv.port())) {
            ++failures;
            return;
        }
        for (int i = 0; i < 10; ++i) {
            Response resp;
            if (!callOk(wire, "server-stats seq=1", resp)) {
                ++failures;
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    });
    for (auto &t : clients)
        t.join();
    wirePoll.join();
    EXPECT_EQ(failures.load(), 0);

    // The daemon is still healthy afterwards.
    RspClient post;
    ASSERT_TRUE(post.connectTo(srv.port()));
    EXPECT_NE(post.exchange("qSupported").find("PacketSize"),
              std::string::npos);
    EXPECT_EQ(post.exchange("D"), "OK");
    srv.stop();
}

TEST(DebugServerTcp, StatsToolRollupExcludesADrivenRspSession)
{
    // An RSP client arms a tool over `monitor` and then loops Z2 + c on
    // its exclusive session (bc back to the last hit once the target
    // exits), while a
    // wire client loops server-stats, whose per-tool rollup reads every
    // session's tool rows. Packets and slices change those rows, so the
    // rollup must exclude both; ThreadSanitizer checks that it does.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    DebugServerOptions opts;
    opts.sliceInsts = 500;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    std::atomic<bool> looping{true};
    std::atomic<int> failures{0};
    std::mutex idleMu;
    std::condition_variable idleCv;
    bool idle = false, detach = false;
    std::thread gdb([&] {
        RspClient client;
        if (!client.connectTo(srv.port())) {
            ++failures;
            looping = false;
            return;
        }
        std::string cmd = "tool-enable name=memtrace";
        std::string armed = client.exchange(
            "qRcmd," +
            rsp::toHex(std::vector<uint8_t>(cmd.begin(), cmd.end())));
        if (armed.empty() || armed[0] == 'E')
            ++failures;
        char z2[64], z2off[64];
        std::snprintf(z2, sizeof z2, "Z2,%llx,8",
                      static_cast<unsigned long long>(watchAddr));
        std::snprintf(z2off, sizeof z2off, "z2,%llx,8",
                      static_cast<unsigned long long>(watchAddr));
        for (int round = 0; round < 24; ++round) {
            if (client.exchange(z2) != "OK")
                ++failures;
            std::string stop = client.exchange("c");
            if (stop.empty() || stop[0] == 'E')
                ++failures;
            if (!stop.empty() && stop[0] == 'W')
                client.exchange("bc"); // back to the last hit
            if (client.exchange(z2off) != "OK")
                ++failures;
        }
        looping = false;
        {
            // Stay attached and idle until the final snapshot is taken.
            std::unique_lock<std::mutex> lk(idleMu);
            idle = true;
            idleCv.notify_all();
            idleCv.wait(lk, [&] { return detach; });
        }
        if (client.exchange("D") != "OK")
            ++failures;
    });

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    unsigned polls = 0;
    while (looping.load()) {
        Response resp;
        ASSERT_TRUE(callOk(wire, "server-stats seq=1", resp));
        ++polls;
    }
    {
        std::unique_lock<std::mutex> lk(idleMu);
        idleCv.wait(lk, [&] { return idle; });
    }
    // Between packets the session is free: the rollup must see it.
    Response last;
    ASSERT_TRUE(callOk(wire, "server-stats seq=2", last));
    bool sawMemtrace = false;
    for (const tools::ToolStatsRow &row : last.server.tools)
        sawMemtrace |= row.name == "memtrace" && row.uopsSeen > 0;
    EXPECT_TRUE(sawMemtrace) << last.describe();
    {
        std::lock_guard<std::mutex> lk(idleMu);
        detach = true;
        idleCv.notify_all();
    }
    gdb.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(polls, 0u);
    srv.stop();
}

TEST(DebugServerTcp, WireDetachKeepsRetiredTotals)
{
    // server-stats totals are "all sessions ever": a wire detach must
    // fold the session's final counters into the retired rollup, not
    // wipe them with the post-detach zeros.
    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    ASSERT_TRUE(callOk(wire, "run-to-end seq=2", resp));
    ASSERT_TRUE(callOk(wire, "server-stats seq=3", resp));
    uint64_t uopsBefore = resp.server.totalUops;
    EXPECT_GT(uopsBefore, 0u);

    ASSERT_TRUE(callOk(wire, "detach seq=4", resp));
    ASSERT_TRUE(callOk(wire, "server-stats seq=5", resp));
    EXPECT_EQ(resp.server.activeSessions, 0u);
    EXPECT_GE(resp.server.totalUops, uopsBefore);
    srv.stop();
}

TEST(DebugServerTcp, SubscribePushesEventsWithoutPolling)
{
    // After `subscribe`, the server pushes every queued session event
    // as an `event` line at job-slice and verb boundaries — no
    // stats-polling needed. Order follows the queue's delivery seq.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.sliceInsts = 500;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    // Pushed events in arrival order; every event the server sends
    // ahead of a reply is here by the time that call returns.
    std::mutex eventsMu;
    std::vector<SessionEvent> pushed;
    auto takeEvents = [&] {
        std::lock_guard<std::mutex> lk(eventsMu);
        return std::exchange(pushed, {});
    };
    WireClient wire;
    wire.setEventHandler([&](const std::string &line) {
        SessionEvent ev;
        std::lock_guard<std::mutex> lk(eventsMu);
        if (decodeEvent(line, ev))
            pushed.push_back(ev);
    });
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));
    ASSERT_TRUE(callOk(wire, "subscribe seq=3", resp));

    ASSERT_TRUE(callOk(wire, "cont seq=4", resp));
    ASSERT_TRUE(resp.hasStop);
    ASSERT_EQ(resp.stop.reason, StopReason::Event);
    std::vector<SessionEvent> events = takeEvents();
    ASSERT_FALSE(events.empty());
    bool sawAttach = false, sawWatch = false;
    uint64_t lastSeq = 0;
    bool first = true;
    for (const SessionEvent &ev : events) {
        if (!first) {
            EXPECT_GT(ev.seq, lastSeq); // queue order preserved
        }
        first = false;
        lastSeq = ev.seq;
        sawAttach |= ev.kind == SessionEventKind::Attached;
        if (ev.kind == SessionEventKind::Watch) {
            sawWatch = true;
            EXPECT_EQ(ev.addr, watchAddr);
        }
    }
    EXPECT_TRUE(sawAttach);
    EXPECT_TRUE(sawWatch);

    // server-stats counts the delivery; unsubscribe stops the flow.
    ASSERT_TRUE(callOk(wire, "server-stats seq=5", resp));
    EXPECT_GE(resp.server.eventsPushed, events.size());
    EXPECT_EQ(resp.server.subscribers, 1u);
    ASSERT_TRUE(callOk(wire, "unsubscribe seq=6", resp));
    ASSERT_TRUE(callOk(wire, "run-to-end seq=7", resp));
    EXPECT_TRUE(takeEvents().empty());
    ASSERT_TRUE(callOk(wire, "server-stats seq=8", resp));
    EXPECT_EQ(resp.server.subscribers, 0u);
    srv.stop();
}

TEST(DebugServerTcp, ReplayVerifyRunsAsSiblingJobs)
{
    // replay-verify over the wire: sibling jobs drain the fixed cut of
    // checkpoint ranges, so the reply carries exactly the per-range
    // digests an identical in-process session computes on another
    // worker count.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    DebugSession ref(demo, smallSessions());
    ref.setWatch(WatchSpec::scalar("w", watchAddr, 8));
    ref.cont();
    ref.runToEnd();
    IntervalReplay::Report refRep = ref.verifyReplay(1);
    ASSERT_TRUE(refRep.ok) << refRep.error;
    std::vector<uint64_t> refEnds;
    for (const IntervalReplay::Interval &iv : refRep.intervals)
        refEnds.push_back(iv.endDigest);

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.slots = 2;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));
    ASSERT_TRUE(callOk(wire, "cont seq=3", resp));
    ASSERT_TRUE(callOk(wire, "run-to-end seq=4", resp));

    uint64_t jobsBefore = srv.stats().jobs;
    ASSERT_TRUE(callOk(wire, "replay-verify seq=5 count=4", resp));
    EXPECT_EQ(resp.value, refRep.finalDigest);
    EXPECT_EQ(resp.regs, refEnds);
    EXPECT_LT(resp.index, 0); // no index= on a replay-verify reply
    // One sibling pool job per scheduler worker was scheduled, each
    // draining checkpoint ranges until the pool ran dry.
    EXPECT_GE(srv.stats().jobs - jobsBefore, 2u);
    srv.stop();
}

TEST(DebugServerTcp, ReplayVerifyNamesTheFailedRangeLikeInProcess)
{
    // Once armed, the prepare hook fails every build, so each replica
    // fails to build. The wire reply and the in-process report name
    // the same range with the same text.
    auto armed = std::make_shared<std::atomic<bool>>(false);
    SessionOptions so = smallSessions();
    so.prepare = [armed](DebugTarget &) {
        if (armed->load())
            throw std::runtime_error("replica build refused");
    };
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    WatchSpec watch = WatchSpec::scalar("w", watchAddr, 8);

    DebugSession ref(demo, so);
    ref.setWatch(watch);
    ref.runToEnd();

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.slots = 2;
    opts.session = so;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());
    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = watch;
    ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));
    ASSERT_TRUE(callOk(wire, "run-to-end seq=3", resp));

    armed->store(true);
    IntervalReplay::Report refRep = ref.verifyReplay(1);
    ASSERT_FALSE(refRep.ok);
    EXPECT_EQ(refRep.error.rfind("range [0,", 0), 0u) << refRep.error;
    EXPECT_NE(refRep.error.find("): replica build refused"),
              std::string::npos)
        << refRep.error;
    ASSERT_TRUE(wire.call("replay-verify seq=4 count=2", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_EQ(resp.error, refRep.error);
    srv.stop();
}

TEST(DebugServerTcp, PostAttachWatchAdditionRunsAsRebuildJob)
{
    // A Z-style post-attach spec addition over the wire rides the
    // scheduler as a preemptible rebuild-replay job and preserves the
    // session's position.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.sliceInsts = 300;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));
    ASSERT_TRUE(callOk(wire, "cont seq=3", resp));
    ASSERT_TRUE(resp.hasStop);
    uint64_t posInsts = resp.stop.appInsts;

    Request setw2;
    setw2.kind = RequestKind::SetWatch;
    setw2.seq = 4;
    setw2.watch = WatchSpec::scalar("w4", watchAddr, 4);
    ASSERT_TRUE(callOk(wire, encodeRequest(setw2), resp));
    EXPECT_EQ(resp.index, 1);

    ASSERT_TRUE(callOk(wire, "stats seq=5", resp));
    EXPECT_EQ(resp.stats.appInsts, posInsts); // position preserved
    srv.stop();
}

TEST(DebugServerTcp, WireSelectSharesAndDestroyInforms)
{
    DebugServerOptions opts;
    opts.maxSessions = 4;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient a, b;
    ASSERT_TRUE(a.connectTo(srv.port()));
    ASSERT_TRUE(b.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(a, "session-create seq=1 name=demo", resp));
    uint64_t id = resp.value;

    // b can see and select a's session; both observe the same target.
    ASSERT_TRUE(callOk(b, "session-list seq=1", resp));
    ASSERT_EQ(resp.regs.size(), 1u);
    EXPECT_EQ(resp.regs[0], id);
    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=2 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(callOk(b, sel, resp));
    ASSERT_TRUE(callOk(a, "read-registers seq=3", resp));
    std::vector<uint64_t> regsA = resp.regs;
    ASSERT_TRUE(callOk(b, "read-registers seq=4", resp));
    EXPECT_EQ(resp.regs, regsA);

    // Destroy via b; a's next request reports the loss.
    char destroy[64];
    std::snprintf(destroy, sizeof destroy,
                  "session-destroy seq=5 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(callOk(b, destroy, resp));
    ASSERT_TRUE(a.call("read-registers seq=6", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("destroyed"), std::string::npos)
        << resp.error;
    srv.stop();
}

// ------------------------------------------------------ durable sessions

TEST(SessionManagerDurable, CapEvictsLruIdleAndResurrects)
{
    persist::ScratchDir scratch("server_test_store_lru");
    const std::string &dir = scratch.path;
    persist::RealVfs vfs;
    persist::SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);

    SessionManager mgr({2, smallSessions()});
    mgr.adoptStore(&store);
    uint64_t aId = mgr.create("demo", BackendKind::Dise)->id;
    uint64_t bId = mgr.create("mcf", BackendKind::Dise)->id;
    EXPECT_EQ(mgr.count(), 2u);

    // At the cap, creating hibernates the LRU idle session (a — it was
    // touched first and nothing holds it) instead of rejecting.
    uint64_t cId = mgr.create("demo", BackendKind::Dise)->id;
    EXPECT_EQ(mgr.count(), 2u);
    ServerStats s = mgr.stats();
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.hibernated, 1u);
    EXPECT_TRUE(store.contains(aId));
    // ids() spans live AND hibernated sessions.
    EXPECT_EQ(mgr.ids().size(), 3u);

    // find() on the hibernated id transparently resurrects it, which
    // at the cap evicts the next LRU idle victim (b).
    std::string err;
    ManagedSessionPtr a = mgr.find(aId, false, &err);
    ASSERT_TRUE(a) << err;
    EXPECT_EQ(a->id, aId);
    EXPECT_EQ(a->workload, "demo");
    s = mgr.stats();
    EXPECT_EQ(s.resurrections, 1u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.hibernated, 1u);
    EXPECT_TRUE(store.contains(bId));
    // a's image stays on disk as a crash-recovery anchor until it is
    // superseded by a later hibernate/persist or the session dies.
    EXPECT_TRUE(store.contains(aId));

    // Busy sessions (held by this test) are never victims: with both
    // remaining slots pinned, admission genuinely rejects.
    ManagedSessionPtr c = mgr.find(cId);
    ASSERT_TRUE(c);
    EXPECT_EQ(mgr.create("demo", BackendKind::Dise, false, &err),
              nullptr);
    EXPECT_NE(err.find("no idle session"), std::string::npos) << err;
    EXPECT_EQ(mgr.stats().rejected, 1u);

    // Destroying a hibernated session erases its image.
    EXPECT_TRUE(mgr.destroy(bId));
    EXPECT_FALSE(store.contains(bId));
    EXPECT_EQ(mgr.stats().hibernated, 0u);
    EXPECT_EQ(mgr.find(bId, false, &err), nullptr);
}

TEST(SessionManagerDurable, FailedResurrectionRunKeepsImageHibernated)
{
    // A resurrection job that fails for a scheduler reason (an injected
    // slice fault, an interrupt, a stopping scheduler) says nothing
    // about the image: it stays hibernated for the next attempt. Only
    // the image's own failure (replay divergence) quarantines it.
    persist::ScratchDir scratch("server_test_store_runfail");
    const std::string &dir = scratch.path;
    persist::RealVfs vfs;
    persist::SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);
    SessionManager mgr({2, smallSessions()});
    mgr.adoptStore(&store);
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    uint64_t id = ms->id;
    ms->session.setWatch(
        WatchSpec::scalar("w", buildHeisenbugDemo().symbol("directory"), 8));
    ASSERT_EQ(ms->session.cont().reason, StopReason::Event);
    ms.reset();
    std::string err;
    ASSERT_TRUE(mgr.hibernate(id, &err)) << err;

    mgr.setRunner([](ManagedSession &s, std::string *e) {
        EXPECT_FALSE(s.session.step(1)); // a slice ran, then the fault
        *e = "injected scheduler fault at slice boundary";
        return false;
    });
    EXPECT_EQ(mgr.find(id, false, &err), nullptr);
    EXPECT_NE(err.find("injected"), std::string::npos) << err;
    EXPECT_EQ(mgr.stats().hibernated, 1u);
    EXPECT_EQ(store.counters().quarantined, 0u);
    EXPECT_TRUE(store.contains(id));

    mgr.setRunner({}); // step inline
    ManagedSessionPtr back = mgr.find(id, false, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_EQ(mgr.stats().resurrections, 1u);
}

/** The bytes of @p prog's segment named @p name (nullptr if none). */
const uint8_t *
segmentBytes(const Program &prog, const std::string &name)
{
    for (const Program::Segment &seg : prog.segments)
        if (seg.name == name)
            return seg.bytes.data();
    return nullptr;
}

TEST(SessionManagerDurable, FactoryRunsOncePerNameAndSessionsShareIt)
{
    // Two creates, a post-attach set-watch rebuild and a hibernate plus
    // resurrect all use the one program the factory built for the
    // name, and every copy shares its data segment's bytes.
    persist::ScratchDir scratch("server_test_store_programs");
    persist::RealVfs vfs;
    persist::SessionStore store(scratch.path, vfs);
    ASSERT_TRUE(store.open().ok);
    std::map<std::string, int> calls;
    bool acceptLater = false;
    SessionManager mgr({4, smallSessions()},
                       [&](const std::string &name, Program &out) {
                           ++calls[name];
                           if (name == "later" && !acceptLater)
                               return false;
                           return defaultProgramFactory(
                               name == "later" ? "demo" : name, out);
                       });
    mgr.adoptStore(&store);
    ManagedSessionPtr a = mgr.create("demo", BackendKind::Dise);
    ManagedSessionPtr b = mgr.create("demo", BackendKind::SingleStep);
    ASSERT_TRUE(a && b);
    std::shared_ptr<const Program> kept = mgr.program("demo");
    ASSERT_TRUE(kept);
    const uint8_t *data = segmentBytes(*kept, "data");
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(segmentBytes(a->session.program(), "data"), data);
    EXPECT_EQ(segmentBytes(b->session.program(), "data"), data);

    Addr dir = kept->symbol("directory");
    a->session.setWatch(WatchSpec::scalar("d0", dir, 8));
    ASSERT_EQ(a->session.cont().reason, StopReason::Event);
    ASSERT_GE(a->session.setWatch(WatchSpec::scalar("d1", dir + 8, 8)), 0);
    EXPECT_FALSE(a->session.detached());
    EXPECT_EQ(segmentBytes(a->session.target().program, "data"), data);

    uint64_t id = a->id;
    a.reset();
    std::string err;
    ASSERT_TRUE(mgr.hibernate(id, &err)) << err;
    ManagedSessionPtr back = mgr.find(id, false, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_EQ(segmentBytes(back->session.target().program, "data"), data);
    EXPECT_EQ(calls["demo"], 1);

    // A name the factory rejects is not kept: the next request asks
    // again, and once accepted the name is kept.
    EXPECT_EQ(mgr.create("later", BackendKind::Dise, false, &err), nullptr);
    EXPECT_EQ(mgr.program("later"), nullptr);
    acceptLater = true;
    EXPECT_TRUE(mgr.create("later", BackendKind::Dise));
    EXPECT_TRUE(mgr.program("later"));
    EXPECT_EQ(calls["later"], 3);
}

TEST(SessionManager, ConcurrentFirstRequestsMakeOneFactoryCall)
{
    std::atomic<int> calls{0};
    SessionManager mgr({4, smallSessions()},
                       [&](const std::string &name, Program &out) {
                           ++calls;
                           return defaultProgramFactory(name, out);
                       });
    std::vector<std::shared_ptr<const Program>> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back([&, i] { got[i] = mgr.program("mcf"); });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(calls.load(), 1);
    for (const auto &p : got) {
        ASSERT_TRUE(p);
        EXPECT_EQ(p, got[0]);
    }
}

TEST(SessionManagerDurable, HibernateRefusalsKeepSessionIntact)
{
    persist::ScratchDir scratch("server_test_store_refuse");
    const std::string &dir = scratch.path;
    persist::RealVfs vfs;
    persist::SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);

    SessionManager mgr({4, smallSessions()});
    std::string err;
    // No store adopted yet: typed refusal.
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    EXPECT_FALSE(mgr.hibernate(ms->id, &err));
    EXPECT_NE(err.find("store"), std::string::npos) << err;

    mgr.adoptStore(&store);
    // Held by this test: busy, refused, still live.
    EXPECT_FALSE(mgr.hibernate(ms->id, &err));
    EXPECT_NE(err.find("busy"), std::string::npos) << err;
    EXPECT_EQ(mgr.count(), 1u);

    uint64_t id = ms->id;
    ms.reset();
    EXPECT_TRUE(mgr.hibernate(id, &err)) << err;
    EXPECT_FALSE(mgr.hibernate(id, &err)); // already on disk
    EXPECT_NE(err.find("already"), std::string::npos) << err;
}

TEST(SessionManagerDurable, DroppedSubscriberGetsFarewell)
{
    class FlakySink : public EventSink
    {
      public:
        int deliveries = 0;
        std::vector<SessionEvent> farewells;
        bool
        deliver(const SessionEvent &) override
        {
            return deliveries++ < 1; // accept one event, then wedge
        }
        void
        farewell(const SessionEvent &ev) override
        {
            farewells.push_back(ev);
        }
    };

    SessionManager mgr({4, smallSessions()});
    ManagedSessionPtr ms = mgr.create("demo", BackendKind::Dise);
    ASSERT_TRUE(ms);
    auto sink = std::make_shared<FlakySink>();
    ms->addSink(sink);
    EXPECT_EQ(ms->subscriberCount(), 1u);

    Program demo = buildHeisenbugDemo();
    ms->session.setWatch(
        WatchSpec::scalar("w", demo.symbol("directory"), 8));
    ms->session.cont(); // queues attach + checkpoint/watch events
    ms->pushEvents();

    // The wedged sink was dropped gracefully: exactly one farewell
    // line of the dedicated kind, unsubscribe bookkeeping done, and
    // the drop is counted at session and server level.
    ASSERT_EQ(sink->farewells.size(), 1u);
    EXPECT_EQ(sink->farewells[0].kind,
              SessionEventKind::SubscriberDropped);
    EXPECT_EQ(ms->subscriberCount(), 0u);
    EXPECT_EQ(ms->droppedSinks.load(), 1u);
    EXPECT_EQ(mgr.stats().dropped, 1u);

    // The counter survives the session's destruction (retired fold).
    uint64_t id = ms->id;
    ms.reset();
    EXPECT_TRUE(mgr.destroy(id));
    EXPECT_EQ(mgr.stats().dropped, 1u);
}

TEST(DebugServerTcp, HibernateResurrectOverWireWithDigestMatch)
{
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    persist::ScratchDir scratch("server_test_store_wire");
    const std::string &dir = scratch.path;

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.storeDir = dir;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    uint64_t id = resp.value;
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));
    ASSERT_TRUE(callOk(wire, "cont seq=3", resp));
    ASSERT_TRUE(resp.hasStop);
    uint64_t posInsts = resp.stop.appInsts;

    // A crash-consistent image without eviction; its digest is the
    // session's state digest.
    ASSERT_TRUE(callOk(wire, "session-persist seq=4", resp));
    uint64_t digest = resp.value;
    EXPECT_NE(digest, 0u);
    ASSERT_TRUE(callOk(wire, "store-stats seq=5", resp));
    EXPECT_EQ(resp.store.images, 1u);
    EXPECT_GE(resp.store.puts, 1u);
    EXPECT_GT(resp.store.bytes, 0u);

    // Hibernate the selected session (the handler drops its own
    // reference first), then resurrect it by selecting it again.
    ASSERT_TRUE(callOk(wire, "session-hibernate seq=6", resp));
    ASSERT_TRUE(callOk(wire, "server-stats seq=7", resp));
    EXPECT_EQ(resp.server.hibernated, 1u);
    EXPECT_EQ(resp.server.evictions, 1u);
    EXPECT_EQ(resp.server.activeSessions, 0u);

    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=8 session=%llu",
                  static_cast<unsigned long long>(id));
    // The resurrection replay is a scheduler job like any other.
    uint64_t queued = obs::metrics().schedQueueWaitUs.count();
    ASSERT_TRUE(callOk(wire, sel, resp));
    EXPECT_GT(obs::metrics().schedQueueWaitUs.count(), queued);
    ASSERT_TRUE(callOk(wire, "stats seq=9", resp));
    EXPECT_EQ(resp.stats.appInsts, posInsts); // position restored

    // Bit-identical state: a fresh image of the resurrected session
    // carries the same digest, and replay-verify still stitches clean.
    ASSERT_TRUE(callOk(wire, "session-persist seq=10", resp));
    EXPECT_EQ(resp.value, digest);
    ASSERT_TRUE(callOk(wire, "replay-verify seq=11 count=2", resp));
    ASSERT_TRUE(callOk(wire, "server-stats seq=12", resp));
    EXPECT_EQ(resp.server.resurrections, 1u);
    EXPECT_EQ(resp.server.hibernated, 0u);
    srv.stop();
}

TEST(DebugServerTcp, CreateBeyondCapHibernatesIdleSessions)
{
    persist::ScratchDir scratch("server_test_store_cap");
    const std::string &dir = scratch.path;
    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.storeDir = dir;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    uint64_t id1 = resp.value;
    ASSERT_TRUE(callOk(wire, "session-create seq=2 name=mcf", resp));
    uint64_t id2 = resp.value;
    // The third create succeeds by hibernating the LRU idle session
    // (the first one — this connection moved its selection off it).
    ASSERT_TRUE(callOk(wire, "session-create seq=3 name=demo", resp));
    ASSERT_TRUE(callOk(wire, "server-stats seq=4", resp));
    EXPECT_EQ(resp.server.activeSessions, 2u);
    EXPECT_EQ(resp.server.hibernated, 1u);
    EXPECT_EQ(resp.server.evictions, 1u);
    EXPECT_EQ(resp.server.rejected, 0u);
    ASSERT_TRUE(callOk(wire, "session-list seq=5", resp));
    EXPECT_EQ(resp.regs.size(), 3u);

    // Rejection only when nothing is evictable: a second client pins
    // the other live session (id2 — id1 went to disk above), this
    // connection pins its own, so a fourth create has no victim.
    WireClient pinner;
    ASSERT_TRUE(pinner.connectTo(srv.port()));
    Response r;
    char line[64];
    std::snprintf(line, sizeof line, "session-select seq=6 session=%llu",
                  static_cast<unsigned long long>(id2));
    ASSERT_TRUE(callOk(pinner, line, r));
    (void)id1;
    Response rej;
    ASSERT_TRUE(wire.call("session-create seq=8 name=demo", rej));
    EXPECT_EQ(rej.status, ResponseStatus::Error);
    EXPECT_NE(rej.error.find("no idle session"), std::string::npos)
        << rej.error;
    srv.stop();
}

TEST(DebugServerTcp, RestartRecoversPersistedSessions)
{
    // The in-process crash-recovery e2e: server 1 persists a session
    // and dies without any orderly hibernation; server 2 on the same
    // store directory re-admits and resurrects it, digest-identical.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    persist::ScratchDir scratch("server_test_store_restart");
    const std::string &dir = scratch.path;

    uint64_t id = 0, digest = 0, posInsts = 0;
    {
        DebugServerOptions opts;
        opts.maxSessions = 4;
        opts.session = smallSessions();
        opts.storeDir = dir;
        DebugServer srv(opts);
        ASSERT_TRUE(srv.start());
        WireClient wire;
        ASSERT_TRUE(wire.connectTo(srv.port()));
        Response resp;
        ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
        id = resp.value;
        Request setw;
        setw.kind = RequestKind::SetWatch;
        setw.seq = 2;
        setw.watch = WatchSpec::scalar("w", watchAddr, 8);
        ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));
        ASSERT_TRUE(callOk(wire, "cont seq=3", resp));
        posInsts = resp.stop.appInsts;
        ASSERT_TRUE(callOk(wire, "session-persist seq=4", resp));
        digest = resp.value;
        srv.stop(); // hard stop: nothing else written to the store
    }

    DebugServerOptions opts;
    opts.maxSessions = 4;
    opts.session = smallSessions();
    opts.storeDir = dir;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());
    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "server-stats seq=1", resp));
    EXPECT_EQ(resp.server.hibernated, 1u);
    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=2 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(callOk(wire, sel, resp));
    ASSERT_TRUE(callOk(wire, "stats seq=3", resp));
    EXPECT_EQ(resp.stats.appInsts, posInsts);
    ASSERT_TRUE(callOk(wire, "session-persist seq=4", resp));
    EXPECT_EQ(resp.value, digest); // bit-identical resurrection
    srv.stop();
}

// ------------------------------------------------------ observability

TEST(Histogram, ConcurrentObserversAgree)
{
    // The TSan build runs this test: concurrent observe() against
    // concurrent snapshot() must be race-free, and the final totals
    // exact once the writers join.
    Histogram h;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 50000;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed))
            (void)h.snapshot("concurrent");
    });
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t)
        writers.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                h.observe(t * 1000 + (i % 7));
        });
    for (auto &w : writers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(h.count(), kThreads * kPerThread);
    uint64_t expectedSum = 0, bucketTotal = 0;
    for (unsigned t = 0; t < kThreads; ++t)
        for (uint64_t i = 0; i < kPerThread; ++i)
            expectedSum += t * 1000 + (i % 7);
    EXPECT_EQ(h.sum(), expectedSum);
    for (size_t i = 0; i < Histogram::kBuckets; ++i)
        bucketTotal += h.bucketCount(i);
    EXPECT_EQ(bucketTotal, h.count());
}

TEST(DebugServerTcp, DurabilityCountersTravelTheWire)
{
    // sv.dropped / sv.quarantined / sv.faults, driven for real and
    // read back through the typed wire — not just struct-to-struct.
    Program demo = buildHeisenbugDemo();
    Addr watchAddr = demo.symbol("directory");
    persist::ScratchDir scratch("server_test_store_counters");
    const std::string &dir = scratch.path;
    persist::FaultInjector faults;

    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    opts.storeDir = dir;
    opts.faults = &faults;
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "session-create seq=1 name=demo", resp));
    uint64_t id = resp.value;
    Request setw;
    setw.kind = RequestKind::SetWatch;
    setw.seq = 2;
    setw.watch = WatchSpec::scalar("w", watchAddr, 8);
    ASSERT_TRUE(callOk(wire, encodeRequest(setw), resp));
    ASSERT_TRUE(callOk(wire, "cont seq=3", resp));

    // A sink that never drains: the first push drops it (sv.dropped).
    class WedgedSink : public EventSink
    {
        bool deliver(const SessionEvent &) override { return false; }
        void farewell(const SessionEvent &) override {}
    };
    {
        ManagedSessionPtr ms = srv.sessions().find(id);
        ASSERT_TRUE(ms);
        ms->addSink(std::make_shared<WedgedSink>());
        ms->pushEvents(); // events queued by the cont above
        EXPECT_EQ(ms->subscriberCount(), 0u);
    }

    // One injected fsync fault: the persist fails cleanly (sv.faults).
    faults.armNth(persist::FaultInjector::Site::Fsync, 1);
    ASSERT_TRUE(wire.call("session-persist seq=4", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    faults.disarm();
    EXPECT_GE(faults.injected(), 1u);

    // Hibernate for real, then corrupt every image on disk so the
    // resurrection quarantines it (sv.quarantined).
    ASSERT_TRUE(callOk(wire, "session-persist seq=5", resp));
    ASSERT_TRUE(callOk(wire, "session-hibernate seq=6", resp));
    persist::RealVfs vfs;
    std::vector<std::string> names;
    ASSERT_TRUE(vfs.list(dir, names));
    unsigned corrupted = 0;
    for (const std::string &n : names) {
        if (n.size() < 4 || n.compare(n.size() - 4, 4, ".img") != 0)
            continue;
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(vfs.readFile(dir + "/" + n, bytes, nullptr));
        ASSERT_FALSE(bytes.empty());
        bytes[bytes.size() / 2] ^= 0xff;
        ASSERT_TRUE(vfs.writeFile(dir + "/" + n, bytes.data(),
                                  bytes.size(), nullptr));
        ++corrupted;
    }
    ASSERT_GE(corrupted, 1u);
    char sel[64];
    std::snprintf(sel, sizeof sel, "session-select seq=7 session=%llu",
                  static_cast<unsigned long long>(id));
    ASSERT_TRUE(wire.call(sel, resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("bad-checksum"), std::string::npos)
        << resp.error;

    // dropped and faults arrive wire-decoded, alongside the latency
    // histograms this connection's own verbs populated.
    ASSERT_TRUE(callOk(wire, "server-stats seq=8", resp));
    EXPECT_EQ(resp.server.dropped, 1u);
    EXPECT_GE(resp.server.faultsInjected, 1u);
    EXPECT_GE(resp.server.hists.size(), 5u);
    bool sawVerbLatency = false;
    for (const HistogramSnapshot &h : resp.server.hists)
        if (h.name == "dise_verb_latency_us") {
            sawVerbLatency = true;
            EXPECT_GT(h.count, 0u);
            uint64_t total = 0;
            for (uint64_t b : h.buckets)
                total += b;
            EXPECT_EQ(total, h.count);
        }
    EXPECT_TRUE(sawVerbLatency);
    srv.stop();

    // The open-time scan is what quarantines the corrupt image (the
    // mid-run load failure above reported but did not classify): a
    // second server on the same store counts it in sv.quarantined.
    DebugServer srv2(opts);
    ASSERT_TRUE(srv2.start());
    WireClient wire2;
    ASSERT_TRUE(wire2.connectTo(srv2.port()));
    ASSERT_TRUE(callOk(wire2, "server-stats seq=1", resp));
    EXPECT_GE(resp.server.quarantined, 1u);
    EXPECT_EQ(resp.server.hibernated, 0u); // the corrupt image is out
    srv2.stop();
}

TEST(DebugServerTcp, TraceVerbsAndMetricsExposition)
{
    DebugServerOptions opts;
    opts.maxSessions = 2;
    opts.session = smallSessions();
    DebugServer srv(opts);
    ASSERT_TRUE(srv.start());

    WireClient wire;
    ASSERT_TRUE(wire.connectTo(srv.port()));
    Response resp;
    ASSERT_TRUE(callOk(wire, "trace-start seq=1 count=64", resp));
    // Dumping mid-flight is refused: the rings are being written.
    ASSERT_TRUE(wire.call("trace-dump seq=2", resp));
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("armed"), std::string::npos)
        << resp.error;

    ASSERT_TRUE(callOk(wire, "session-create seq=3 name=demo", resp));
    ASSERT_TRUE(callOk(wire, "stepi seq=4 count=2000", resp));
    // A session-dispatched verb (exec verbs go straight to the
    // scheduler) so the dump carries session-layer spans too.
    ASSERT_TRUE(callOk(wire, "stats seq=90", resp));
    ASSERT_TRUE(callOk(wire, "trace-stop seq=5", resp));
    EXPECT_GT(resp.value, 0u); // records captured

    // Tiny chunks force several round trips; the reassembly must be
    // byte-exact against the advertised total.
    std::string dump;
    uint64_t total = 0;
    unsigned chunks = 0;
    do {
        char line[96];
        std::snprintf(line, sizeof line,
                      "trace-dump seq=%u count=2048 value=%llu",
                      6 + chunks,
                      static_cast<unsigned long long>(dump.size()));
        ASSERT_TRUE(callOk(wire, line, resp));
        total = resp.value;
        if (resp.text.empty())
            break;
        dump += resp.text;
        ++chunks;
    } while (dump.size() < total);
    EXPECT_EQ(dump.size(), total);
    EXPECT_GE(chunks, 2u);
    EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(dump.find("\"cat\":\"sched\""), std::string::npos);
    EXPECT_NE(dump.find("\"cat\":\"session\""), std::string::npos);
    EXPECT_NE(dump.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(dump.find("\"ph\":\"E\""), std::string::npos);

    // The Prometheus surface, over the same connection.
    ASSERT_TRUE(callOk(wire, "metrics seq=100", resp));
    EXPECT_NE(resp.text.find("# TYPE dise_verb_latency_us histogram"),
              std::string::npos);
    EXPECT_NE(resp.text.find("dise_verb_latency_us_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(resp.text.find("# TYPE dise_sched_queue_wait_us histogram"),
              std::string::npos);
    EXPECT_NE(resp.text.find("dise_slice_duration_us_count"),
              std::string::npos);
    srv.stop();
}

// ---------------------------------------------------------- heap policy

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DISE_SANITIZER_HEAP 1
#endif

TEST(DebugServerHeap, FreedBlocksDoNotRaiseTheMmapThreshold)
{
#if !defined(__GLIBC__) || defined(DISE_SANITIZER_HEAP)
    GTEST_SKIP() << "the heap policy is glibc's allocator's";
#else
    // glibc's dynamic policy would raise the mmap threshold to 8 MiB
    // at this free, and the 1 MiB block after it would then be carved
    // from a heap that keeps it once freed. The check runs in a freshly
    // executed process: a block freed by an earlier test could
    // otherwise serve the 1 MiB from a heap under either policy.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            DebugServerOptions opts;
            DebugServer srv(opts);
            void *volatile big = std::malloc(8u << 20);
            std::free(big);
            size_t mapped = mallinfo2().hblks;
            void *volatile mid = std::malloc(1u << 20);
            bool grew = mallinfo2().hblks > mapped;
            std::free(mid);
            std::_Exit(grew ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
#endif
}

} // namespace
} // namespace dise
