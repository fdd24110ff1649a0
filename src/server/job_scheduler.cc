#include "server/job_scheduler.hh"

#include <algorithm>
#include <future>
#include <stdexcept>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dise::server {

JobScheduler::JobScheduler(JobSchedulerOptions opts)
{
    workers_ = opts.workers
                   ? opts.workers
                   : std::max(2u, std::thread::hardware_concurrency());
    slice_ = opts.sliceInsts ? opts.sliceInsts : 50000;
    faults_ = opts.faults;
    pool_.reserve(workers_);
    for (unsigned i = 0; i < workers_; ++i)
        pool_.emplace_back([this] { workerLoop(); });
}

JobScheduler::~JobScheduler()
{
    stop();
}

// ------------------------------------------------------------ lifecycle

void
JobScheduler::stop()
{
    std::deque<TicketPtr> orphans;
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        orphans.swap(ready_);
        for (const TicketPtr &t : orphans)
            finalize(lk, t, {false, "scheduler stopped"});
        cv_.notify_all();
    }
    for (std::thread &th : pool_)
        if (th.joinable())
            th.join();
    pool_.clear();
}

/** Mark @p t finished under the scheduler lock; completion callbacks
 *  run with the lock dropped (they may touch sessions or sockets). */
void
JobScheduler::finalize(std::unique_lock<std::mutex> &lk,
                       const TicketPtr &t, JobResult res)
{
    t->finished = true;
    t->result = std::move(res);
    doneCv_.notify_all();
    if (t->onDone) {
        DoneFn done = std::move(t->onDone);
        JobResult copy = t->result;
        lk.unlock();
        done(copy);
        lk.lock();
    }
}

void
JobScheduler::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [&] { return stopping_ || !ready_.empty(); });
        if (stopping_)
            return;
        TicketPtr t;
        {
            TRACE_SPAN("sched", "sched.dequeue");
            t = ready_.front();
            ready_.pop_front();
            obs::metrics().schedQueueWaitUs.observe(
                obs::usSince(t->enqueuedNs));
        }

        if (t->cancelled.load(std::memory_order_acquire)) {
            finalize(lk, t, {false, "interrupted"});
            continue;
        }

        bool done = false;
        JobResult res;
        lk.unlock();
        if (faults_ &&
            faults_->shouldFail(persist::FaultInjector::Site::Slice)) {
            // Chaos hook: fail the job at a slice boundary — the same
            // cut point a cancel uses, so the session is at a valid,
            // deterministic position and the error path is exactly the
            // one a real mid-job failure would take.
            done = true;
            res = {false, "injected scheduler fault at slice boundary"};
        } else {
            uint64_t t0 = obs::nowNs();
            try {
                TRACE_SPAN("sched", "sched.slice");
                done = t->fn(slice_);
            } catch (const std::exception &e) {
                done = true;
                res = {false, e.what()};
            }
            obs::metrics().sliceDurationUs.observe(obs::usSince(t0));
        }
        slices_.fetch_add(1, std::memory_order_relaxed);
        lk.lock();

        if (done)
            finalize(lk, t, std::move(res));
        else if (stopping_)
            finalize(lk, t, {false, "scheduler stopped"});
        else {
            TRACE_SPAN("sched", "sched.requeue");
            t->enqueuedNs = obs::nowNs();
            ready_.push_back(t); // round-robin: back of the line
        }
    }
}

// ------------------------------------------------------------- generic

JobScheduler::TicketPtr
JobScheduler::submit(SliceFn fn, DoneFn onDone)
{
    TRACE_SPAN("sched", "sched.submit");
    auto t = std::make_shared<Ticket>();
    t->fn = std::move(fn);
    t->onDone = std::move(onDone);
    t->enqueuedNs = obs::nowNs();
    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_) {
        finalize(lk, t, {false, "scheduler stopped"});
        return t;
    }
    ready_.push_back(t);
    cv_.notify_one();
    return t;
}

bool
JobScheduler::wait(const TicketPtr &t, std::string *err)
{
    std::unique_lock<std::mutex> lk(mu_);
    doneCv_.wait(lk, [&] { return t->finished; });
    if (!t->result.ok && err)
        *err = t->result.error;
    return t->result.ok;
}

void
JobScheduler::cancel(const TicketPtr &t)
{
    if (t)
        t->cancelled.store(true, std::memory_order_release);
}

// ------------------------------------------------------ session ops

namespace {

/** The long verbs that resume execution (drive()'s stop form). */
bool
isResume(RequestKind kind)
{
    return DebugSession::isLongVerb(kind) &&
           kind != RequestKind::SetWatch && kind != RequestKind::SetBreak;
}

/** One slice of a session's in-flight op. The slice is the exclusion
 *  unit: an RSP peek waiting on sliceMu gets the session at this
 *  boundary, never mid-µop. With @p stop, a finished op's stop is
 *  taken inside the slice too. */
bool
stepSlice(ManagedSession &s, uint64_t slice, StopInfo *stop = nullptr)
{
    if (s.closing.load(std::memory_order_acquire))
        throw std::runtime_error("session destroyed");
    std::lock_guard<std::mutex> sliceLk(s.sliceMu);
    bool done = s.session.step(slice);
    if (done && stop)
        *stop = s.session.finish().stop;
    s.slices.fetch_add(1, std::memory_order_relaxed);
    s.publishProgress();
    s.pushEvents();
    return done;
}

} // namespace

bool
JobScheduler::complete(ManagedSession &s, std::string *err)
{
    if (!wait(submit([&s](uint64_t slice) { return stepSlice(s, slice); }),
              err))
        return false;
    s.jobs.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
JobScheduler::completeHere(ManagedSession &s, std::string *err)
{
    // The worker running a slice posts it here and waits for it.
    struct Inbox
    {
        std::mutex mu;
        std::condition_variable cv;
        std::packaged_task<bool()> *slice = nullptr;
        bool closed = false;
    };
    auto box = std::make_shared<Inbox>();
    TicketPtr t = submit(
        [&s, box](uint64_t n) {
            std::packaged_task<bool()> slice(
                [&s, n] { return stepSlice(s, n); });
            std::future<bool> done = slice.get_future();
            {
                std::lock_guard<std::mutex> lk(box->mu);
                box->slice = &slice;
            }
            box->cv.notify_all();
            return done.get(); // rethrows what the step threw
        },
        [box](const JobResult &) {
            std::lock_guard<std::mutex> lk(box->mu);
            box->closed = true;
            box->cv.notify_all();
        });
    for (;;) {
        std::packaged_task<bool()> *slice = nullptr;
        {
            std::unique_lock<std::mutex> lk(box->mu);
            box->cv.wait(lk, [&] { return box->slice || box->closed; });
            std::swap(slice, box->slice);
        }
        if (!slice)
            break;
        (*slice)();
    }
    if (!wait(t, err))
        return false;
    s.jobs.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
JobScheduler::drive(ManagedSession &s, const Request &req, Response &out,
                    std::string *err)
{
    if (!s.session.begin(req) && !complete(s, err))
        return false;
    out = s.session.finish();
    s.publishProgress();
    s.pushEvents();
    return true;
}

bool
JobScheduler::drive(ManagedSession &s, RequestKind kind, uint64_t count,
                    StopInfo &out, std::string *err)
{
    if (!isResume(kind)) {
        if (err)
            *err = "not a resume verb";
        return false;
    }
    Request req;
    req.kind = kind;
    req.count = count;
    Response resp;
    if (!drive(s, req, resp, err))
        return false;
    if (!resp.ok()) {
        if (err)
            *err = resp.error;
        return false;
    }
    out = resp.stop;
    return true;
}

JobScheduler::TicketPtr
JobScheduler::driveAsync(ManagedSessionPtr sp, RequestKind kind,
                         uint64_t count, ExecDoneFn done,
                         std::string *err)
{
    if (!sp || !isResume(kind)) {
        if (err)
            *err = sp ? "not a resume verb" : "no session";
        return nullptr;
    }
    Request req;
    req.kind = kind;
    req.count = count;
    if (sp->session.begin(req)) {
        // Resume verbs only complete outright when refused.
        Response resp = sp->session.finish();
        if (err)
            *err = resp.error;
        return nullptr;
    }
    // The completion runs outside any slice, where a non-stop peek may
    // hold the session: it reads the session only under sliceMu.
    auto stop = std::make_shared<StopInfo>();
    return submit(
        [sp, stop](uint64_t slice) {
            return stepSlice(*sp, slice, stop.get());
        },
        [sp, stop, done = std::move(done)](const JobResult &res) {
            sp->jobs.fetch_add(1, std::memory_order_relaxed);
            if (res.ok) {
                done(true, false, *stop, "");
                return;
            }
            // An interrupted job stopped at a slice boundary: the
            // session sits at a valid, deterministic intermediate
            // position. Report it as the stop.
            {
                std::lock_guard<std::mutex> lk(sp->sliceMu);
                *stop = sp->session.currentStop();
            }
            done(res.interrupted(), res.interrupted(), *stop,
                 res.interrupted() ? "" : res.error);
        });
}

} // namespace dise::server
