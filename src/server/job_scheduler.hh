/**
 * @file
 * The execution scheduler of the multi-session server: a preemptible
 * **Job** model over a pool of W worker threads.
 *
 * A Job is a closure the scheduler calls one bounded slice at a time.
 * Workers pop jobs from a FIFO ready queue, run exactly one slice, and
 * requeue unfinished jobs at the back, so S contending jobs
 * round-robin and no job occupies a worker end to end. Every long
 * session verb is the session's one in-flight op
 * (DebugSession::begin/step/finish) — resumes, reverse replays,
 * post-attach rebuild-replays (a wire set-watch, a gdb `Z` after `c`)
 * and resurrection — and the scheduler runs each the same way: one
 * step(sliceInsts) per slice. Interval-replay workers are jobs too. A
 * reverse verb that replays a million instructions thus interleaves
 * with a forward-stepping session even on one worker.
 *
 * Submission is synchronous (drive(): the blocking protocol verbs) or
 * asynchronous (driveAsync(): RSP non-stop `%Stop` notifications and
 * wire event push). cancel() finalizes a job with the "interrupted"
 * error at its next scheduling point; the session then sits at a
 * valid, deterministic intermediate position — a gdb Ctrl-C against a
 * runaway continue.
 *
 * Sessions are share-nothing; a job needs no lock but its caller's
 * exclusive session access, which the submitter delegates to the
 * scheduler for the job's lifetime (each handoff between workers is
 * ordered by the scheduler mutex). Session jobs re-check the closing
 * flag before every slice, so teardown mid-run is a slice-boundary
 * affair.
 */

#ifndef DISE_SERVER_JOB_SCHEDULER_HH
#define DISE_SERVER_JOB_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "persist/fault_injector.hh"
#include "server/session_manager.hh"

namespace dise::server {

struct JobSchedulerOptions
{
    /** Worker threads (execution slots); 0 = hardware concurrency. */
    unsigned workers = 0;
    /** Application instructions per slice. */
    uint64_t sliceInsts = 50000;
    /** When set, consulted at every slice boundary (Site::Slice); a
     *  hit fails the job cleanly — the session stays at its last
     *  slice-boundary position, exactly like a cancel. Chaos-testing
     *  hook; not owned. */
    persist::FaultInjector *faults = nullptr;
};

class JobScheduler
{
  public:
    /**
     * One bounded slice of a preemptible job. Returns true when the
     * job completed; throw to fail it (the scheduler catches and
     * reports the message).
     */
    using SliceFn = std::function<bool(uint64_t sliceInsts)>;

    struct JobResult
    {
        bool ok = true;
        /** "interrupted" when cancelled; an exception message on
         *  failure. */
        std::string error;
        bool interrupted() const { return error == "interrupted"; }
    };

    /** Completion callback; runs on a worker thread, outside locks. */
    using DoneFn = std::function<void(const JobResult &)>;

    /** Shared handle to one submitted job. */
    class Ticket
    {
        friend class JobScheduler;
        SliceFn fn;
        DoneFn onDone;
        std::atomic<bool> cancelled{false};
        bool finished = false; ///< guarded by the scheduler mutex
        JobResult result;
        /** obs::nowNs() at submit/requeue; feeds the queue-wait
         *  histogram when a worker dequeues the job. */
        uint64_t enqueuedNs = 0;
    };
    using TicketPtr = std::shared_ptr<Ticket>;

    /** Async exec-verb completion: the final stop, or an error. */
    using ExecDoneFn = std::function<void(
        bool ok, bool interrupted, const StopInfo &stop,
        const std::string &err)>;

    explicit JobScheduler(JobSchedulerOptions opts = {});
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /** @name Generic preemptible jobs */
    ///@{
    TicketPtr submit(SliceFn fn, DoneFn onDone = {});
    /** Block until @p t finishes. False (with @p err) on failure. */
    bool wait(const TicketPtr &t, std::string *err = nullptr);
    /** Finalize @p t with the "interrupted" result at its next
     *  scheduling point (a job mid-slice finishes the slice first). */
    void cancel(const TicketPtr &t);
    ///@}

    /** @name Session ops
     * Every long session verb is the session's one in-flight op
     * (DebugSession::begin/step/finish); the scheduler runs any of
     * them the same way. The caller must have exclusive use of the
     * session (hold s.mu for shared sessions) and delegates it to the
     * scheduler until the op completes. */
    ///@{
    /**
     * Run @p req on @p s: begin() on the calling thread (an op that
     * completes outright never touches the queue), then step the op
     * as a preemptible job until it completes. False with @p err when
     * the job fails (session destroyed, interrupted, injected fault,
     * scheduler stopped); @p out holds the op's Response otherwise.
     */
    bool drive(ManagedSession &s, const Request &req, Response &out,
               std::string *err = nullptr);
    /** The resume-verb form: false also when the verb is refused. */
    bool drive(ManagedSession &s, RequestKind kind, uint64_t count,
               StopInfo &out, std::string *err = nullptr);
    /**
     * The non-blocking form: returns once the job is queued; @p done
     * fires from a worker when it finishes (an interrupted job
     * reports the session's current position as its stop). Returns
     * nullptr (with @p err) when the verb cannot start. The returned
     * ticket can be cancel()ed. @p sp keeps the session alive for the
     * job's duration.
     */
    TicketPtr driveAsync(ManagedSessionPtr sp, RequestKind kind,
                         uint64_t count, ExecDoneFn done,
                         std::string *err = nullptr);
    /** Step @p s's already-begun op to completion as a job. */
    bool complete(ManagedSession &s, std::string *err = nullptr);
    /** complete(), with each slice run on the calling thread while a
     *  worker holds its slot: the same queue order and worker bound,
     *  but the op's heap comes from the caller's malloc arena. For
     *  ops that build a whole session (resurrection): on rotating
     *  workers each rebuild fragments another arena. */
    bool completeHere(ManagedSession &s, std::string *err = nullptr);

    ///@}

    /** Fail every queued job and join the workers (idempotent). */
    void stop();

    unsigned workers() const { return workers_; }
    uint64_t sliceInsts() const { return slice_; }
    uint64_t slicesRun() const
    {
        return slices_.load(std::memory_order_relaxed);
    }

  private:
    void workerLoop();
    void finalize(std::unique_lock<std::mutex> &lk, const TicketPtr &t,
                  JobResult res);

    std::mutex mu_;
    std::condition_variable cv_;     ///< workers: ready work / stop
    std::condition_variable doneCv_; ///< waiters: job finished
    std::deque<TicketPtr> ready_;
    std::vector<std::thread> pool_;
    bool stopping_ = false;

    unsigned workers_;
    uint64_t slice_;
    persist::FaultInjector *faults_;
    std::atomic<uint64_t> slices_{0};
};

} // namespace dise::server

#endif // DISE_SERVER_JOB_SCHEDULER_HH
