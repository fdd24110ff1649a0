#include "replay/interval_replay.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "debug/debugger.hh"
#include "debug/target.hh"
#include "obs/trace.hh"
#include "replay/checkpoint.hh"

namespace dise {

IntervalReplay::IntervalReplay(TimeTravel &tt, DebugTarget &live,
                               DebugBackend &liveBackend,
                               const ReplayLog &log,
                               ReplicaFactory factory)
    : tt_(tt), live_(live), liveBackend_(liveBackend), log_(log),
      factory_(std::move(factory))
{
    DISE_ASSERT(factory_, "IntervalReplay needs a replica factory");
    const auto &cps = tt_.checkpoints();
    DISE_ASSERT(!cps.empty(), "no checkpoints to replay from");
    // Cut the checkpoint list into Pieces contiguous ranges of
    // near-equal length; the last range runs to the live position.
    size_t pieces = std::min<size_t>(Pieces, cps.size());
    for (size_t p = 0; p < pieces; ++p) {
        size_t lo = p * cps.size() / pieces;
        size_t hi = (p + 1) * cps.size() / pieces;
        Interval iv;
        iv.cpFrom = lo;
        iv.cpTo = hi;
        iv.fromTime = cps[lo].time;
        iv.fromInsts = cps[lo].appInsts;
        iv.toTime = hi < cps.size() ? cps[hi].time : tt_.time();
        plan_.push_back(iv);
    }
}

std::unique_ptr<IntervalReplay::Pool>
IntervalReplay::makePool() const
{
    return std::unique_ptr<Pool>(new Pool(*this));
}

// ----------------------------------------------------------------- pool

bool
IntervalReplay::Pool::slice(std::unique_ptr<Worker> &w,
                            uint64_t maxAppInsts)
{
    bool claimed = !w;
    if (claimed) {
        std::lock_guard<std::mutex> lk(mu_);
        if (next_ == owner_.plan_.size())
            return true;
        w.reset(new Worker(owner_, owner_.plan_[next_++]));
    }
    try {
        // Materializing the start state is a slice of its own.
        if (claimed) {
            w->prepare();
            return false;
        }
        if (!w->step(maxAppInsts))
            return false;
        std::lock_guard<std::mutex> lk(mu_);
        done_.push_back(w->result());
    } catch (const std::exception &e) {
        // The earliest failed range names the error, whichever runner
        // failed first.
        const Interval &iv = w->result();
        std::lock_guard<std::mutex> lk(mu_);
        if (error_.empty() || iv.cpFrom < errorFrom_) {
            errorFrom_ = iv.cpFrom;
            error_ = "range [" + std::to_string(iv.cpFrom) + "," +
                     std::to_string(iv.cpTo) + "): " + e.what();
        }
    }
    w.reset();
    return false;
}

IntervalReplay::Report
IntervalReplay::Pool::report()
{
    std::lock_guard<std::mutex> lk(mu_);
    Report r = owner_.stitch(std::move(done_));
    // A failed range is the cause; the stitch only sees its symptom.
    if (!error_.empty()) {
        r.ok = false;
        r.error = error_;
    }
    return r;
}

// --------------------------------------------------------------- worker

IntervalReplay::Worker::Worker(const IntervalReplay &owner,
                               const Interval &iv)
    : owner_(owner), interval_(iv)
{
}

IntervalReplay::Worker::~Worker() = default;

void
IntervalReplay::Worker::prepare()
{
    TRACE_SPAN("replay", "ireplay.prepare");
    DISE_ASSERT(!tt_, "worker already prepared");
    if (!owner_.factory_(target_, debugger_))
        throw std::runtime_error(
            "interval replay: machinery rebuild failed");
    DebugBackend &backend = debugger_->backend();
    const DebugBackend &live = owner_.liveBackend_;
    const auto &cps = owner_.tt_.checkpoints();
    const Checkpoint &cp = cps[interval_.cpFrom];

    // Materialize the memory image at the starting checkpoint: clone
    // the live image (read-only on the live side) and roll it back
    // through the undo chain, newest interval first.
    target_->mem.copyImageFrom(owner_.live_.mem);
    target_->mem.applyUndo(owner_.live_.mem.pendingUndo());
    for (size_t j = cps.size() - 1; j > interval_.cpFrom; --j)
        target_->mem.applyUndo(cps[j - 1].undo);

    // The checkpoint only counts events and output; adopt the live
    // prefixes so per-kind indices and digests line up.
    backend.adoptEvents(
        {live.watchEvents().begin(),
         live.watchEvents().begin() + cp.host.watchEvents},
        {live.breakEvents().begin(),
         live.breakEvents().begin() + cp.host.breakEvents},
        {live.protectionEvents().begin(),
         live.protectionEvents().begin() + cp.host.protectionEvents});
    target_->sink.text = owner_.live_.sink.text.substr(0, cp.sinkText);
    target_->sink.marks.assign(
        owner_.live_.sink.marks.begin(),
        owner_.live_.sink.marks.begin() + cp.sinkMarks);

    // The replica replays a copy of the live log: replay writes engine
    // ids and tool slots into the log it runs on. A Seek to the start
    // applies the interventions stamped there.
    debugger_->replayLog() = owner_.log_;
    tt_ = std::make_unique<TimeTravel>(*target_, backend,
                                       debugger_->replayLog(), cp,
                                       owner_.tt_.config());
    tt_->travel(TravelVerb::Seek, cp.time);
    interval_.startDigest = tt_->digest();
}

bool
IntervalReplay::Worker::step(uint64_t maxAppInsts)
{
    TRACE_SPAN("replay", "ireplay.step");
    DISE_ASSERT(tt_, "step() before prepare()");
    // One Seek to the range's end, begun by the first call.
    bool done = false;
    if (!tt_->travelActive())
        tt_->travelBegin(TravelVerb::Seek, interval_.toTime, done);
    uint64_t budgetEnd = maxAppInsts ? tt_->appInsts() + maxAppInsts : 0;
    while (!done) {
        if (budgetEnd && tt_->appInsts() >= budgetEnd)
            return false; // budget expired; call step() again
        tt_->travelStep(budgetEnd ? budgetEnd - tt_->appInsts() : 0,
                        done);
    }

    const BackendSnapshot &from =
        owner_.tt_.checkpoints()[interval_.cpFrom].host;
    interval_.uopsReplayed = tt_->time() - interval_.fromTime;
    interval_.marksVerified = tt_->eventsSoFar() - from.watchEvents -
                              from.breakEvents - from.protectionEvents;
    interval_.endDigest = tt_->digest();
    return true;
}

// ----------------------------------------------------------- execution

IntervalReplay::Report
IntervalReplay::run(unsigned workers) const
{
    std::unique_ptr<Pool> pool = makePool();
    auto work = [&] {
        // Plain threads have nothing to preempt: replay each range in
        // one step.
        std::unique_ptr<Worker> w;
        while (!pool->slice(w, 0)) {
        }
    };
    // More threads than ranges can never all find work.
    unsigned n = std::max<size_t>(
        1, std::min<size_t>(workers ? workers : 1, plan_.size()));
    if (n == 1) {
        work();
    } else {
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < n; ++i)
            threads.emplace_back(work);
        for (auto &t : threads)
            t.join();
    }
    return pool->report();
}

IntervalReplay::Report
IntervalReplay::stitch(std::vector<Interval> results) const
{
    Report r;
    r.intervals = std::move(results);
    std::sort(r.intervals.begin(), r.intervals.end(),
              [](const Interval &a, const Interval &b) {
                  return a.cpFrom < b.cpFrom;
              });
    r.liveDigest = stateDigest(live_, liveBackend_);
    r.ok = !r.intervals.empty();
    const size_t cpCount = tt_.checkpoints().size();
    for (size_t i = 0; i < r.intervals.size(); ++i) {
        const Interval &iv = r.intervals[i];
        r.uopsReplayed += iv.uopsReplayed;
        r.marksVerified += iv.marksVerified;
        // Full coverage: the sorted ranges must tile the checkpoint
        // list exactly.
        size_t wantFrom = i == 0 ? 0 : r.intervals[i - 1].cpTo;
        if (iv.cpFrom != wantFrom) {
            r.ok = false;
            if (r.error.empty())
                r.error = "coverage gap before checkpoint " +
                          std::to_string(iv.cpFrom);
        }
        // Deterministic stitch: each range must end exactly where
        // the next one starts.
        if (i + 1 < r.intervals.size() &&
            iv.endDigest != r.intervals[i + 1].startDigest) {
            r.ok = false;
            if (r.error.empty())
                r.error = "stitch mismatch between ranges " +
                          std::to_string(i) + " and " +
                          std::to_string(i + 1);
        }
    }
    if (!r.intervals.empty()) {
        if (r.intervals.back().cpTo != cpCount) {
            r.ok = false;
            if (r.error.empty())
                r.error = "coverage ends before the live position";
        }
        r.finalDigest = r.intervals.back().endDigest;
        if (r.finalDigest != r.liveDigest) {
            r.ok = false;
            if (r.error.empty())
                r.error = "final digest differs from the live session";
        }
    }
    return r;
}

} // namespace dise
