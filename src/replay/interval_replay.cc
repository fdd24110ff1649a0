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
                               ReplicaFactory factory, Options opts)
    : tt_(tt), live_(live), liveBackend_(liveBackend), log_(log),
      factory_(std::move(factory)), opts_(opts)
{
    DISE_ASSERT(factory_, "IntervalReplay needs a replica factory");
    const auto &cps = tt_.checkpoints();
    DISE_ASSERT(!cps.empty(), "no checkpoints to replay from");
    // Cut the checkpoint list into `pieces` contiguous ranges of
    // near-equal length; the last range runs to the live position.
    // With stealing on this is only the seed cut — idle workers
    // re-split in-flight ranges at checkpoint granularity.
    size_t pieces =
        std::max<size_t>(1, std::min<size_t>(opts_.pieces, cps.size()));
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

IntervalReplay::Pool::Pool(const IntervalReplay &owner) : owner_(owner)
{
    for (const Interval &iv : owner_.plan_)
        pending_.push_back(iv);
}

std::unique_ptr<IntervalReplay::Worker>
IntervalReplay::Pool::claim()
{
    std::lock_guard<std::mutex> lk(mu_);
    Interval iv;
    if (!pending_.empty()) {
        iv = pending_.front();
        pending_.pop_front();
    } else if (owner_.opts_.steal) {
        // Split the largest in-flight range: take its far half, from
        // the midpoint of what the victim has not yet reached. The
        // victim re-reads its end under this lock at every checkpoint
        // boundary, so it stops exactly at the handoff.
        auto victim = active_.end();
        size_t best = 1; // a single checkpoint interval is not worth it
        for (auto it = active_.begin(); it != active_.end(); ++it) {
            size_t remaining = it->second.end - it->second.progress;
            if (remaining > best) {
                best = remaining;
                victim = it;
            }
        }
        if (victim == active_.end())
            return nullptr; // nothing splittable left in flight
        const auto &cps = owner_.tt_.checkpoints();
        size_t mid = victim->second.progress + (best + 1) / 2;
        iv.cpFrom = mid;
        iv.cpTo = victim->second.end;
        iv.fromTime = cps[mid].time;
        iv.fromInsts = cps[mid].appInsts;
        iv.toTime = iv.cpTo < cps.size() ? cps[iv.cpTo].time
                                         : owner_.tt_.time();
        iv.stolen = true;
        victim->second.end = mid;
        ++steals_;
    } else {
        return nullptr;
    }
    iv.index = nextIndex_++;
    iv.slot = nextSlot_++;
    active_[iv.slot] = Active{iv.cpFrom, iv.cpTo};
    return std::unique_ptr<Worker>(new Worker(owner_, iv, this));
}

size_t
IntervalReplay::Pool::checkpointReached(unsigned slot, size_t cp)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = active_.find(slot);
    DISE_ASSERT(it != active_.end(), "boundary publish on a retired "
                                     "pool slot");
    it->second.progress = cp;
    return it->second.end;
}

void
IntervalReplay::Pool::complete(const Worker &w)
{
    std::lock_guard<std::mutex> lk(mu_);
    active_.erase(w.interval_.slot);
    done_.push_back(w.interval_);
}

void
IntervalReplay::Pool::abandon(const Worker &w, const std::string &error)
{
    std::lock_guard<std::mutex> lk(mu_);
    active_.erase(w.interval_.slot);
    if (error_.empty())
        error_ = "range [" + std::to_string(w.interval_.cpFrom) + "," +
                 std::to_string(w.interval_.cpTo) + "): " + error;
}

std::vector<IntervalReplay::Interval>
IntervalReplay::Pool::take()
{
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(done_);
}

uint64_t
IntervalReplay::Pool::steals() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return steals_;
}

const std::string &
IntervalReplay::Pool::error() const
{
    return error_;
}

// --------------------------------------------------------------- worker

IntervalReplay::Worker::Worker(const IntervalReplay &owner, Interval iv,
                               Pool *pool)
    : owner_(owner), interval_(iv), pool_(pool)
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
    nextCp_ = interval_.cpFrom + 1;
}

bool
IntervalReplay::Worker::step(uint64_t maxAppInsts)
{
    TRACE_SPAN("replay", "ireplay.step");
    DISE_ASSERT(tt_, "step() before prepare()");
    const auto &cps = owner_.tt_.checkpoints();
    uint64_t budgetEnd = maxAppInsts ? tt_->appInsts() + maxAppInsts : 0;
    bool done = false;
    for (;;) {
        if (tt_->travelActive()) {
            if (budgetEnd && tt_->appInsts() >= budgetEnd)
                return false; // budget expired; call step() again
            tt_->travelStep(budgetEnd ? budgetEnd - tt_->appInsts() : 0,
                            done);
        } else {
            // One Seek per boundary: the next live checkpoint inside
            // the range, or the range's end.
            uint64_t goal = nextCp_ < interval_.cpTo ? cps[nextCp_].time
                                                     : interval_.toTime;
            tt_->travelBegin(TravelVerb::Seek, goal, done);
        }
        if (!done)
            continue;
        if (nextCp_ >= interval_.cpTo)
            break;
        // Landed on a checkpoint boundary: publish progress and honor
        // a steal that shrank this range. A thief only ever takes
        // checkpoints beyond the published progress, so the shrunk end
        // is always still ahead — or exactly here, where the next Seek
        // lands at once and ends the range at the boundary it was cut
        // at.
        size_t end = pool_->checkpointReached(interval_.slot, nextCp_++);
        if (end != interval_.cpTo) {
            interval_.cpTo = end;
            interval_.toTime = cps[end].time;
        }
    }

    const BackendSnapshot &from = cps[interval_.cpFrom].host;
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
    Pool pool(*this);
    auto work = [&] {
        for (;;) {
            std::unique_ptr<Worker> w = pool.claim();
            if (!w)
                return;
            try {
                // Plain threads have nothing to preempt: run the
                // whole range in one step.
                w->prepare();
                w->step(0);
                pool.complete(*w);
            } catch (const std::exception &e) {
                pool.abandon(*w, e.what());
            }
        }
    };

    // More threads than checkpoints can never all find work; beyond
    // that, stealing lets any worker count profit from any cut.
    unsigned n = std::max<size_t>(
        1, std::min<size_t>(workers ? workers : 1,
                            tt_.checkpoints().size()));
    if (n == 1) {
        work();
    } else {
        std::vector<std::thread> pool_threads;
        for (unsigned i = 0; i < n; ++i)
            pool_threads.emplace_back(work);
        for (auto &t : pool_threads)
            t.join();
    }

    uint64_t steals = pool.steals();
    std::string err = pool.error();
    Report r = stitch(pool.take());
    r.workers = n;
    r.steals = steals;
    // A failed worker is the cause; the stitch only sees its symptom.
    if (!err.empty()) {
        r.ok = false;
        r.error = err;
    }
    return r;
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
        // Full coverage: the sorted chunks must tile the checkpoint
        // list exactly, whatever mix of planned and stolen ranges
        // executed them.
        size_t wantFrom = i == 0 ? 0 : r.intervals[i - 1].cpTo;
        if (iv.cpFrom != wantFrom) {
            r.ok = false;
            if (r.error.empty())
                r.error = "coverage gap before checkpoint " +
                          std::to_string(iv.cpFrom);
        }
        // Deterministic stitch: each chunk must end exactly where
        // the next one starts.
        if (i + 1 < r.intervals.size() &&
            iv.endDigest != r.intervals[i + 1].startDigest) {
            r.ok = false;
            if (r.error.empty())
                r.error = "stitch mismatch between chunks " +
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
