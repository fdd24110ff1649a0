/**
 * @file
 * Interval-parallel replay: reconstruct the explored timeline as
 * independent checkpoint ranges on share-nothing replicas.
 *
 * A debugged run's history is already cut into checkpoint intervals by
 * the TimeTravel controller. Because the simulator is deterministic and
 * every checkpoint captures the full replay input set (registers,
 * backend host state, and — via the memory undo chain — the exact
 * memory image), each interval can be re-executed *independently*: a
 * worker gets a fresh replica of the session's machinery (same program,
 * same specs, same instrumentation), materializes its range's starting
 * checkpoint, and starts a TimeTravel there on a copy of the live log.
 * The range is then replayed by one Seek to its end, through the same
 * loop, mark verification and intervention code as every other verb,
 * trace cache included.
 *
 * Fanned out across workers this turns an O(trace) serial
 * reconstruction into O(trace/workers) wall time; the results are
 * stitched deterministically by digest. Both sides of a boundary
 * digest the state after the interventions stamped at that position
 * (a replica applies them right after it starts; its Seek applies them
 * on landing): range k's end digest must equal the start digest of the
 * range that begins at k's last checkpoint, and the final range's end
 * digest must equal the live session's digest bit-for-bit. Any
 * mismatch means determinism was broken — the whole point of running
 * the reconstruction.
 *
 * The checkpoint list is cut once into Pieces ranges, whatever the
 * worker count, so a reconstruction's per-range digests are the same
 * at any worker count. Workers claim whole ranges from a shared Pool
 * until it is empty; threads (run()) and scheduler jobs (the server's
 * replay-verify) both drive Pool::slice().
 *
 * Workers read the live session (checkpoints, marks, interventions,
 * memory pages, travel config) strictly read-only, so any number of
 * them may run concurrently while the session is quiescent. Each
 * worker's replay is itself preemptible (step() takes an
 * app-instruction budget), so a job scheduler can interleave interval
 * jobs with other sessions' work.
 */

#ifndef DISE_REPLAY_INTERVAL_REPLAY_HH
#define DISE_REPLAY_INTERVAL_REPLAY_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "replay/time_travel.hh"

namespace dise {

class Debugger;

class IntervalReplay
{
  public:
    /**
     * Builds a share-nothing replica of the debugged session's
     * machinery: fresh loaded target + attached backend with the
     * identical spec set and initial state. Returns false when the
     * machinery cannot be rebuilt.
     */
    using ReplicaFactory =
        std::function<bool(std::unique_ptr<DebugTarget> &target,
                           std::unique_ptr<Debugger> &debugger)>;

    /**
     * How many contiguous ranges the checkpoint list is cut into
     * (fewer when it holds fewer checkpoints): coarse enough that
     * replica set-up and digest cost amortize, fine enough to fan out.
     */
    static constexpr unsigned Pieces = 8;

    /** One replayed range (a run of checkpoint intervals). */
    struct Interval
    {
        size_t cpFrom = 0;      ///< first checkpoint of the range
        size_t cpTo = 0;        ///< one past the last checkpoint
        uint64_t fromTime = 0;  ///< starting checkpoint's µop position
        uint64_t toTime = 0;    ///< end position (next cp, or live now)
        uint64_t fromInsts = 0;
        /** Digest at fromTime, after the interventions stamped there. */
        uint64_t startDigest = 0;
        /** Digest at toTime, after the interventions stamped there. */
        uint64_t endDigest = 0;
        uint64_t uopsReplayed = 0;
        size_t marksVerified = 0; ///< recorded events re-fired on cue
    };

    /** Stitched outcome of a full reconstruction. */
    struct Report
    {
        bool ok = false;
        std::string error;
        uint64_t liveDigest = 0;  ///< the session's own digest
        uint64_t finalDigest = 0; ///< last range's end digest
        uint64_t uopsReplayed = 0;
        size_t marksVerified = 0;
        std::vector<Interval> intervals; ///< sorted by cpFrom
    };

    IntervalReplay(TimeTravel &tt, DebugTarget &live,
                   DebugBackend &liveBackend, const ReplayLog &log,
                   ReplicaFactory factory);

    size_t intervalCount() const { return plan_.size(); }

    /**
     * A share-nothing worker for one claimed range. prepare() builds
     * the replica, materializes the range's start state and starts the
     * replica's TimeTravel there (throws on a factory failure); step()
     * replays a bounded chunk of the Seek to the range's end and
     * returns true once it lands (throws on replay divergence).
     */
    class Worker
    {
      public:
        ~Worker();
        void prepare();
        /** Replay up to @p maxAppInsts application instructions (0 =
         *  to the end of the range). */
        bool step(uint64_t maxAppInsts);
        const Interval &result() const { return interval_; }

      private:
        friend class IntervalReplay;
        Worker(const IntervalReplay &owner, const Interval &iv);

        const IntervalReplay &owner_;
        Interval interval_;

        std::unique_ptr<DebugTarget> target_;
        std::unique_ptr<Debugger> debugger_;
        /** The replica's copy of the live log: replay writes engine
         *  ids and tool slots into the log it runs on. */
        ReplayLog log_;
        /** The replica's timeline, started at cpFrom (declared last:
         *  it detaches from target_ first). */
        std::unique_ptr<TimeTravel> tt_;
    };

    /**
     * The shared queue of ranges one reconstruction drains. Safe to
     * drive from any number of threads or scheduler jobs.
     */
    class Pool
    {
      public:
        /**
         * One slice of a runner draining this pool; @p w is the range
         * the runner holds. An empty @p w claims the next range and
         * prepares it; a prepared one replays up to @p maxAppInsts of
         * its range (0 = to its end). A range that throws is dropped
         * and the runner moves on; the earliest such range names the
         * report's error. Returns true once the queue is empty.
         */
        bool slice(std::unique_ptr<Worker> &w, uint64_t maxAppInsts);
        /** Stitch the finished ranges (call after the runners are
         *  done); a failed range's error comes ahead of any stitch
         *  symptom. */
        Report report();

      private:
        friend class IntervalReplay;
        explicit Pool(const IntervalReplay &owner) : owner_(owner) {}

        const IntervalReplay &owner_;
        std::mutex mu_;
        size_t next_ = 0; ///< next unclaimed range of the plan
        std::vector<Interval> done_;
        std::string error_;
        size_t errorFrom_ = 0; ///< cpFrom of the range error_ names
    };

    /** A fresh pool over the full cut. */
    std::unique_ptr<Pool> makePool() const;

    /**
     * Reconstruct the whole timeline on @p workers threads (1 =
     * serial) and stitch. Worker errors land in the report, never
     * throw.
     */
    Report run(unsigned workers) const;

  private:
    /** Digest-chain + coverage verification of replayed ranges. */
    Report stitch(std::vector<Interval> results) const;

    TimeTravel &tt_;
    DebugTarget &live_;
    DebugBackend &liveBackend_;
    const ReplayLog &log_;
    ReplicaFactory factory_;
    std::vector<Interval> plan_;
};

} // namespace dise

#endif // DISE_REPLAY_INTERVAL_REPLAY_HH
