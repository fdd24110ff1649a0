/**
 * @file
 * Interval-parallel replay: reconstruct the explored timeline as
 * independent checkpoint intervals on share-nothing replicas.
 *
 * A debugged run's history is already cut into checkpoint intervals by
 * the TimeTravel controller. Because the simulator is deterministic and
 * every checkpoint captures the full replay input set (registers,
 * backend host state, and — via the memory undo chain — the exact
 * memory image), each interval can be re-executed *independently*: a
 * worker gets a fresh replica of the session's machinery (same program,
 * same specs, same instrumentation), materializes its range's starting
 * checkpoint, and starts a TimeTravel there on a copy of the live log.
 * The range is then replayed as Seek goals, one checkpoint boundary at
 * a time, through the same loop, mark verification and intervention
 * code as every other verb, trace cache included.
 *
 * Fanned out across workers this turns an O(trace) serial
 * reconstruction into O(trace/workers) wall time; the results are
 * stitched deterministically by digest. Both sides of a boundary
 * digest the state after the interventions stamped at that position
 * (a replica applies them right after it starts; its final Seek
 * applies them on landing): chunk k's end digest must equal the start
 * digest of the chunk that begins at k's last checkpoint, and the
 * final chunk's end digest must equal the live session's digest
 * bit-for-bit. Any mismatch means determinism was broken — the whole
 * point of running the reconstruction.
 *
 * Work distribution is dynamic: claimed ranges live in a shared Pool,
 * and an idle worker with no pending range left *steals* the far half
 * of the largest in-flight range. The victim publishes its checkpoint
 * progress at every boundary its Seeks land on and re-reads its
 * (possibly shrunk) end under the pool lock at the same point, so a
 * steal is race-free: the thief only ever takes checkpoints the victim
 * has not reached, and both sides agree on the handoff boundary
 * exactly. This is what lets W workers profit from any initial cut —
 * including workers > pieces, where static assignment used to leave
 * cores idle.
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

#include <deque>
#include <functional>
#include <map>
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

    struct Options
    {
        /**
         * How many ranges to cut the timeline into up front. Each
         * range is a contiguous run of checkpoint intervals — coarse
         * enough that replica setup and digest cost amortize, fine
         * enough to fan out. With stealing on this is only the seed
         * cut; idle workers split in-flight ranges further.
         */
        unsigned pieces = 8;
        /**
         * Dynamic work-stealing: an idle worker splits the largest
         * remaining in-flight range instead of going idle. Off =
         * static assignment, the cut replay_test checks stolen
         * chunks against and replay_bench races stealing against.
         */
        bool steal = true;
    };

    /** One executed chunk (a run of checkpoint intervals). */
    struct Interval
    {
        size_t index = 0;       ///< claim order
        unsigned slot = 0;      ///< pool slot that executed it
        bool stolen = false;    ///< carved from an in-flight range
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
        unsigned workers = 0;
        uint64_t steals = 0;      ///< ranges split off in-flight work
        uint64_t liveDigest = 0;  ///< the session's own digest
        uint64_t finalDigest = 0; ///< last chunk's end digest
        uint64_t uopsReplayed = 0;
        size_t marksVerified = 0;
        std::vector<Interval> intervals; ///< sorted by cpFrom
    };

    IntervalReplay(TimeTravel &tt, DebugTarget &live,
                   DebugBackend &liveBackend, const ReplayLog &log,
                   ReplicaFactory factory, Options opts);

    size_t intervalCount() const { return plan_.size(); }
    const Options &options() const { return opts_; }

    class Pool;

    /**
     * A share-nothing worker for one claimed range. prepare() builds
     * the replica, materializes the range's start state and starts the
     * replica's TimeTravel there (throws on a factory failure); step()
     * replays a bounded chunk and returns true once the range is
     * complete (throws on replay divergence). Each Seek lands on the
     * next checkpoint boundary, where the worker publishes progress to
     * its pool and honors steals that shrink its end. Workers of
     * different ranges are fully independent.
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
        friend class Pool;
        Worker(const IntervalReplay &owner, Interval iv, Pool *pool);

        const IntervalReplay &owner_;
        Interval interval_;
        Pool *pool_ = nullptr;

        std::unique_ptr<DebugTarget> target_;
        std::unique_ptr<Debugger> debugger_;
        /** The replica's timeline, started at cpFrom (declared last:
         *  it detaches from target_ first). */
        std::unique_ptr<TimeTravel> tt_;
        size_t nextCp_ = 0; ///< next checkpoint boundary to publish
    };

    /**
     * The shared work queue one reconstruction drains. claim() hands
     * out the next pending range — or, when stealing is on and the
     * queue is dry, splits the largest in-flight range — and returns
     * nullptr once no further parallel work can be extracted. Safe to
     * call from any number of threads or scheduler jobs.
     */
    class Pool
    {
      public:
        /** Next range to execute, or nullptr when drained. */
        std::unique_ptr<Worker> claim();
        /** Record a finished worker's chunk. */
        void complete(const Worker &w);
        /** Record a worker that died mid-range (leaves a gap). */
        void abandon(const Worker &w, const std::string &error);
        /** All completed chunks (call after the workers are done). */
        std::vector<Interval> take();
        uint64_t steals() const;
        const std::string &error() const;

      private:
        friend class IntervalReplay;
        friend class Worker;
        explicit Pool(const IntervalReplay &owner);

        /** Victim-side boundary publish: records that @p slot reached
         *  checkpoint @p cp and returns its current (possibly stolen-
         *  from) end. */
        size_t checkpointReached(unsigned slot, size_t cp);

        struct Active
        {
            size_t progress; ///< last checkpoint boundary reached
            size_t end;      ///< one past the last owned checkpoint
        };

        const IntervalReplay &owner_;
        mutable std::mutex mu_;
        std::deque<Interval> pending_;
        std::map<unsigned, Active> active_;
        std::vector<Interval> done_;
        unsigned nextSlot_ = 0;
        size_t nextIndex_ = 0;
        uint64_t steals_ = 0;
        std::string error_;
    };

    /** A fresh pool over the full timeline cut. */
    std::unique_ptr<Pool> makePool() const;

    /**
     * Reconstruct the whole timeline on @p workers threads (1 =
     * serial) with dynamic stealing and stitch. Worker errors land in
     * the report, never throw; the first one is the report's error,
     * ahead of any stitch symptom.
     */
    Report run(unsigned workers) const;

    /** Digest-chain + coverage verification of executed chunks. */
    Report stitch(std::vector<Interval> results) const;

  private:
    TimeTravel &tt_;
    DebugTarget &live_;
    DebugBackend &liveBackend_;
    const ReplayLog &log_;
    ReplicaFactory factory_;
    Options opts_;
    std::vector<Interval> plan_;
};

} // namespace dise

#endif // DISE_REPLAY_INTERVAL_REPLAY_HH
