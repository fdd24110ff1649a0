/**
 * @file
 * The shard supervisor: one public port in front of N worker shard
 * processes, with session routing, live migration, crash recovery,
 * and queue-wait-driven load balancing.
 *
 * The supervisor owns the TCP port clients connect to. Every worker
 * shard (src/server/shard.hh) is a full DebugServer forked into its
 * own process — its own scheduler worker pool and share-nothing
 * session slice — listening on a private loopback port. The
 * supervisor never simulates anything; it routes:
 *
 *  - RSP connections are sniffed by first byte and byte-pumped
 *    verbatim to the least-loaded shard (gdb's one-target model
 *    means a connection, once placed, never needs re-routing).
 *  - Typed-wire connections are decoded line by line. Session-
 *    addressed verbs follow the routing table (id → shard, with a
 *    session-list probe fallback after crashes); session-create
 *    places new sessions on the least-loaded shard (or the one named
 *    by `shard=`); fleet verbs (session-list, server-stats) fan out
 *    and merge; `shard-stats` and `session-migrate` are answered by
 *    the supervisor itself. Each client connection keeps one
 *    downstream leg per shard it touches, and the supervisor
 *    transparently deselects on the old leg when the client's
 *    selection moves between shards.
 *
 * Live migration is export-then-adopt: `session-export` extracts the
 * session from its source shard as a portable image (digest
 * included), `session-adopt` rebuilds it on the target via
 * digest-verified replay. On any adopt failure the supervisor
 * re-adopts the image back onto the source — the session exists as
 * exactly its old or its new incarnation, never both, never neither.
 * A FaultInjector can be armed at the MigrateExport/MigrateAdopt
 * sites to chaos-test precisely that invariant.
 *
 * A monitor thread reaps crashed shards and respawns them on the
 * same store directory, so persisted sessions of a kill -9'd worker
 * come back (hibernated) on the replacement. The optional balancer
 * compares per-shard scheduler queue-wait means and migrates idle
 * sessions off the most backlogged shard when the spread exceeds a
 * ratio.
 */

#ifndef DISE_SERVER_SUPERVISOR_HH
#define DISE_SERVER_SUPERVISOR_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/listener.hh"
#include "server/shard.hh"
#include "server/wire_client.hh"

namespace dise::server {

struct ShardSupervisorOptions
{
    /** Public TCP port on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;
    /** Worker shard processes to fork. */
    unsigned shards = 2;
    /** Options template for every worker. storeDir, when set, is the
     *  *base* directory: shard k persists under storeDir/shard-<k>,
     *  so a respawned worker recovers exactly its own slice. */
    DebugServerOptions worker{};
    SessionManager::ProgramFactory factory{};
    bool verbose = false;
    /** Respawn crashed shards (tests may disable to observe death). */
    bool respawn = true;
    /** Balancer period; 0 = no background balancer (balanceOnce()
     *  still works for deterministic tests). */
    unsigned balanceIntervalMs = 0;
    /** Migrate when max/min shard queue-wait mean exceeds this. */
    double balanceRatio = 4.0;
    /** ...and the max mean is at least this many µs (don't shuffle
     *  sessions over noise on an idle fleet). */
    uint64_t balanceMinQueueWaitUs = 200;
    /** Supervisor-side migration chaos (MigrateExport/MigrateAdopt
     *  sites consulted before the corresponding wire call). Worker
     *  processes inherit whatever arming existed at spawn time; this
     *  injector drives the supervisor's own decision points. */
    persist::FaultInjector *faults = nullptr;
};

class ShardSupervisor
{
  public:
    explicit ShardSupervisor(ShardSupervisorOptions opts = {});
    ~ShardSupervisor();

    ShardSupervisor(const ShardSupervisor &) = delete;
    ShardSupervisor &operator=(const ShardSupervisor &) = delete;

    /** Fork the shards, bind the public port, start routing. */
    bool start();
    void stop();

    uint16_t port() const { return listener_.port(); }
    unsigned shardCount() const { return static_cast<unsigned>(shards_.size()); }
    /** The worker's pid (for kill -9 crash tests). */
    pid_t shardPid(unsigned k) const;
    uint16_t shardPort(unsigned k) const;
    uint64_t shardRestarts(unsigned k) const;

    /** SIGKILL a worker. The monitor respawns it (options permitting);
     *  waitForRespawn blocks until the replacement answers. */
    bool killShard(unsigned k);
    bool waitForRespawn(unsigned k, unsigned timeoutMs = 15000);

    /** Migrate session @p id to shard @p target (< 0 = least loaded
     *  other shard). Old-or-new on failure, never corrupt. */
    bool migrate(uint64_t id, int target, std::string *err = nullptr);
    /** One balancer pass; true when it migrated something. */
    bool balanceOnce(std::string *err = nullptr);
    uint64_t migrations() const
    {
        return migrations_.load(std::memory_order_relaxed);
    }

    /** Per-shard load rows (the `shard-stats` verb's payload). */
    std::vector<ShardStatsRow> shardStats();
    /** Fleet-wide merged stats (the `server-stats` payload). */
    ServerStats fleetStats();

  private:
    struct Shard
    {
        ShardProcess proc;
        std::atomic<uint64_t> restarts{0};
        std::atomic<bool> alive{false};
        /** Control leg for supervisor-originated verbs (probes,
         *  stats, export/adopt); lazily (re)connected. */
        std::mutex ctlMu;
        std::unique_ptr<WireClient> ctl;
    };

    void serveRspProxy(int fd);
    void serveWireProxy(int fd);
    void monitorLoop();
    void balanceLoop();

    /** Typed call on shard k's control leg (reconnects once). */
    bool ctlCall(unsigned k, const Request &req, Response &resp,
                 std::string *err = nullptr);
    /** Shard currently hosting @p id: routing table, then probe. */
    bool locate(uint64_t id, unsigned &shard, std::string *err);
    /** Shard with the fewest live sessions (ties → lowest index). */
    unsigned leastLoadedShard(int excluding = -1);

    ShardSupervisorOptions opts_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<ShardProcessSpec> specs_;

    std::mutex routeMu_;
    std::unordered_map<uint64_t, unsigned> route_;

    std::thread monitorThread_;
    std::thread balanceThread_;
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> migrations_{0};
    /** Last: its connection threads use every member above. */
    Listener listener_;
};

} // namespace dise::server

#endif // DISE_SERVER_SUPERVISOR_HH
