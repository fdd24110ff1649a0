/**
 * @file
 * Process-wide latency metrics: a fixed set of named Histograms
 * (src/common/stats.hh) that instrumented layers observe into
 * directly, a Prometheus text-exposition renderer for the `metrics`
 * wire verb, and snapshot plumbing so the distributions also ride
 * inside ServerStats.
 *
 * The registry is global and append-never: handles are plain member
 * references valid for the process lifetime, so hot paths pay one
 * wait-free observe() with no lookup and no locks. Families use the
 * Prometheus naming convention `dise_<what>_us`.
 */

#ifndef DISE_OBS_METRICS_HH
#define DISE_OBS_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace dise::obs {

/** Every latency family the server exports. */
struct Metrics
{
    Histogram verbLatencyUs;     ///< wire-verb round trip (server side)
    Histogram schedQueueWaitUs;  ///< submit -> first worker dequeue
    Histogram sliceDurationUs;   ///< one scheduler slice callback
    Histogram storeFsyncUs;      ///< fsync inside SessionStore writes
    Histogram resurrectReplayUs; ///< rebuild-replay of a stored session
    Histogram eventPushUs;       ///< pushing queued events to a peer
    Histogram toolOverheadUs;    ///< debug-tool work per 1024 armed µops

    /** Snapshot every family, in a fixed registry order. */
    std::vector<HistogramSnapshot> snapshotAll() const;
};

/** The process-wide registry (always present; observing is cheap
 *  enough to leave unconditional). */
Metrics &metrics();

/** Monotonic wall clock in nanoseconds. */
uint64_t nowNs();

/** Microseconds elapsed since a nowNs() reading (0 floor). */
uint64_t usSince(uint64_t startNs);

/** Mean of a snapshot in the family's native unit (0 when empty). */
double histogramMean(const HistogramSnapshot &h);

/**
 * Render snapshots as Prometheus text exposition format v0: for each
 * family a `# HELP` / `# TYPE ... histogram` header, cumulative
 * `_bucket{le="..."}` lines ending at `le="+Inf"`, then `_sum` and
 * `_count`.
 */
std::string renderPrometheus(const std::vector<HistogramSnapshot> &snaps);

} // namespace dise::obs

#endif // DISE_OBS_METRICS_HH
