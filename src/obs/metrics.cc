#include "obs/metrics.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace dise::obs {

namespace {

struct Family
{
    const char *name;
    const char *help;
};

/** Registry order must match Metrics member order (snapshotAll). */
constexpr Family kFamilies[] = {
    {"dise_verb_latency_us", "Wire verb round-trip latency, server side"},
    {"dise_sched_queue_wait_us",
     "Job wait between submit/requeue and worker dequeue"},
    {"dise_slice_duration_us", "Scheduler slice callback duration"},
    {"dise_store_fsync_us", "fsync duration inside SessionStore writes"},
    {"dise_resurrect_replay_us",
     "Rebuild-replay time resurrecting a stored session"},
    {"dise_event_push_us", "Time pushing queued events to a subscriber"},
    {"dise_tool_overhead_us",
     "Debug-tool observer work per batch of 1024 armed uops"},
};

const char *
helpFor(const std::string &name)
{
    for (const Family &f : kFamilies)
        if (name == f.name)
            return f.help;
    return "Latency histogram";
}

} // namespace

std::vector<HistogramSnapshot>
Metrics::snapshotAll() const
{
    std::vector<HistogramSnapshot> snaps;
    snaps.reserve(7);
    snaps.push_back(verbLatencyUs.snapshot(kFamilies[0].name));
    snaps.push_back(schedQueueWaitUs.snapshot(kFamilies[1].name));
    snaps.push_back(sliceDurationUs.snapshot(kFamilies[2].name));
    snaps.push_back(storeFsyncUs.snapshot(kFamilies[3].name));
    snaps.push_back(resurrectReplayUs.snapshot(kFamilies[4].name));
    snaps.push_back(eventPushUs.snapshot(kFamilies[5].name));
    snaps.push_back(toolOverheadUs.snapshot(kFamilies[6].name));
    return snaps;
}

Metrics &
metrics()
{
    static Metrics m;
    return m;
}

double
histogramMean(const HistogramSnapshot &h)
{
    return h.count ? static_cast<double>(h.sum) /
                         static_cast<double>(h.count)
                   : 0.0;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
usSince(uint64_t startNs)
{
    uint64_t now = nowNs();
    return now > startNs ? (now - startNs) / 1000 : 0;
}

std::string
renderPrometheus(const std::vector<HistogramSnapshot> &snaps)
{
    std::string out;
    char buf[160];
    for (const HistogramSnapshot &s : snaps) {
        out += "# HELP ";
        out += s.name;
        out += ' ';
        out += helpFor(s.name);
        out += "\n# TYPE ";
        out += s.name;
        out += " histogram\n";
        uint64_t cum = 0;
        for (size_t i = 0; i < s.buckets.size(); ++i) {
            cum += s.buckets[i];
            std::snprintf(buf, sizeof buf,
                          "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                          s.name.c_str(), Histogram::bucketCeil(i), cum);
            out += buf;
        }
        std::snprintf(buf, sizeof buf,
                      "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n"
                      "%s_sum %" PRIu64 "\n"
                      "%s_count %" PRIu64 "\n",
                      s.name.c_str(), s.count, s.name.c_str(), s.sum,
                      s.name.c_str(), s.count);
        out += buf;
    }
    return out;
}

} // namespace dise::obs
