#include "ledger.hh"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.hh"

namespace perfbench {

using namespace dise;

namespace {

/** A histogram's growth since an earlier snapshot of the same family. */
HistogramSnapshot
histDelta(const std::vector<HistogramSnapshot> &now,
          const std::vector<HistogramSnapshot> &before,
          const std::string &name)
{
    HistogramSnapshot d;
    d.name = name;
    for (const HistogramSnapshot &h : now)
        if (h.name == name)
            d = h;
    for (const HistogramSnapshot &h : before) {
        if (h.name != name)
            continue;
        d.count -= std::min(d.count, h.count);
        d.sum -= std::min(d.sum, h.sum);
        for (size_t i = 0; i < d.buckets.size() && i < h.buckets.size();
             ++i)
            d.buckets[i] -= std::min(d.buckets[i], h.buckets[i]);
    }
    return d;
}

/** Quantile of a log2-bucket histogram, interpolated inside the
 *  bucket that holds it. */
double
histQuantile(const HistogramSnapshot &h, double q)
{
    if (!h.count)
        return 0;
    double want = q * static_cast<double>(h.count);
    double seen = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
        if (!h.buckets[i])
            continue;
        double n = static_cast<double>(h.buckets[i]);
        if (seen + n >= want) {
            double lo = static_cast<double>(Histogram::bucketFloor(i));
            double hi = i + 1 >= Histogram::kBuckets
                            ? lo * 2
                            : static_cast<double>(Histogram::bucketCeil(i));
            return lo + (hi - lo) * (want - seen) / n;
        }
        seen += n;
    }
    return 0;
}

/** p90 once ten samples lie beyond it, else p50 (as Samples). */
double
histTailQ(const HistogramSnapshot &h)
{
    return static_cast<double>(h.count) * 0.1 >= 10 ? 0.9 : 0.5;
}

/** One closed flight-recorder span (µs since the tracer was armed). */
struct ServerSpan
{
    std::string name;
    double start;
    double end;
    bool top; ///< no enclosing span on its thread
};

std::vector<ServerSpan>
parseTrace(const std::string &json)
{
    std::vector<ServerSpan> out;
    std::map<uint64_t, std::vector<std::pair<std::string, double>>> stacks;
    size_t pos = 0;
    const std::string key = "{\"name\":\"";
    while ((pos = json.find(key, pos)) != std::string::npos) {
        pos += key.size();
        size_t end = json.find('"', pos);
        size_t ph = json.find("\"ph\":\"", end);
        size_t ts = json.find("\"ts\":", end);
        size_t tid = json.find("\"tid\":", end);
        if (end == std::string::npos || ph == std::string::npos ||
            tid == std::string::npos)
            break;
        std::string name = json.substr(pos, end - pos);
        char phase = json[ph + 6];
        pos = tid;
        if (phase != 'B' && phase != 'E')
            continue;
        double t = std::strtod(json.c_str() + ts + 5, nullptr);
        uint64_t id = std::strtoull(json.c_str() + tid + 6, nullptr, 10);
        auto &st = stacks[id];
        if (phase == 'B') {
            st.emplace_back(name, t);
        } else if (!st.empty()) {
            auto [n, t0] = st.back();
            st.pop_back();
            out.push_back({n, t0, t, st.empty()});
        }
    }
    return out;
}

} // namespace

bool
traceStart(server::DebugServer &srv, Clock::time_point loopStart,
           PassResult &out)
{
    WireClient ctl;
    if (!ctl.connectTo(srv.port()))
        return false;
    Request req;
    Response resp;
    req.kind = RequestKind::ServerStats;
    if (!ctl.call(req, resp) || !resp.ok())
        return false;
    out.histBefore = resp.server.hists;
    // Counters are cumulative since server start: subtract the
    // set-up's share here, add the final values in traceCollect.
    out.layer["server.slices"] = -static_cast<double>(resp.server.slices);
    out.layer["server.jobs"] = -static_cast<double>(resp.server.jobs);
    req = Request();
    req.kind = RequestKind::TraceStart;
    req.count = 16384; // KiB of ring per recording thread
    Clock::time_point t0 = Clock::now();
    bool ok = ctl.call(req, resp) && resp.ok();
    out.armUs = (usBetween(loopStart, t0) +
                 usBetween(loopStart, Clock::now())) / 2;
    return ok;
}

void
traceCollect(server::DebugServer &srv, PassResult &out)
{
    WireClient ctl;
    if (!ctl.connectTo(srv.port())) {
        out.fail("control connection refused");
        return;
    }
    Request req;
    Response resp;
    req.kind = RequestKind::TraceStop;
    if (!ctl.call(req, resp) || !resp.ok())
        out.fail("trace-stop failed");
    // Reassemble the chunked dump.
    out.serverTrace.clear();
    for (;;) {
        req = Request();
        req.kind = RequestKind::TraceDump;
        req.value = out.serverTrace.size();
        req.count = 256 * 1024;
        if (!ctl.call(req, resp) || !resp.ok()) {
            out.fail("trace-dump failed");
            break;
        }
        out.serverTrace += resp.text;
        if (resp.text.empty() || out.serverTrace.size() >= resp.value)
            break;
    }

    req = Request();
    req.kind = RequestKind::ServerStats;
    if (!ctl.call(req, resp) || !resp.ok()) {
        out.fail("server-stats failed");
        return;
    }
    const ServerStats &s = resp.server;
    out.layer["server.slices"] += static_cast<double>(s.slices);
    out.layer["server.jobs"] += static_cast<double>(s.jobs);
    double checks = 0, suppressed = 0;
    for (const tools::ToolStatsRow &row : s.tools) {
        checks += static_cast<double>(row.checks);
        suppressed += static_cast<double>(row.suppressed);
    }
    out.layer["tools.checks"] = checks;
    out.layer["tools.suppressed"] = suppressed;

    auto hist = [&](const char *name) {
        return histDelta(s.hists, out.histBefore, name);
    };
    HistogramSnapshot wait = hist("dise_sched_queue_wait_us");
    out.layer["server.queue_wait_us_p50"] = histQuantile(wait, 0.5);
    out.layer["server.queue_wait_us_tail"] =
        histQuantile(wait, histTailQ(wait));
    out.layer["server.slice_us_p50"] =
        histQuantile(hist("dise_slice_duration_us"), 0.5);
    out.layer["server.verb_us_p50"] =
        histQuantile(hist("dise_verb_latency_us"), 0.5);
    out.layer["server.resurrect_replay_us"] =
        obs::histogramMean(hist("dise_resurrect_replay_us"));
    out.layer["tools.overhead_us"] =
        static_cast<double>(hist("dise_tool_overhead_us").sum);

    req = Request();
    req.kind = RequestKind::StoreStats;
    if (ctl.call(req, resp) && resp.ok())
        out.layer["persist.image_bytes"] =
            static_cast<double>(resp.store.bytes);
}

void
referenceCounters(DebugSession &ref, uint64_t recordedInsts,
                  uint64_t userStops, PassResult &out)
{
    auto &m = out.layer;
    if (const TimeTravel::Stats *ts = ref.travelStats()) {
        m["replay.checkpoints"] += static_cast<double>(ts->checkpointsTaken);
        m["replay.restores"] += static_cast<double>(ts->restores);
        m["replay.pages_restored"] += static_cast<double>(ts->pagesRestored);
        m["replay.replayed_uops"] += static_cast<double>(ts->replayedUops);
        m["mem.pages_copied"] += static_cast<double>(ts->pagesCopied);
        m["cpu.uops"] += static_cast<double>(ts->uops);
    }
    m["cpu.app_insts"] += static_cast<double>(recordedInsts);
    const TraceCacheStats &js = ref.target().jit()->stats();
    m["jit.traced_uops"] += static_cast<double>(js.tracedUops);
    m["jit.traces_built"] += static_cast<double>(js.built);
    m["jit.side_exits"] += static_cast<double>(js.sideExits);
    m["jit.invalidated"] += static_cast<double>(js.invalidated);
    StatGroup &es = ref.target().engine.stats();
    m["dise.matches"] += static_cast<double>(es.get("matches"));
    m["dise.rt_misses"] += static_cast<double>(es.get("rt_misses"));
    m["debug.events"] += static_cast<double>(ref.eventCount());
    m["debug.user_stops"] += static_cast<double>(userStops);
}

std::map<std::string, double>
layerMetrics(const PassResult &untraced, const PassResult &traced)
{
    std::map<std::string, double> m = traced.layer;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    // rsp and session codecs, measured in the clients.
    m["rsp.packets"] = static_cast<double>(traced.rsp.packets);
    m["rsp.bytes"] = static_cast<double>(traced.rsp.bytes);
    m["rsp.codec_us"] = traced.rsp.codecUs;
    m["session.codec_us"] = traced.wire.codecUs;
    m["session.wire_bytes"] = static_cast<double>(traced.wire.bytes);

    // In-process verb times and the server's share of each round trip.
    for (const auto &[cls, s] : traced.inproc)
        m["session.verb_us." + cls] = s.median();
    for (const auto &[cls, s] : traced.lat) {
        std::string verb = cls.substr(cls.find('.') + 1);
        auto it = traced.inproc.find(verb);
        if (it != traced.inproc.end())
            m["server.overhead_us." + cls] =
                s.median() - it->second.median();
    }

    // Derived layer ratios.
    double insts = m["cpu.app_insts"];
    m["cpu.uops_per_inst"] =
        ratio(m["cpu.uops"] - m["replay.replayed_uops"], insts);
    m["mem.history_bytes"] = m["mem.pages_copied"] * 4096;
    m["mem.pages_per_checkpoint"] =
        ratio(m["mem.pages_copied"], m["replay.checkpoints"]);
    m["jit.traced_ratio"] = ratio(m["jit.traced_uops"], m["cpu.uops"]);
    m["dise.matches_per_inst"] = ratio(m["dise.matches"], insts);
    m["debug.useful_ratio"] =
        ratio(m["debug.user_stops"], m["dise.matches"]);

    // Flight-recorder span totals (inclusive of nested spans).
    std::vector<ServerSpan> spans = parseTrace(traced.serverTrace);
    static const std::pair<const char *, const char *> spanMetric[] = {
        {"travel.run", "replay.run_us"},
        {"travel.checkpoint", "replay.checkpoint_us"},
        {"travel.restore", "replay.restore_us"},
        {"travel.replay", "replay.replay_us"},
        {"ireplay.prepare", "replay.ireplay_prepare_us"},
        {"ireplay.step", "replay.ireplay_step_us"},
        {"store.put", "persist.put_us"},
        {"store.load", "persist.load_us"},
        {"vfs.fsync", "persist.fsync_us"},
        {"sched.slice", "server.slice_span_us"},
    };
    for (const auto &[name, metric] : spanMetric)
        m[metric] = 0;
    double sliceSpans = 0;
    for (const ServerSpan &sp : spans) {
        for (const auto &[name, metric] : spanMetric)
            if (sp.name == name)
                m[metric] += sp.end - sp.start;
        sliceSpans += sp.name == "sched.slice";
    }
    m["server.slice_us_mean"] = ratio(m["server.slice_span_us"], sliceSpans);

    // trace.coverage: share of each verb class's client wall time that
    // client codec spans plus server-side spans account for.
    std::vector<std::pair<double, double>> busy;
    for (const ServerSpan &sp : spans)
        if (sp.top)
            busy.emplace_back(sp.start + traced.armUs,
                              sp.end + traced.armUs);
    std::sort(busy.begin(), busy.end());
    std::vector<std::pair<double, double>> merged;
    for (const auto &iv : busy) {
        if (!merged.empty() && iv.first <= merged.back().second)
            merged.back().second = std::max(merged.back().second, iv.second);
        else
            merged.push_back(iv);
    }
    std::map<std::string, std::pair<double, double>> cover; // covered, wall
    double allCovered = 0, allWall = 0;
    for (const Span &sp : traced.spans) {
        double a = sp.startUs, b = sp.startUs + sp.durUs;
        double covered = 0;
        auto it = std::lower_bound(
            merged.begin(), merged.end(), a,
            [](const std::pair<double, double> &iv, double t) {
                return iv.second < t;
            });
        for (; it != merged.end() && it->first < b; ++it)
            covered += std::min(b, it->second) - std::max(a, it->first);
        covered = std::min(sp.durUs, covered + sp.codecUs);
        cover[sp.cls].first += covered;
        cover[sp.cls].second += sp.durUs;
        allCovered += covered;
        allWall += sp.durUs;
    }
    for (const auto &[cls, cw] : cover)
        m["trace.coverage." + cls] = ratio(cw.first, cw.second);
    m["trace.coverage"] = ratio(allCovered, allWall);

    // trace.overhead: mean client round trip traced vs untraced.
    double tSum = 0, tN = 0, uSum = 0, uN = 0;
    for (const auto &[cls, s] : traced.lat) {
        tSum += s.sum();
        tN += static_cast<double>(s.count());
        auto it = untraced.lat.find(cls);
        if (it != untraced.lat.end() && it->second.count() && s.count())
            m["trace.overhead." + cls] =
                ratio(s.median(), it->second.median()) - 1;
    }
    for (const auto &[cls, s] : untraced.lat) {
        uSum += s.sum();
        uN += static_cast<double>(s.count());
    }
    m["trace.overhead"] = ratio(ratio(tSum, tN), ratio(uSum, uN)) - 1;
    return m;
}

} // namespace perfbench
