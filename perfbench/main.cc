/**
 * @file
 * The end-to-end debugging-loop benchmark (see perfbench/README.md).
 *
 *   perfbench --workload gdb-record|step-inspect|time-travel|all
 *             --seed N --seconds S --trace 0|1 [--scratch DIR]
 *
 * Prints a human-readable report, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: with --trace 0
 * the end-to-end metrics, with --trace 1 the per-layer metrics of a
 * traced pass. A traced run spends half its seconds on an untraced
 * pass and half on the traced one; trace.overhead compares the two.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include "bench.hh"
#include "ledger.hh"

using namespace perfbench;

namespace {

struct WorkloadDef
{
    const char *name;
    WorkloadFn fn;
    const char *app;
    unsigned scale;
    const char *clients;
    /** Client verb classes behind exec_ms_* and inspect_us_*. */
    std::vector<const char *> exec;
    std::vector<const char *> inspect;
};

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"gdb-record", runGdbRecord, "mcf", McfScale,
         "1 RSP client, WARM1 watch",
         {"rsp.cont"},
         {"rsp.inspect"}},
        {"step-inspect", runStepInspect, "bzip2", Bzip2Scale,
         "2 RSP clients + 1 typed-wire client with memtrace, HOT watch",
         {"rsp.cont", "rsp.step", "wire.step"},
         {"rsp.inspect", "wire.inspect"}},
        {"time-travel", runTimeTravel, "mcf", McfScale,
         "1 typed-wire client, WARM1 watch, session store",
         {"wire.reverse"},
         {"wire.inspect"}},
    };
    return defs;
}

/** The per-layer metrics every traced run reports in its JSON line
 *  (the full ledger goes to the report). Must match BENCHMARK.json. */
const std::vector<std::pair<const char *, const char *>> &
jsonLayerMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> v = {
        {"rsp.packets", "count"},
        {"rsp.bytes", "bytes"},
        {"session.wire_bytes", "bytes"},
        {"session.verb_us.exec", "us"},
        {"session.verb_us.inspect", "us"},
        {"server.overhead_us.exec", "us"},
        {"server.overhead_us.inspect", "us"},
        {"server.queue_wait_us_tail", "us"},
        {"server.slice_us_mean", "us"},
        {"server.slices", "count"},
        {"server.jobs", "count"},
        {"replay.checkpoints", "count"},
        {"replay.checkpoint_us", "us"},
        {"replay.restores", "count"},
        {"replay.pages_restored", "count"},
        {"replay.replayed_uops", "count"},
        {"replay.ireplay_uops", "count"},
        {"replay.steals", "count"},
        {"mem.pages_copied", "count"},
        {"mem.history_bytes", "bytes"},
        {"mem.pages_per_checkpoint", "ratio"},
        {"cpu.app_insts", "count"},
        {"cpu.uops", "count"},
        {"cpu.uops_per_inst", "ratio"},
        {"jit.traced_ratio", "ratio"},
        {"jit.traces_built", "count"},
        {"jit.side_exits", "count"},
        {"jit.invalidated", "count"},
        {"debug.events", "count"},
        {"tools.checks", "count"},
        {"tools.suppressed", "count"},
        {"persist.image_bytes", "bytes"},
        {"trace.overhead", "ratio"},
        {"trace.coverage", "ratio"},
    };
    return v;
}

Samples
merged(const PassResult &r, const std::vector<const char *> &classes)
{
    Samples s;
    for (const char *c : classes) {
        auto it = r.lat.find(c);
        if (it != r.lat.end())
            s.append(it->second);
    }
    return s;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** One metric, for the report and the JSON line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonMetrics(const std::vector<Metric> &ms)
{
    std::string out = "{";
    char buf[160];
    for (size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, "
                                       "\"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                      ms[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

void
printSamples(const char *name, const Samples &s, double scale,
             const char *unit)
{
    if (s.empty())
        return;
    std::printf("  %-18s p50 %9.4f  p%g %9.4f  p99 %9.4f %s  (%zu samples)\n",
                name, s.median() * scale, s.tailQuantile() * 100,
                s.tail() * scale, s.quantile(0.99) * scale, unit,
                s.count());
}

/** The report: the run's identity, the end-to-end classes, then the
 *  per-verb latencies of this workload (cont_ms, rsp_verb_us, ...). */
void
printReport(const WorkloadDef &d, const Options &o, const PassResult &r)
{
    unsigned hw = std::thread::hardware_concurrency();
    std::printf("workload %s: %s on %s scale %u, seed %llu, %.0f s "
                "closed loop\n",
                d.name, d.clients, d.app, d.scale,
                static_cast<unsigned long long>(o.seed), o.seconds);
    std::printf("  identity: hardware_concurrency=%u server{backend=dise "
                "checkpoint_interval=1024 slice_insts=50000 workers=%u "
                "max_sessions=8}\n",
                hw, hw);
    auto get = [&](const char *cls) {
        auto it = r.lat.find(cls);
        return it == r.lat.end() ? Samples() : it->second;
    };
    printSamples("exec_ms", merged(r, d.exec), 1e-3, "ms");
    printSamples("inspect_us", merged(r, d.inspect), 1, "us");
    printSamples("cont_ms", get("rsp.cont"), 1e-3, "ms");
    printSamples("rsp_verb_us",
                 d.name == std::string("step-inspect")
                     ? merged(r, {"rsp.cont", "rsp.step", "rsp.inspect"})
                     : get("rsp.inspect"),
                 1, "us");
    printSamples("wire_verb_us",
                 d.name == std::string("step-inspect")
                     ? merged(r, {"wire.step", "wire.inspect"})
                     : Samples(),
                 1, "us");
    printSamples("reverse_ms", get("wire.reverse"), 1e-3, "ms");
    printSamples("seek_ms", get("wire.seek"), 1e-3, "ms");
    printSamples("replay_verify_ms", get("wire.verify"), 1e-3, "ms");
    printSamples("hibernate_ms", get("wire.hibernate"), 1e-3, "ms");
    printSamples("resurrect_ms", get("wire.resurrect"), 1e-3, "ms");
    std::printf("  %-22s %.4f s (median of %zu)\n", "setup_s",
                median(r.setupS), r.setupS.size());
    std::printf("  %-22s %.4f M app insts/s\n", "record_mips",
                r.recordMips);
    std::printf("  %-22s %.1f MB (median of %zu blocks:", "peak_rss_mb",
                median(r.peakRssMb), r.peakRssMb.size());
    for (double mb : r.peakRssMb)
        std::printf(" %.0f", mb);
    std::printf(")\n");
    std::printf("  %-22s %.6f (%llu failed of %llu verbs)\n", "error_ratio",
                r.attempted ? static_cast<double>(r.failed) / r.attempted
                            : 0.0,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const std::string &f : r.failures)
        std::printf("  FAILED: %s\n", f.c_str());
}

std::vector<Metric>
endToEnd(const WorkloadDef &d, const PassResult &r)
{
    Samples exec = merged(r, d.exec);
    Samples insp = merged(r, d.inspect);
    return {
        {"setup_s", median(r.setupS), "s"},
        {"exec_ms_p50", exec.median() / 1e3, "ms"},
        {"exec_ms_tail", exec.tail() / 1e3, "ms"},
        {"inspect_us_p50", insp.median(), "us"},
        {"inspect_us_tail", insp.tail(), "us"},
        {"record_mips", r.recordMips, "Minst/s"},
        {"peak_rss_mb", median(r.peakRssMb), "MB"},
    };
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "gdb-record|step-inspect|time-travel|all --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--scratch")
            o.scratch = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (o.seconds <= 0)
        usage("--seconds must be positive");

    std::vector<const WorkloadDef *> run;
    for (const WorkloadDef &d : workloads())
        if (o.workload == "all" || o.workload == d.name)
            run.push_back(&d);
    if (run.empty())
        usage(("unknown workload '" + o.workload + "'").c_str());

    std::vector<Metric> metrics;
    uint64_t attempted = 0, failed = 0;
    for (const WorkloadDef *d : run) {
        Options wo = o;
        wo.workload = d->name;
        std::string prefix = run.size() > 1 ? d->name + std::string(".")
                                            : std::string();
        if (!o.trace) {
            PassResult r = d->fn(wo, false, Blocks);
            printReport(*d, wo, r);
            attempted += r.attempted;
            failed += r.failed;
            for (Metric m : endToEnd(*d, r)) {
                m.name = prefix + m.name;
                metrics.push_back(m);
            }
            std::fflush(stdout);
            continue;
        }
        // Two passes of half the run each: untraced, then traced.
        wo.seconds = o.seconds / 2;
        PassResult u = d->fn(wo, false, 1);
        PassResult t = d->fn(wo, true, 1);
        std::printf("untraced pass\n");
        printReport(*d, wo, u);
        std::printf("traced pass\n");
        printReport(*d, wo, t);
        attempted += u.attempted + t.attempted;
        failed += u.failed + t.failed;
        std::map<std::string, double> layer = layerMetrics(u, t);
        // The end-to-end classes, in process and as the server's share.
        for (auto [name, classes] :
             {std::pair{"exec", d->exec}, std::pair{"inspect", d->inspect}}) {
            Samples in;
            std::set<std::string> seen;
            for (std::string c : classes) {
                c = c.substr(c.find('.') + 1);
                if (seen.insert(c).second && t.inproc.count(c))
                    in.append(t.inproc.at(c));
            }
            layer[std::string("session.verb_us.") + name] = in.median();
            layer[std::string("server.overhead_us.") + name] =
                merged(t, classes).median() - in.median();
        }
        std::printf("  per-layer ledger (%s):\n", d->name);
        for (const auto &[k, v] : layer)
            std::printf("    %-34s %.6g\n", k.c_str(), v);
        for (const auto &[name, unit] : jsonLayerMetrics())
            metrics.push_back({prefix + name, layer[name], unit});
        std::fflush(stdout);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 && attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    attempted, 1)),
                static_cast<unsigned long long>(failed),
                jsonMetrics(metrics).c_str());
    return 0;
}
