/**
 * @file
 * Checkpoint-subsystem benchmark (BENCH_checkpoint.json).
 *
 * Two questions, two JSON sections:
 *
 *  1. cow.dirty_sweep / cow.footprint_sweep — does snapshot cost scale
 *     with the blocks dirtied per checkpoint interval rather than with
 *     total memory size? The copy-on-write undo log captures one
 *     pre-image per dirtied 64-byte block per interval, so the
 *     per-interval cost must track the dirty count and stay flat as
 *     the resident footprint grows. Each row writes a few words per
 *     dirty page, except the dirty sweep's last row, which writes every
 *     word of each dirty page (the densest store pattern a log can
 *     see: 64 blocks per page).
 *
 *  2. timetravel[] — end-to-end cost of checkpointed execution over a
 *     real workload and backend at two checkpoint intervals: forward
 *     slowdown vs a plain functional run (the record overhead),
 *     checkpoint counts, pages and bytes copied per checkpoint,
 *     reverse-continue latency (restore + replay-distance trade-off),
 *     and whether reverse-continue lands on the final event with a
 *     bit-identical replay.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "cpu/func_cpu.hh"
#include "debug/debugger.hh"
#include "harness/experiment.hh"
#include "replay/time_travel.hh"
#include "workloads/workload.hh"

using namespace dise;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

struct Options
{
    bool quick = false;
    std::string out = "BENCH_checkpoint.json";
};

// --------------------------------------------------- COW microbench

struct CowPoint
{
    uint64_t footprintPages = 0;
    uint64_t dirtyPages = 0;
    uint64_t wordsPerPage = 0; ///< 8-byte words written per dirty page
    double usPerInterval = 0.0;
    double pagesPerInterval = 0.0;
    double bytesPerInterval = 0.0; ///< undo-log bytes held per interval
};

/**
 * Populate @p footprint pages, then run @p intervals checkpoint
 * intervals each writing the first @p words 8-byte words of @p dirty
 * distinct pages, and report the average seal cost, captured-page
 * count and bytes the sealed interval holds.
 */
CowPoint
measureCow(uint64_t footprint, uint64_t dirty, unsigned intervals,
           uint64_t words = 4)
{
    MainMemory mem;
    const Addr base = 0x100000;
    for (uint64_t p = 0; p < footprint; ++p)
        mem.write(base + p * PageBytes, 8, p ^ 0x5a5a);

    mem.beginUndoLog();
    uint64_t captured = 0;
    uint64_t bytes = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned iv = 0; iv < intervals; ++iv) {
        // Several writes per page: only the first captures a pre-image.
        for (uint64_t w = 0; w < words; ++w)
            for (uint64_t p = 0; p < dirty; ++p)
                mem.write(base + p * PageBytes + 8 * w, 8, iv + w);
        UndoLog log = mem.sealUndoInterval();
        captured += log.pages;
        bytes += log.bytes();
    }
    double secs = secondsSince(t0);
    mem.endUndoLog();

    CowPoint pt;
    pt.footprintPages = footprint;
    pt.dirtyPages = dirty;
    pt.wordsPerPage = words;
    pt.usPerInterval = secs / intervals * 1e6;
    pt.pagesPerInterval = static_cast<double>(captured) / intervals;
    pt.bytesPerInterval = static_cast<double>(bytes) / intervals;
    return pt;
}

// ---------------------------------------------- end-to-end timetravel

struct TtPoint
{
    std::string workload;
    std::string backend;
    uint64_t interval = 0;
    uint64_t appInsts = 0;
    size_t events = 0;
    uint64_t checkpoints = 0;
    uint64_t pagesCopied = 0;
    double pagesPerCheckpoint = 0.0;
    uint64_t bytesCopied = 0;
    double bytesPerCheckpoint = 0.0;
    double forwardMips = 0.0; ///< checkpointed+logged forward run
    double plainMips = 0.0;   ///< plain functional run, same backend
    double recordSlowdown = 0.0;
    double reverseContinueMs = 0.0;
    uint64_t replayedUops = 0;
    bool reverseLanded = false;
    bool replayExact = false;
};

TtPoint
measureTimeTravel(ExperimentRunner &runner, const std::string &name,
                  BackendKind kind, uint64_t interval, uint64_t maxInsts)
{
    const Workload &w = runner.workload(name);
    WatchSpec watch = w.watch(WatchSel::HOT);

    TtPoint pt;
    pt.workload = name;
    pt.backend = backendName(kind);
    pt.interval = interval;

    // Plain functional baseline over the same backend machinery.
    {
        DebugTarget target(w.program);
        DebuggerOptions o;
        o.backend = kind;
        Debugger dbg(target, o);
        dbg.watch(watch);
        if (!dbg.attach())
            fatal("attach failed for ", name);
        auto t0 = std::chrono::steady_clock::now();
        FuncResult r = dbg.runFunctional(maxInsts);
        double secs = secondsSince(t0);
        if (r.halt == HaltReason::Fault)
            fatal("baseline faulted: ", r.faultMessage);
        pt.plainMips = r.appInsts / secs / 1e6;
    }

    // Checkpointed, logged, event-pinned forward run plus one reverse
    // round trip, with exactness verification — all via the harness.
    DebuggerOptions o;
    o.backend = kind;
    auto outcome =
        runner.checkpointedRun(name, {watch}, o, interval, maxInsts);
    if (!outcome.supported)
        fatal("attach failed for ", name);
    pt.appInsts = outcome.appInsts;
    pt.events = outcome.events;
    pt.checkpoints = outcome.checkpoints;
    pt.pagesCopied = outcome.pagesCopied;
    pt.bytesCopied = outcome.bytesCopied;
    if (pt.checkpoints) {
        double n = static_cast<double>(pt.checkpoints);
        pt.pagesPerCheckpoint = static_cast<double>(pt.pagesCopied) / n;
        pt.bytesPerCheckpoint = static_cast<double>(pt.bytesCopied) / n;
    }
    pt.forwardMips = outcome.forwardSeconds > 0
                         ? outcome.appInsts / outcome.forwardSeconds / 1e6
                         : 0.0;
    pt.recordSlowdown =
        pt.forwardMips > 0 ? pt.plainMips / pt.forwardMips : 0.0;
    pt.reverseContinueMs = outcome.reverseContinueSeconds * 1e3;
    pt.replayedUops = outcome.replayedUops;
    pt.reverseLanded = outcome.reverseLanded;
    pt.replayExact = outcome.replayExact;
    return pt;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--out") {
            opts.out = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf("options:\n"
                        "  --quick     smaller sweeps (CI)\n"
                        "  --out FILE  JSON output path "
                        "(default BENCH_checkpoint.json)\n");
            std::exit(0);
        } else {
            fatal("unknown option '", arg, "' (try --help)");
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    const unsigned intervals = opts.quick ? 50 : 400;

    // 1. Dirty-page sweep at fixed footprint: cost must grow with the
    //    dirty count...
    std::vector<CowPoint> dirtySweep;
    const uint64_t fixedFootprint = opts.quick ? 512 : 2048;
    for (uint64_t d : {1, 4, 16, 64, 256})
        dirtySweep.push_back(measureCow(fixedFootprint, d, intervals));
    dirtySweep.push_back(
        measureCow(fixedFootprint, 64, intervals, PageBytes / 8));

    // 2. ...and the footprint sweep at fixed dirty count: cost must
    //    stay flat as resident memory grows.
    std::vector<CowPoint> footSweep;
    for (uint64_t f : {256, 1024, 4096})
        footSweep.push_back(measureCow(f, 16, intervals));

    TextTable cow;
    cow.setHeader({"footprint pages", "dirty pages", "words/page",
                   "us/interval", "pages/interval", "bytes/interval"});
    auto addCow = [&](const CowPoint &p) {
        char a[32], b[32], c[32], d[32], e[32], f[32];
        std::snprintf(a, sizeof a, "%llu",
                      static_cast<unsigned long long>(p.footprintPages));
        std::snprintf(b, sizeof b, "%llu",
                      static_cast<unsigned long long>(p.dirtyPages));
        std::snprintf(c, sizeof c, "%llu",
                      static_cast<unsigned long long>(p.wordsPerPage));
        std::snprintf(d, sizeof d, "%.2f", p.usPerInterval);
        std::snprintf(e, sizeof e, "%.1f", p.pagesPerInterval);
        std::snprintf(f, sizeof f, "%.0f", p.bytesPerInterval);
        cow.addRow({a, b, c, d, e, f});
    };
    for (const auto &p : dirtySweep)
        addCow(p);
    for (const auto &p : footSweep)
        addCow(p);
    std::printf("copy-on-write snapshot cost:\n");
    std::fputs(cow.render().c_str(), stdout);

    // Sanity: snapshot cost is per dirtied block, not per resident page.
    if (footSweep.front().pagesPerInterval !=
            footSweep.back().pagesPerInterval ||
        footSweep.front().bytesPerInterval !=
            footSweep.back().bytesPerInterval)
        fatal("COW captured a footprint-dependent amount");

    // 3. End-to-end time travel across backends and intervals.
    const uint64_t maxInsts = opts.quick ? 60000 : 400000;
    ExperimentRunner runner;
    std::vector<TtPoint> tts;
    std::vector<BackendKind> kinds = {BackendKind::Dise,
                                      BackendKind::VirtualMemory};
    for (BackendKind kind : kinds)
        for (uint64_t interval : {2048, 16384})
            tts.push_back(measureTimeTravel(runner, "bzip2", kind,
                                            interval, maxInsts));

    TextTable tt;
    tt.setHeader({"backend", "interval", "ckpts", "pages/ckpt",
                  "bytes/ckpt", "record slowdown", "rev-cont ms",
                  "exact"});
    for (const auto &p : tts) {
        char a[32], b[32], c[32], d[32], e[32], f[32];
        std::snprintf(a, sizeof a, "%llu",
                      static_cast<unsigned long long>(p.interval));
        std::snprintf(b, sizeof b, "%llu",
                      static_cast<unsigned long long>(p.checkpoints));
        std::snprintf(c, sizeof c, "%.1f", p.pagesPerCheckpoint);
        std::snprintf(d, sizeof d, "%.2fx", p.recordSlowdown);
        std::snprintf(e, sizeof e, "%.2f", p.reverseContinueMs);
        std::snprintf(f, sizeof f, "%.0f", p.bytesPerCheckpoint);
        tt.addRow({p.backend, a, b, c, f, d, e,
                   p.reverseLanded && p.replayExact ? "yes" : "NO"});
    }
    std::printf("\ntime-travel end-to-end (bzip2, HOT watch):\n");
    std::fputs(tt.render().c_str(), stdout);

    for (const auto &p : tts)
        if (p.events > 0 && (!p.reverseLanded || !p.replayExact))
            fatal("reverse-continue/replay was not exact under ",
                  p.backend);

    std::ofstream os(opts.out);
    if (!os)
        fatal("cannot write ", opts.out);
    os << "{\n  \"bench\": \"checkpoint\",\n";
    os << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n";
    os << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n";
    os << "  \"cow\": {\n    \"dirty_sweep\": [\n";
    auto emitCow = [&os](const std::vector<CowPoint> &v) {
        for (size_t i = 0; i < v.size(); ++i) {
            const CowPoint &p = v[i];
            os << "      {\"footprint_pages\": " << p.footprintPages
               << ", \"dirty_pages\": " << p.dirtyPages
               << ", \"words_per_page\": " << p.wordsPerPage
               << ", \"us_per_interval\": " << p.usPerInterval
               << ", \"pages_per_interval\": " << p.pagesPerInterval
               << ", \"bytes_per_interval\": " << p.bytesPerInterval
               << "}" << (i + 1 < v.size() ? "," : "") << "\n";
        }
    };
    emitCow(dirtySweep);
    os << "    ],\n    \"footprint_sweep\": [\n";
    emitCow(footSweep);
    os << "    ]\n  },\n  \"timetravel\": [\n";
    for (size_t i = 0; i < tts.size(); ++i) {
        const TtPoint &p = tts[i];
        os << "    {\"workload\": \"" << p.workload
           << "\", \"backend\": \"" << p.backend
           << "\", \"checkpoint_interval\": " << p.interval
           << ", \"app_insts\": " << p.appInsts
           << ", \"events\": " << p.events
           << ", \"checkpoints\": " << p.checkpoints
           << ", \"pages_copied\": " << p.pagesCopied
           << ", \"pages_per_checkpoint\": " << p.pagesPerCheckpoint
           << ", \"bytes_copied\": " << p.bytesCopied
           << ", \"bytes_per_checkpoint\": " << p.bytesPerCheckpoint
           << ", \"forward_mips\": " << p.forwardMips
           << ", \"plain_mips\": " << p.plainMips
           << ", \"record_slowdown\": " << p.recordSlowdown
           << ", \"reverse_continue_ms\": " << p.reverseContinueMs
           << ", \"replayed_uops\": " << p.replayedUops
           << ", \"reverse_landed\": "
           << (p.reverseLanded ? "true" : "false")
           << ", \"replay_exact\": " << (p.replayExact ? "true" : "false")
           << "}" << (i + 1 < tts.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("wrote %s\n", opts.out.c_str());
    return 0;
}
