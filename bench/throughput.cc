/**
 * @file
 * Simulator-throughput benchmark: simulated MIPS of the functional
 * hot path (fetch -> decode -> DISE match -> execute) across the
 * Figure 3/4 workloads under three instrumentation configurations:
 *
 *   off     - empty pattern table (undebugged baseline)
 *   uncond  - every store expanded with an unconditional watchpoint
 *             check (Figure 3 methodology)
 *   cond    - every store expanded with a conditional (value-predicate)
 *             watchpoint check (Figure 4 methodology)
 *
 * Each cell runs the interpreter's hot path (predecoded µop cache,
 * indexed production matching, memoized expansions) with the trace JIT
 * off and on; the runs must retire identical counts. Results are
 * emitted as BENCH_throughput.json.
 *
 * A second, cycle-level section measures the timing model's simulated
 * MIPS with the ROB scan cursors (TimingConfig::robCursors) on vs the
 * linear per-cycle window walks they must match cycle for cycle.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "cpu/func_cpu.hh"
#include "cpu/timing_cpu.hh"
#include "debug/target.hh"
#include "dise/engine.hh"
#include "workloads/workload.hh"

using namespace dise;

namespace {

enum class Config { Off, Uncond, Cond };

const char *
configName(Config c)
{
    switch (c) {
      case Config::Off: return "off";
      case Config::Uncond: return "uncond";
      case Config::Cond: return "cond";
    }
    return "?";
}

struct Options
{
    bool quick = false;
    unsigned reps = 2;
    uint64_t maxAppInsts = 0; ///< 0 = run workloads to completion
    uint64_t timingInsts = 300000; ///< app-inst cap for timing cells
    bool noTiming = false;
    std::string out = "BENCH_throughput.json";
};

struct Measurement
{
    std::string workload;
    Config config = Config::Off;
    bool jit = false;
    uint64_t appInsts = 0;
    uint64_t microOps = 0;
    double seconds = 0.0;

    double mips() const { return seconds > 0 ? appInsts / seconds / 1e6 : 0; }
    double
    microMips() const
    {
        return seconds > 0 ? microOps / seconds / 1e6 : 0;
    }
};

/** Figure 2a-style inline watchpoint check appended to every store. */
Production
storeCheckProduction(bool conditional)
{
    auto R = [](RegId r) { return TRegField::reg(r); };
    Production p;
    p.name = conditional ? "watch-cond" : "watch-uncond";
    p.pattern = Pattern::forClass(OpClass::Store);

    std::vector<TemplateInst> seq;
    seq.push_back(TemplateInst::trigInst());
    // Reconstruct the store address into dr1.
    seq.push_back(TemplateInst::mem(Opcode::LDA, R(dr(1)),
                                    TImmField::trigImm(),
                                    TRegField::trigRb()));
    // Address match against the watched location in dr3.
    seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(dr(1)), R(dr(3)),
                                    R(dr(2))));
    if (!conditional) {
        // Unconditional: trap whenever the watched address is written.
        TemplateInst t;
        t.op = Opcode::CTRAP;
        t.ra = R(dr(2));
        t.imm = TImmField::imm(1);
        seq.push_back(t);
    } else {
        // Conditional: on an address match, load the new value and
        // trap only when it equals the predicate constant in dr4.
        TemplateInst skip;
        skip.op = Opcode::D_BEQ;
        skip.ra = R(dr(2));
        skip.imm = TImmField::imm(3);
        seq.push_back(skip);
        seq.push_back(TemplateInst::mem(Opcode::LDQ, R(dr(0)),
                                        TImmField::imm(0), R(dr(1))));
        seq.push_back(TemplateInst::op3(Opcode::CMPEQ, R(dr(0)), R(dr(4)),
                                        R(dr(0))));
        TemplateInst t;
        t.op = Opcode::CTRAP;
        t.ra = R(dr(0));
        t.imm = TImmField::imm(1);
        seq.push_back(t);
    }
    p.replacement = std::move(seq);
    return p;
}

/**
 * One functional run of the interpreter, with the target's trace cache
 * wired in or not, same workload and instrumentation. The jit-off leg
 * leaves env.jit null, so it pays zero cache overhead.
 */
Measurement
measureOnce(const Workload &w, Config config, bool jitOn,
            const Options &opts)
{
    DebugTarget target(w.program);
    if (config != Config::Off) {
        target.engine.addProduction(
            storeCheckProduction(config == Config::Cond));
        target.arch.writeDise(3, w.hotAddr);
        // Figure 4 predicate: a constant the watched value never takes.
        target.arch.writeDise(4, 0xdeadbeefcafeull);
    }
    target.load();

    StreamEnv env;
    env.sink = &target.sink;
    env.uopCache = true;
    if (jitOn)
        env.jit = target.jit();
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);

    auto t0 = std::chrono::steady_clock::now();
    FuncResult r = cpu.run(opts.maxAppInsts);
    auto t1 = std::chrono::steady_clock::now();
    if (r.halt == HaltReason::Fault)
        fatal("throughput run of '", w.name, "' faulted: ",
              r.faultMessage);

    Measurement m;
    m.workload = w.name;
    m.config = config;
    m.jit = jitOn;
    m.appInsts = r.appInsts;
    m.microOps = r.microOps;
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    return m;
}

Measurement
measure(const Workload &w, Config config, bool jitOn, const Options &opts)
{
    // Best of N: the container's wall clock is noisy.
    Measurement best;
    for (unsigned i = 0; i < opts.reps; ++i) {
        Measurement m = measureOnce(w, config, jitOn, opts);
        if (i == 0 || m.mips() > best.mips())
            best = m;
    }
    return best;
}

/** One cycle-level run: simulated MIPS of the timing model itself. */
struct TimingMeasurement
{
    std::string workload;
    Config config = Config::Off;
    bool cursors = true;
    uint64_t appInsts = 0;
    uint64_t cycles = 0;
    double seconds = 0.0;

    double mips() const { return seconds > 0 ? appInsts / seconds / 1e6 : 0; }
};

TimingMeasurement
measureTimingOnce(const Workload &w, Config config, bool cursors,
                  const Options &opts)
{
    DebugTarget target(w.program);
    if (config != Config::Off) {
        target.engine.addProduction(
            storeCheckProduction(config == Config::Cond));
        target.arch.writeDise(3, w.hotAddr);
        target.arch.writeDise(4, 0xdeadbeefcafeull);
    }
    target.load();

    StreamEnv env;
    env.sink = &target.sink;
    TimingConfig cfg;
    cfg.robCursors = cursors;
    TimingCpu cpu(target.arch, target.mem, &target.engine, env, cfg);
    RunLimits lim;
    lim.maxAppInsts = opts.timingInsts;

    auto t0 = std::chrono::steady_clock::now();
    RunStats r = cpu.run(lim);
    auto t1 = std::chrono::steady_clock::now();
    if (r.halt == HaltReason::Fault)
        fatal("timing throughput run of '", w.name, "' faulted: ",
              r.faultMessage);

    TimingMeasurement m;
    m.workload = w.name;
    m.config = config;
    m.cursors = cursors;
    m.appInsts = r.appInsts;
    m.cycles = r.cycles;
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    return m;
}

TimingMeasurement
measureTiming(const Workload &w, Config config, bool cursors,
              const Options &opts)
{
    TimingMeasurement best;
    for (unsigned i = 0; i < opts.reps; ++i) {
        TimingMeasurement m = measureTimingOnce(w, config, cursors, opts);
        if (i == 0 || m.mips() > best.mips())
            best = m;
    }
    return best;
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
            opts.reps = 1;
            opts.maxAppInsts = 50000;
            opts.timingInsts = 30000;
        } else if (arg == "--no-timing") {
            opts.noTiming = true;
        } else if (arg == "--timing-insts") {
            opts.timingInsts = static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--reps") {
            opts.reps = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--insts") {
            opts.maxAppInsts = static_cast<uint64_t>(std::atoll(next()));
        } else if (arg == "--out") {
            opts.out = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options:\n"
                "  --quick       one workload, capped instructions (CI)\n"
                "  --reps N      repetitions per cell (best-of, default 2)\n"
                "  --insts N     cap application instructions per run\n"
                "  --timing-insts N  app-inst cap for the timing cells\n"
                "  --no-timing   skip the cycle-level ROB-cursor section\n"
                "  --out FILE    JSON output path "
                "(default BENCH_throughput.json)\n");
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

    std::vector<std::string> names =
        opts.quick ? std::vector<std::string>{"bzip2"} : workloadNames();
    const Config configs[] = {Config::Off, Config::Uncond, Config::Cond};

    // The interpreter, then the trace JIT on vs off. µop MIPS is the
    // honest metric for the JIT: its job is retiring expansion µops
    // cheaply.
    std::vector<Measurement> results, jitResults;
    double jitSpeedupMin = 0.0;
    TextTable table;
    table.setHeader({"workload", "config", "interp MIPS", "jit µMIPS",
                     "interp µMIPS", "jit speedup"});
    bool first = true;
    for (const auto &name : names) {
        WorkloadParams params;
        Workload w = buildWorkload(name, params);
        for (Config config : configs) {
            Measurement on = measure(w, config, true, opts);
            Measurement off = measure(w, config, false, opts);
            if (on.appInsts != off.appInsts || on.microOps != off.microOps)
                fatal("trace JIT changed retirement counts on '", name,
                      "/", configName(config), "': ", on.appInsts, "/",
                      on.microOps, " vs ", off.appInsts, "/",
                      off.microOps);
            results.push_back(off);
            jitResults.push_back(on);
            jitResults.push_back(off);
            double sp = off.microMips() > 0
                            ? on.microMips() / off.microMips()
                            : 0.0;
            if (config == Config::Uncond) {
                if (first || sp < jitSpeedupMin)
                    jitSpeedupMin = sp;
                first = false;
            }
            char mipsBuf[32], onBuf[32], offBuf[32], spBuf[32];
            std::snprintf(mipsBuf, sizeof mipsBuf, "%.2f", off.mips());
            std::snprintf(onBuf, sizeof onBuf, "%.2f", on.microMips());
            std::snprintf(offBuf, sizeof offBuf, "%.2f", off.microMips());
            std::snprintf(spBuf, sizeof spBuf, "%.2fx", sp);
            table.addRow({name, configName(config), mipsBuf, onBuf, offBuf,
                          spBuf});
        }
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("min unconditional-instrumentation JIT speedup: %.2fx\n",
                jitSpeedupMin);

    // Cycle-level section: simulated MIPS of the timing model with ROB
    // scan cursors vs the linear window walks.
    std::vector<TimingMeasurement> timingResults;
    if (!opts.noTiming) {
        TextTable ttable;
        ttable.setHeader({"workload", "config", "cursors MIPS",
                          "linear MIPS", "speedup"});
        std::vector<std::string> tnames =
            opts.quick ? std::vector<std::string>{"bzip2"}
                       : std::vector<std::string>{"bzip2", "mcf"};
        for (const auto &name : tnames) {
            WorkloadParams params;
            Workload w = buildWorkload(name, params);
            for (Config config : {Config::Off, Config::Uncond}) {
                TimingMeasurement cur = measureTiming(w, config, true, opts);
                TimingMeasurement lin =
                    measureTiming(w, config, false, opts);
                if (cur.cycles != lin.cycles)
                    fatal("ROB cursors changed simulated cycles on '",
                          name, "': ", cur.cycles, " vs ", lin.cycles);
                timingResults.push_back(cur);
                timingResults.push_back(lin);
                double sp = lin.mips() > 0 ? cur.mips() / lin.mips() : 0;
                char curBuf[32], linBuf[32], spBuf[32];
                std::snprintf(curBuf, sizeof curBuf, "%.2f", cur.mips());
                std::snprintf(linBuf, sizeof linBuf, "%.2f", lin.mips());
                std::snprintf(spBuf, sizeof spBuf, "%.2fx", sp);
                ttable.addRow(
                    {name, configName(config), curBuf, linBuf, spBuf});
            }
        }
        std::printf("\ntiming model (ROB cursors vs linear scans):\n");
        std::fputs(ttable.render().c_str(), stdout);
    }

    std::ofstream os(opts.out);
    if (!os)
        fatal("cannot write ", opts.out);
    os << "{\n  \"bench\": \"throughput\",\n";
    os << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n";
    os << "  \"jit_uncond_speedup_min\": " << jitSpeedupMin << ",\n";
    os << "  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const Measurement &m = results[i];
        os << "    {\"workload\": \"" << m.workload << "\", \"config\": \""
           << configName(m.config) << "\", \"app_insts\": " << m.appInsts
           << ", \"micro_ops\": " << m.microOps
           << ", \"seconds\": " << m.seconds << ", \"mips\": " << m.mips()
           << ", \"micro_mips\": " << m.microMips() << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"jit_runs\": [\n";
    for (size_t i = 0; i < jitResults.size(); ++i) {
        const Measurement &m = jitResults[i];
        os << "    {\"workload\": \"" << m.workload << "\", \"config\": \""
           << configName(m.config) << "\", \"jit\": \""
           << (m.jit ? "on" : "off")
           << "\", \"app_insts\": " << m.appInsts
           << ", \"micro_ops\": " << m.microOps
           << ", \"seconds\": " << m.seconds << ", \"mips\": " << m.mips()
           << ", \"micro_mips\": " << m.microMips() << "}"
           << (i + 1 < jitResults.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"timing_runs\": [\n";
    for (size_t i = 0; i < timingResults.size(); ++i) {
        const TimingMeasurement &m = timingResults[i];
        os << "    {\"workload\": \"" << m.workload << "\", \"config\": \""
           << configName(m.config) << "\", \"rob_scan\": \""
           << (m.cursors ? "cursors" : "linear")
           << "\", \"app_insts\": " << m.appInsts
           << ", \"cycles\": " << m.cycles << ", \"seconds\": " << m.seconds
           << ", \"mips\": " << m.mips() << "}"
           << (i + 1 < timingResults.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("wrote %s\n", opts.out.c_str());
    return 0;
}
