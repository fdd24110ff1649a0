/**
 * @file
 * The per-layer ledger of the traced pass: timing of in-process
 * reference calls, counters read from the layers' existing stats, and
 * the conversion of everything into named per-layer metrics.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <utility>

#include "bench.hh"
#include "session/debug_session.hh"

namespace perfbench {

/** Times in-process DebugSession calls into PassResult::inproc when
 *  the pass is traced; a plain call otherwise. */
class InprocTimer
{
  public:
    InprocTimer(PassResult &out, bool on) : out_(out), on_(on) {}

    template <class F>
    auto
    time(const char *cls, F &&fn)
    {
        if (!on_)
            return fn();
        Clock::time_point t0 = Clock::now();
        auto r = fn();
        out_.inproc[cls].add(usBetween(t0, Clock::now()));
        return r;
    }

  private:
    PassResult &out_;
    bool on_;
};

/** Arm the server's flight recorder (trace-start over a control
 *  connection) and snapshot the histograms. @p loopStart is the
 *  measured loop's start. */
bool traceStart(dise::server::DebugServer &srv, Clock::time_point loopStart,
                PassResult &out);
/** trace-stop, fetch the chunked trace-dump, and read server-stats,
 *  store-stats and the histogram deltas into out. */
void traceCollect(dise::server::DebugServer &srv, PassResult &out);

/** Add a reference session's replay, mem, cpu, jit, dise and debug
 *  counters into out.layer (summed across sessions). @p recordedInsts
 *  is how far the session recorded; @p userStops the user-visible
 *  stops the script took. */
void referenceCounters(dise::DebugSession &ref, uint64_t recordedInsts,
                       uint64_t userStops, PassResult &out);

/** Turn a traced pass (and the untraced pass before it) into the
 *  named per-layer metrics. */
std::map<std::string, double> layerMetrics(const PassResult &untraced,
                                           const PassResult &traced);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
