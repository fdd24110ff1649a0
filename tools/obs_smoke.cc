/**
 * @file
 * Observability smoke: the flight recorder, metrics surface, and
 * trace verbs validated end to end on a real traced multi-session
 * run.
 *
 * Starts an in-process DebugServer (loopback TCP, durable store in a
 * scratch dir), arms the tracer over the wire (trace-start), drives
 * two concurrent sessions through the layers the tracer instruments —
 * scheduler slices, session verbs, reverse travel, interval-parallel
 * replay, store persist/hibernate/resurrect, event push — then
 * trace-stops, reassembles the chunked trace-dump, and checks:
 *
 *  - the dump parses as JSON (full recursive validation, not a grep);
 *  - it contains Chrome trace_event spans from the scheduler,
 *    session, travel, replay, and store layers;
 *  - the `metrics` verb emits Prometheus text exposition with every
 *    mandatory histogram family, and the counts moved.
 *
 * CI artifacts: --trace-out FILE and --metrics-out FILE write the
 * reassembled dump and the exposition for external validation
 * (python3 -m json.tool, grep).
 *
 *   ./build/obs_smoke --trace-out /tmp/trace.json --metrics-out /tmp/m.txt
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "persist/scratch_dir.hh"
#include "server/server.hh"
#include "server/wire_client.hh"
#include "workloads/workload.hh"

using namespace dise;

namespace {

int failures = 0;

#define CHECK(cond, ...)                                                \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__);   \
            std::fprintf(stderr, __VA_ARGS__);                          \
            std::fprintf(stderr, "\n");                                 \
            ++failures;                                                 \
        }                                                               \
    } while (0)

/** One wire request that must succeed; says why when it does not. */
bool
callOk(server::WireClient &w, const std::string &line, Response &resp)
{
    std::string err;
    bool got = w.call(line, resp, &err);
    if (!got)
        std::fprintf(stderr, "  (no response to: %s: %s)\n", line.c_str(),
                     err.c_str());
    else if (!resp.ok())
        std::fprintf(stderr, "  (error to '%s': %s)\n", line.c_str(),
                     resp.error.c_str());
    return got && resp.ok();
}

// ------------------------------------------------------ JSON validator

/** Minimal recursive-descent JSON parser: validity only, no DOM. The
 *  trace dump must be real JSON, not JSON-shaped — so parse it all. */
class JsonCheck
{
  public:
    explicit JsonCheck(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

    size_t errorAt() const { return pos_; }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (peek() != '"' || !string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        ++pos_; // opening quote
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

bool
writeFileOrWarn(const std::string &path, const std::string &data)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string traceOut, metricsOut;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--trace-out" && i + 1 < argc)
            traceOut = argv[++i];
        else if (arg == "--metrics-out" && i + 1 < argc)
            metricsOut = argv[++i];
    }

    // Scratch store so persist-layer spans show up in the trace.
    persist::ScratchDir store("/tmp/obs_smoke_store");

    server::DebugServerOptions opts;
    opts.port = 0; // ephemeral
    opts.maxSessions = 8;
    opts.slots = 2;
    opts.sliceInsts = 20000;
    opts.storeDir = store.path;
    opts.session.timeTravel.checkpointInterval = 4096;
    server::DebugServer srv(opts);
    CHECK(srv.start(), "server failed to start");

    Program demo = buildHeisenbugDemo();
    char watchAddr[32];
    std::snprintf(watchAddr, sizeof watchAddr, "0x%llx",
                  static_cast<unsigned long long>(
                      demo.symbol("directory")));

    server::WireClient a, b;
    CHECK(a.connectTo(srv.port()), "client A cannot connect");
    CHECK(b.connectTo(srv.port()), "client B cannot connect");

    Response resp;
    unsigned seq = 1;
    auto req = [&](const std::string &verb) {
        return verb + " seq=" + std::to_string(seq++);
    };

    // ---- arm, then drive a real two-session run -------------------
    CHECK(callOk(a, req("trace-start") + " count=512", resp),
          "trace-start failed");

    CHECK(callOk(a, req("session-create") + " name=demo backend=dise",
                 resp),
          "A: session-create failed");
    uint64_t idA = resp.value;
    CHECK(callOk(b,
                 req("session-create") + " name=demo backend=single-step",
                 resp),
          "B: session-create failed");

    // Subscriber: event-push spans + the event_push histogram.
    CHECK(callOk(a, req("subscribe"), resp), "A: subscribe failed");

    // Both sessions in parallel: watch, run to the hit, travel back,
    // verify the timeline with interval-parallel replay.
    auto drive = [&](server::WireClient &w, const char *who) {
        Response r;
        CHECK(callOk(w,
                     req("set-watch") + " wkind=scalar name=directory addr=" +
                         watchAddr + " size=8",
                     r),
              "%s: set-watch failed", who);
        CHECK(callOk(w, req("cont"), r), "%s: cont failed", who);
        CHECK(callOk(w, req("stepi") + " count=2000", r),
              "%s: stepi failed", who);
        CHECK(callOk(w, req("reverse-step") + " count=500", r),
              "%s: reverse-step failed", who);
        CHECK(callOk(w, req("replay-verify") + " count=2", r),
              "%s: replay-verify failed", who);
    };
    drive(a, "A");
    drive(b, "B");

    // Durable round-trip: persist + hibernate + resurrect-by-select
    // exercises store put/load and the resurrection replay. The event
    // subscription must end first — subscribed sessions refuse to
    // hibernate.
    CHECK(callOk(a, req("unsubscribe"), resp),
          "A: unsubscribe failed");
    CHECK(callOk(a, req("session-persist"), resp),
          "A: session-persist failed");
    CHECK(callOk(a, req("session-hibernate"), resp),
          "A: session-hibernate failed");
    CHECK(callOk(a, req("session-select") + " session=" + std::to_string(idA),
                 resp),
          "A: resurrecting session-select failed");

    // ---- stop, dump (chunked), validate ---------------------------
    CHECK(callOk(a, req("trace-stop"), resp), "trace-stop failed");
    uint64_t recorded = resp.value;
    CHECK(recorded > 0, "tracer recorded nothing");

    std::string dump;
    uint64_t total = 0;
    do {
        CHECK(callOk(a,
                     req("trace-dump") + " count=32768 value=" +
                         std::to_string(dump.size()),
                     resp),
              "trace-dump chunk @%zu failed", dump.size());
        if (!resp.ok())
            break;
        total = resp.value;
        if (resp.text.empty())
            break;
        dump += resp.text;
    } while (dump.size() < total);
    CHECK(dump.size() == total,
          "chunked dump reassembly mismatch: %zu of %llu bytes",
          dump.size(),
          static_cast<unsigned long long>(total));

    JsonCheck json(dump);
    CHECK(json.valid(), "trace dump is not valid JSON (at byte %zu)",
          json.errorAt());
    CHECK(dump.find("\"traceEvents\"") != std::string::npos,
          "dump has no traceEvents array");
    CHECK(dump.find("\"ph\":\"B\"") != std::string::npos &&
              dump.find("\"ph\":\"E\"") != std::string::npos,
          "dump has no begin/end span pairs");
    for (const char *layer :
         {"\"cat\":\"sched\"", "\"cat\":\"session\"",
          "\"cat\":\"travel\"", "\"cat\":\"replay\"",
          "\"cat\":\"store\""})
        CHECK(dump.find(layer) != std::string::npos,
              "dump is missing %s spans", layer);

    // Re-arming must reset the recorder (generation bump invalidates
    // the server's render cache), and dumping while armed must error.
    CHECK(callOk(a, req("trace-start"), resp), "re-arm failed");
    CHECK(a.call(req("trace-dump"), resp) && !resp.ok(),
          "trace-dump while armed should error");
    CHECK(callOk(a, req("trace-stop"), resp),
          "second trace-stop failed");

    // ---- metrics exposition ---------------------------------------
    CHECK(callOk(b, req("metrics"), resp), "metrics verb failed");
    const std::string expo = resp.text; // resp is reused below
    for (const char *family :
         {"dise_verb_latency_us", "dise_sched_queue_wait_us",
          "dise_slice_duration_us", "dise_store_fsync_us",
          "dise_resurrect_replay_us", "dise_event_push_us"}) {
        CHECK(expo.find(std::string("# TYPE ") + family +
                        " histogram") != std::string::npos,
              "metrics is missing family %s", family);
        CHECK(expo.find(std::string(family) + "_bucket{le=\"+Inf\"}") !=
                  std::string::npos,
              "family %s has no +Inf bucket", family);
    }
    // The run above must actually have moved the core latencies.
    for (const char *mustMove :
         {"dise_verb_latency_us", "dise_sched_queue_wait_us",
          "dise_slice_duration_us", "dise_store_fsync_us",
          "dise_resurrect_replay_us"}) {
        std::string key = std::string(mustMove) + "_count 0\n";
        CHECK(expo.find(key) == std::string::npos,
              "family %s never observed anything", mustMove);
    }

    // Wire-decoded ServerStats must carry the same distributions.
    CHECK(callOk(b, req("server-stats"), resp),
          "server-stats failed");
    CHECK(resp.server.hists.size() >= 5,
          "server-stats carried %zu histogram(s)",
          resp.server.hists.size());
    for (const HistogramSnapshot &h : resp.server.hists)
        if (h.name == "dise_verb_latency_us")
            CHECK(h.count > 0, "verb latency histogram is empty");

    if (!traceOut.empty())
        CHECK(writeFileOrWarn(traceOut, dump), "--trace-out failed");
    if (!metricsOut.empty())
        CHECK(writeFileOrWarn(metricsOut, expo),
              "--metrics-out failed");

    a.close();
    b.close();
    srv.stop();

    if (failures) {
        std::fprintf(stderr, "obs_smoke: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("obs_smoke: OK — %llu spans recorded, %zu-byte trace "
                "validated, all %d metric families present\n",
                static_cast<unsigned long long>(recorded), dump.size(),
                6);
    return 0;
}
