#include "server/server.hh"

#include <sys/socket.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rsp/server.hh"

namespace dise::server {

namespace {

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

/** Per-connection outbound line channel. Responses (connection
 *  thread) and pushed events (scheduler workers) both go through
 *  sendLine(), so lines never interleave mid-write. A send that fails
 *  — hangup, or the SO_SNDTIMEO bound on a subscriber that stopped
 *  reading — reports false and the caller drops the path. */
struct DebugServer::WireOut
{
    int fd = -1;

    bool
    sendLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lk(mu);
        return sendAll(fd, line + "\n");
    }

    /** Best-effort single-attempt send for farewell lines: the peer is
     *  known wedged, so this must neither block on its full socket
     *  buffer nor wait for a writer already stuck in sendLine(). */
    void
    sendLineNoWait(const std::string &line)
    {
        std::unique_lock<std::mutex> lk(mu, std::try_to_lock);
        if (!lk.owns_lock())
            return;
        std::string data = line + "\n";
        (void)::send(fd, data.data(), data.size(),
                     MSG_DONTWAIT | MSG_NOSIGNAL);
    }

  private:
    std::mutex mu;
};

class DebugServer::WireSink : public EventSink
{
  public:
    explicit WireSink(std::shared_ptr<WireOut> out)
        : out_(std::move(out))
    {
    }

    bool
    deliver(const SessionEvent &ev) override
    {
        return out_->sendLine(encodeEvent(ev));
    }

    void
    farewell(const SessionEvent &ev) override
    {
        // One non-blocking attempt: if the peer ever drains its socket
        // again it learns why the stream ended instead of seeing a
        // silent stop.
        out_->sendLineNoWait(encodeEvent(ev));
    }

  private:
    std::shared_ptr<WireOut> out_;
};

struct DebugServer::WireConn
{
    ManagedSessionPtr sel;
    std::shared_ptr<WireOut> out;
    /** Live subscriptions, unregistered when the connection dies. */
    std::vector<std::pair<ManagedSessionPtr, std::shared_ptr<EventSink>>>
        subs;
};

DebugServer::DebugServer(DebugServerOptions opts,
                         SessionManager::ProgramFactory factory)
    : opts_(opts),
      manager_({opts.maxSessions, opts.session}, std::move(factory)),
      sched_({opts.slots, opts.sliceInsts, opts.faults})
{
#ifdef __GLIBC__
    // Sessions free whole checkpoint arrays, undo logs and replica
    // images on scheduler workers and connection threads. By default
    // glibc raises its mmap threshold to the size of each mapped block
    // it frees (up to 32 MiB) and its trim threshold to twice that, so
    // after the first large free those blocks come from the per-thread
    // heaps and stay parked there once freed: peak RSS climbs with
    // every session. Pinning both at the default hands them back to
    // the kernel. Both, because a free before the server existed may
    // already have raised the trim threshold.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);
#endif
    // Resurrection replays a whole history: run it as a scheduler job
    // like every other long op.
    manager_.setRunner([this](ManagedSession &s, std::string *err) {
        return sched_.completeHere(s, err);
    });
}

DebugServer::~DebugServer()
{
    stop();
}

// ------------------------------------------------------------ lifecycle

bool
DebugServer::start()
{
    // Crash recovery precedes the listener: by the time a client can
    // connect, every valid image from the previous run is re-admitted
    // (as a hibernated session, resurrected on first use) and every
    // corrupt artifact is quarantined with a typed record.
    if (!opts_.storeDir.empty() && !store_) {
        persist::Vfs *vfs = &realVfs_;
        if (opts_.faults) {
            faultyVfs_ = std::make_unique<persist::FaultyVfs>(
                realVfs_, *opts_.faults);
            vfs = faultyVfs_.get();
        }
        store_ =
            std::make_unique<persist::SessionStore>(opts_.storeDir, *vfs);
        persist::StoreResult res = store_->open();
        if (!res.ok) {
            std::fprintf(stderr, "server: store %s unusable: %s: %s\n",
                         opts_.storeDir.c_str(),
                         persist::storeErrName(res.err),
                         res.detail.c_str());
            store_.reset();
            return false;
        }
        if (opts_.verbose) {
            for (const persist::QuarantineRecord &q :
                 store_->quarantined())
                std::fprintf(stderr,
                             "server: quarantined %s: %s: %s\n",
                             q.file.c_str(),
                             persist::storeErrName(q.err),
                             q.detail.c_str());
            std::fprintf(
                stderr, "server: store %s: %zu session(s) recovered\n",
                opts_.storeDir.c_str(), store_->entries().size());
        }
        manager_.adoptStore(store_.get());
    }

    return listener_.start(opts_.port, [this](int fd, bool rsp) {
        rsp ? serveRsp(fd) : serveWire(fd);
    });
}

void
DebugServer::wait()
{
    listener_.wait();
}

void
DebugServer::stop()
{
    listener_.stopAccepting();
    // Failing queued/in-flight jobs wakes connection threads blocked in
    // a synchronous drive() so they observe their dead sockets.
    listener_.hangUp([this] { sched_.stop(); });
}

// ---------------------------------------------------------- connections

void
DebugServer::serveRsp(int fd)
{
    // gdb's one-target model: this connection gets its own session,
    // admission-capped like any other.
    std::string err;
    ManagedSessionPtr ms =
        manager_.create(opts_.defaultWorkload, opts_.defaultBackend,
                        /*exclusive=*/true, &err);
    if (!ms) {
        if (opts_.verbose)
            std::fprintf(stderr, "server: RSP client rejected: %s\n",
                         err.c_str());
        return; // hang up: gdb reports the dropped connection
    }
    if (opts_.verbose)
        std::fprintf(stderr, "server: RSP client -> session %llu\n",
                     static_cast<unsigned long long>(ms->id));

    // Exclusive sessions are single-client by construction, so only
    // the long verbs need scheduling; each packet holds the session
    // lock, as each wire verb does. The synchronous hook serves
    // all-stop gdb; the async hook powers non-stop mode (`vCont` OK'd
    // immediately, `%Stop` notification when the job lands) and lets
    // a Ctrl-C interrupt the job between slices.
    auto exec = [this, ms](const Request &req, Response &out,
                           std::string *e) {
        return sched_.drive(*ms, req, out, e);
    };
    auto asyncExec = [this, ms](RequestKind kind, uint64_t count,
                                rsp::RspConnection::AsyncDoneFn done)
        -> std::function<void()> {
        JobScheduler::TicketPtr t =
            sched_.driveAsync(ms, kind, count, std::move(done));
        if (!t)
            return {};
        return [this, t] { sched_.cancel(t); };
    };
    rsp::RspConnection conn(ms->session, exec, opts_.verbose);
    conn.setAsyncExec(asyncExec);
    conn.setPeekLock([ms] {
        return std::unique_lock<std::mutex>(ms->sliceMu);
    });
    conn.setPacketLock([ms] { return std::unique_lock<std::mutex>(ms->mu); });
    conn.serve(fd);
    manager_.destroy(ms->id);
}

/**
 * Interval-parallel replay as sibling jobs: one preemptible job per
 * scheduler worker, each draining whole checkpoint ranges from the
 * shared pool (share-nothing replicas, read-only against the live
 * session), then stitched deterministically by digest.
 */
Response
DebugServer::driveReplayVerify(ManagedSession &s, const Request &req)
{
    Response resp;
    resp.seq = req.seq;
    resp.inReplyTo = req.kind;
    auto errorOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return resp;
    };

    std::unique_ptr<IntervalReplay> ir;
    try {
        ir = s.session.beginIntervalReplay();
    } catch (const std::exception &e) {
        return errorOut(e.what());
    }
    if (!ir)
        return errorOut(DebugSession::NoReplayableTimeline);

    std::shared_ptr<IntervalReplay::Pool> pool = ir->makePool();
    size_t n = std::max<size_t>(
        1, std::min<size_t>(sched_.workers(), ir->intervalCount()));
    std::vector<JobScheduler::TicketPtr> tickets;
    for (size_t i = 0; i < n; ++i) {
        auto w = std::make_shared<std::unique_ptr<IntervalReplay::Worker>>();
        tickets.push_back(sched_.submit([w, pool, &s](uint64_t slice) {
            if (s.closing.load(std::memory_order_acquire))
                throw std::runtime_error("session destroyed");
            return pool->slice(*w, slice);
        }));
    }
    bool ok = true;
    std::string err;
    for (const JobScheduler::TicketPtr &t : tickets) {
        std::string e;
        if (!sched_.wait(t, &e)) {
            ok = false;
            if (err.empty())
                err = e;
        }
    }
    s.jobs.fetch_add(tickets.size(), std::memory_order_relaxed);
    if (!ok)
        return errorOut(err);
    return DebugSession::replayVerifyReply(resp, pool->report());
}

Response
DebugServer::handleWire(const Request &req, WireConn &conn)
{
    ManagedSessionPtr &sel = conn.sel;
    Response resp;
    resp.seq = req.seq;
    resp.inReplyTo = req.kind;
    auto errorOut = [&](const std::string &msg) {
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return resp;
    };

    // The session a hibernate / persist verb addresses.
    uint64_t target = req.session ? req.session : (sel ? sel->id : 0);
    switch (req.kind) {
      case RequestKind::SessionCreate: {
        std::string err;
        ManagedSessionPtr ms = manager_.create(
            req.name, req.backend, /*exclusive=*/false, &err);
        if (!ms)
            return errorOut(err);
        sel = ms; // creating selects
        manager_.touch(*ms);
        resp.value = ms->id;
        return resp;
      }
      case RequestKind::SessionSelect: {
        // session=0 deselects: the connection drops its reference so
        // the session counts idle again (hibernation needs this
        // without hanging up the connection).
        if (!req.session) {
            sel.reset();
            return resp;
        }
        // find() transparently resurrects a hibernated id; a typed
        // resurrection/quarantine error surfaces to the client.
        std::string err;
        ManagedSessionPtr ms =
            manager_.find(req.session, /*forSelect=*/true, &err);
        if (!ms)
            return errorOut("session " + std::to_string(req.session) +
                            ": " + err);
        sel = ms;
        manager_.touch(*ms);
        resp.value = ms->id;
        return resp;
      }
      case RequestKind::SessionDestroy:
        if (sel && sel->id == req.session)
            sel.reset();
        if (!manager_.destroy(req.session))
            return errorOut("no such session " +
                            std::to_string(req.session));
        return resp;
      case RequestKind::SessionList:
        resp.regs = manager_.ids();
        return resp;
      case RequestKind::ServerStats:
        resp.server = stats();
        return resp;
      case RequestKind::Subscribe: {
        if (!sel)
            return errorOut("no session selected");
        for (const auto &sub : conn.subs)
            if (sub.first == sel)
                return resp; // idempotent
        auto sink = std::make_shared<WireSink>(conn.out);
        sel->addSink(sink);
        conn.subs.emplace_back(sel, sink);
        // Flush the backlog so the subscriber starts from a known
        // point; everything later arrives at slice/verb boundaries.
        {
            std::lock_guard<std::mutex> lk(sel->mu);
            sel->pushEvents();
        }
        return resp;
      }
      case RequestKind::Unsubscribe: {
        if (!sel)
            return errorOut("no session selected");
        for (auto it = conn.subs.begin(); it != conn.subs.end();) {
            if (it->first == sel) {
                it->first->removeSink(it->second);
                it = conn.subs.erase(it);
            } else {
                ++it;
            }
        }
        return resp;
      }
      case RequestKind::SessionHibernate: {
        if (!target)
            return errorOut("no session selected");
        // Our selection would count the session busy: hibernation
        // deselects it first, and reselects it when the session stays.
        bool wasSelected = sel && sel->id == target;
        if (wasSelected)
            sel.reset();
        std::string err;
        if (!manager_.hibernate(target, &err)) {
            if (wasSelected)
                sel = manager_.find(target);
            return errorOut(err);
        }
        resp.value = target;
        return resp;
      }
      case RequestKind::SessionPersist: {
        if (!target)
            return errorOut("no session selected");
        std::string err;
        if (!manager_.persist(target, &err, &resp.value))
            return errorOut(err);
        return resp;
      }
      case RequestKind::StoreStats: {
        if (!store_)
            return errorOut(
                "the server has no session store (--store-dir)");
        persist::StoreCounters c = store_->counters();
        resp.store.images = c.images;
        resp.store.bytes = c.bytes;
        resp.store.puts = c.puts;
        resp.store.loads = c.loads;
        resp.store.erases = c.erases;
        resp.store.quarantined = c.quarantined;
        resp.store.orphansRemoved = c.orphansRemoved;
        return resp;
      }
      case RequestKind::TraceStart: {
        // count = ring KiB per recording thread (0/1 = default).
        uint64_t kb = req.count > 1 ? req.count : 0;
        obs::Tracer::instance().arm(static_cast<size_t>(kb) * 1024);
        return resp;
      }
      case RequestKind::TraceStop:
        obs::Tracer::instance().disarm();
        resp.value = obs::Tracer::instance().recordCount();
        return resp;
      case RequestKind::TraceDump: {
        obs::Tracer &tr = obs::Tracer::instance();
        if (tr.armed())
            return errorOut("tracer is armed (trace-stop first)");
        std::lock_guard<std::mutex> lk(traceMu_);
        if (traceJsonGen_ != tr.generation()) {
            traceJson_ = tr.dumpJson();
            traceJsonGen_ = tr.generation();
        }
        // Chunked: value= is the byte offset, count= the max chunk
        // (clamped to keep any one wire line bounded); the response
        // carries the chunk in text and the total size in value.
        constexpr uint64_t kMaxChunk = 256 * 1024;
        uint64_t chunk = req.count ? std::min(req.count, kMaxChunk)
                                   : 48 * 1024;
        resp.value = traceJson_.size();
        if (req.value < traceJson_.size())
            resp.text = traceJson_.substr(
                static_cast<size_t>(req.value),
                static_cast<size_t>(chunk));
        return resp;
      }
      case RequestKind::Metrics:
        resp.text = obs::renderPrometheus(obs::metrics().snapshotAll());
        return resp;
      default:
        break;
    }

    // Tool verbs may address a session explicitly (session=); the id
    // resolves through the same path as session-select, so a
    // tool-enable aimed at a hibernated session transparently
    // resurrects it.
    if (req.session &&
        (req.kind == RequestKind::ToolEnable ||
         req.kind == RequestKind::ToolDisable ||
         req.kind == RequestKind::ToolList ||
         req.kind == RequestKind::ToolReport)) {
        std::string err;
        ManagedSessionPtr ms =
            manager_.find(req.session, /*forSelect=*/true, &err);
        if (!ms)
            return errorOut("session " + std::to_string(req.session) +
                            ": " + err);
        sel = ms;
    }

    if (!sel)
        return errorOut(
            "no session selected (session-create or session-select "
            "first)");
    if (sel->closing.load(std::memory_order_acquire)) {
        sel.reset();
        return errorOut("session destroyed");
    }
    manager_.touch(*sel); // LRU stamp: this session is in active use

    Response out;
    bool dropSelection = false;
    {
        std::lock_guard<std::mutex> lk(sel->mu);
        if (DebugSession::isLongVerb(req.kind)) {
            std::string err;
            if (!sched_.drive(*sel, req, out, &err))
                return errorOut(err);
            return out;
        }
        if (req.kind == RequestKind::ReplayVerify)
            return driveReplayVerify(*sel, req);
        out = sel->session.handle(req);
        if (req.kind == RequestKind::Detach) {
            // Wire detach ends the hosted session entirely. Do NOT
            // publish after handle(): the detached session reports
            // zero stats, and destroy() folds the *published*
            // counters into the retired totals ("all sessions ever").
            manager_.destroy(sel->id);
            dropSelection = true;
        } else {
            sel->publishProgress();
            sel->pushEvents();
        }
    }
    // The selection may hold the last reference; it must not die
    // while the lock_guard above still references sel->mu.
    if (dropSelection)
        sel.reset();
    return out;
}

void
DebugServer::serveWire(int fd)
{
    // A subscriber that stops reading must not wedge the pushing job
    // forever: TCP flow control is the backpressure (the job stalls at
    // a slice boundary while the socket buffer is full), and the send
    // timeout is the escape hatch that drops the dead subscription.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

    WireConn conn;
    conn.out = std::make_shared<WireOut>();
    conn.out->fd = fd;

    readLines(fd, [&](std::string &line) {
        if (opts_.verbose)
            std::fprintf(stderr, "wire <- %s\n", line.c_str());

        uint64_t t0 = obs::nowNs();
        Request req;
        std::string err;
        Response resp;
        if (!decodeRequest(line, req, &err)) {
            resp.status = ResponseStatus::Error;
            resp.error = "decode: " + err;
            size_t pos = line.find("seq=");
            if (pos != std::string::npos)
                resp.seq = std::strtoull(line.c_str() + pos + 4, nullptr, 0);
        } else {
            TRACE_SPAN("server", "server.verb");
            resp = handleWire(req, conn);
        }
        std::string out = encodeResponse(resp);
        if (opts_.verbose)
            std::fprintf(stderr, "wire -> %s\n", out.c_str());
        bool sent = conn.out->sendLine(out);
        obs::metrics().verbLatencyUs.observe(obs::usSince(t0));
        return sent;
    });
    // Unregister the connection's sinks before the channel dies; a
    // worker mid-deliver holds its own shared_ptr to the channel, so
    // the write path stays valid (and merely fails) during teardown.
    for (const auto &sub : conn.subs)
        sub.first->removeSink(sub.second);
}

ServerStats
DebugServer::stats() const
{
    ServerStats s = manager_.stats();
    s.slices = sched_.slicesRun();
    s.workers = sched_.workers();
    if (opts_.faults)
        s.faultsInjected = opts_.faults->injected();
    s.hists = obs::metrics().snapshotAll();
    return s;
}

} // namespace dise::server
