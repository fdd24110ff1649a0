#include "server/supervisor.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/metrics.hh"

namespace dise::server {

namespace {

bool
sendAll(int fd, const char *data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w <= 0)
            return false;
        off += static_cast<size_t>(w);
    }
    return true;
}

int
connectLoopback(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Mean of the scheduler queue-wait family in a stats snapshot. */
uint64_t
queueWaitMeanUs(const ServerStats &s)
{
    for (const HistogramSnapshot &h : s.hists)
        if (h.name == "dise_sched_queue_wait_us")
            return static_cast<uint64_t>(obs::histogramMean(h));
    return 0;
}

/** Line channel shared by the proxy thread and leg event handlers. */
struct ProxyOut
{
    int fd = -1;
    std::mutex mu;

    bool
    sendLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lk(mu);
        std::string data = line + "\n";
        return sendAll(fd, data.data(), data.size());
    }
};

} // namespace

ShardSupervisor::ShardSupervisor(ShardSupervisorOptions opts)
    : opts_(std::move(opts))
{
    if (!opts_.shards)
        opts_.shards = 1;
}

ShardSupervisor::~ShardSupervisor()
{
    stop();
}

bool
ShardSupervisor::start()
{
    // Fork the fleet before the listener: by the time a client can
    // connect, every shard answers (and has recovered its store).
    specs_.resize(opts_.shards);
    for (unsigned k = 0; k < opts_.shards; ++k) {
        ShardProcessSpec &spec = specs_[k];
        spec.index = k;
        spec.total = opts_.shards;
        spec.server = opts_.worker;
        spec.factory = opts_.factory;
        if (!spec.server.storeDir.empty())
            spec.server.storeDir =
                opts_.worker.storeDir + "/shard-" + std::to_string(k);
        shards_.push_back(std::make_unique<Shard>());
        std::string err;
        if (!spawnShardProcess(spec, shards_.back()->proc, &err)) {
            std::fprintf(stderr, "supervisor: %s\n", err.c_str());
            stop();
            return false;
        }
        shards_.back()->alive.store(true);
        if (opts_.verbose)
            std::fprintf(stderr,
                         "supervisor: shard %u pid %d port %u\n", k,
                         static_cast<int>(shards_.back()->proc.pid),
                         shards_.back()->proc.port);
    }

    if (!listener_.start(opts_.port, [this](int fd, bool rsp) {
            rsp ? serveRspProxy(fd) : serveWireProxy(fd);
        })) {
        stop();
        return false;
    }
    monitorThread_ = std::thread([this] { monitorLoop(); });
    if (opts_.balanceIntervalMs)
        balanceThread_ = std::thread([this] { balanceLoop(); });
    return true;
}

void
ShardSupervisor::stop()
{
    if (stopping_.exchange(true)) {
        // Idempotent, but a second caller must still not return while
        // the first is mid-teardown; the joins below are the barrier.
        return;
    }
    listener_.stopAccepting();
    if (balanceThread_.joinable())
        balanceThread_.join();
    // Monitor goes before reaping: it also waitpids.
    if (monitorThread_.joinable())
        monitorThread_.join();
    listener_.hangUp();
    for (auto &sh : shards_) {
        {
            std::lock_guard<std::mutex> lk(sh->ctlMu);
            sh->ctl.reset();
        }
        shutdownShardProcess(sh->proc);
        sh->alive.store(false);
    }
    shards_.clear();
}

pid_t
ShardSupervisor::shardPid(unsigned k) const
{
    return k < shards_.size() ? shards_[k]->proc.pid : -1;
}

uint16_t
ShardSupervisor::shardPort(unsigned k) const
{
    return k < shards_.size() ? shards_[k]->proc.port : 0;
}

uint64_t
ShardSupervisor::shardRestarts(unsigned k) const
{
    return k < shards_.size()
               ? shards_[k]->restarts.load(std::memory_order_relaxed)
               : 0;
}

bool
ShardSupervisor::killShard(unsigned k)
{
    if (k >= shards_.size() || shards_[k]->proc.pid < 0)
        return false;
    return ::kill(shards_[k]->proc.pid, SIGKILL) == 0;
}

bool
ShardSupervisor::waitForRespawn(unsigned k, unsigned timeoutMs)
{
    if (k >= shards_.size())
        return false;
    for (unsigned waited = 0; waited < timeoutMs; waited += 50) {
        if (shards_[k]->alive.load()) {
            // Probe with a server-level verb: `ping` is session
            // dispatch and errors until a session is selected.
            Request probe;
            probe.kind = RequestKind::ServerStats;
            Response resp;
            if (ctlCall(k, probe, resp) && resp.ok())
                return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

// ------------------------------------------------------------- control

bool
ShardSupervisor::ctlCall(unsigned k, const Request &req, Response &resp,
                         std::string *err)
{
    if (k >= shards_.size()) {
        if (err)
            *err = "no such shard";
        return false;
    }
    Shard &sh = *shards_[k];
    std::lock_guard<std::mutex> lk(sh.ctlMu);
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (!sh.ctl || !sh.ctl->connected()) {
            auto c = std::make_unique<WireClient>();
            std::string cerr;
            if (!c->connectTo(sh.proc.port, &cerr)) {
                if (err)
                    *err = "shard " + std::to_string(k) +
                           " unreachable: " + cerr;
                continue; // the monitor may have respawned it
            }
            sh.ctl = std::move(c);
        }
        std::string cerr;
        if (sh.ctl->call(req, resp, &cerr))
            return true;
        sh.ctl.reset();
        if (err)
            *err = "shard " + std::to_string(k) + ": " + cerr;
    }
    return false;
}

bool
ShardSupervisor::locate(uint64_t id, unsigned &shard, std::string *err)
{
    {
        std::lock_guard<std::mutex> lk(routeMu_);
        auto it = route_.find(id);
        if (it != route_.end()) {
            shard = it->second;
            return true;
        }
    }
    // Probe: after a crash or a cold supervisor the routing table is
    // incomplete; session-list per shard rebuilds it.
    Request list;
    list.kind = RequestKind::SessionList;
    bool found = false;
    for (unsigned k = 0; k < shards_.size(); ++k) {
        Response resp;
        if (!ctlCall(k, list, resp) || !resp.ok())
            continue;
        std::lock_guard<std::mutex> lk(routeMu_);
        for (uint64_t got : resp.regs) {
            route_[got] = k;
            if (got == id) {
                shard = k;
                found = true;
            }
        }
    }
    if (!found && err)
        *err = "no such session " + std::to_string(id) +
               " on any shard";
    return found;
}

unsigned
ShardSupervisor::leastLoadedShard(int excluding)
{
    unsigned best = 0;
    uint64_t bestLoad = ~0ull;
    bool any = false;
    Request req;
    req.kind = RequestKind::ServerStats;
    for (unsigned k = 0; k < shards_.size(); ++k) {
        if (static_cast<int>(k) == excluding)
            continue;
        if (!shards_[k]->alive.load())
            continue;
        Response resp;
        if (!ctlCall(k, req, resp) || !resp.ok())
            continue;
        uint64_t load =
            resp.server.activeSessions + resp.server.hibernated;
        if (!any || load < bestLoad) {
            any = true;
            best = k;
            bestLoad = load;
        }
    }
    if (!any)
        // Last resort: round-robin over the fleet.
        best = static_cast<unsigned>(listener_.accepted()) %
               static_cast<unsigned>(std::max<size_t>(1, shards_.size()));
    return best;
}

// ----------------------------------------------------------- migration

bool
ShardSupervisor::migrate(uint64_t id, int target, std::string *err)
{
    unsigned src = 0;
    if (!locate(id, src, err))
        return false;
    unsigned dst;
    if (target >= 0) {
        if (static_cast<size_t>(target) >= shards_.size()) {
            if (err)
                *err = "no such shard " + std::to_string(target);
            return false;
        }
        dst = static_cast<unsigned>(target);
    } else {
        dst = leastLoadedShard(static_cast<int>(src));
    }
    if (dst == src)
        return true; // already there

    // Export first. Any failure here leaves the session exactly where
    // it was.
    if (opts_.faults &&
        opts_.faults->shouldFail(
            persist::FaultInjector::Site::MigrateExport)) {
        if (err)
            *err = "injected fault: migrate-export";
        return false;
    }
    Request ex;
    ex.kind = RequestKind::SessionExport;
    ex.session = id;
    Response exResp;
    if (!ctlCall(src, ex, exResp, err))
        return false;
    if (!exResp.ok()) {
        if (err)
            *err = exResp.error;
        return false;
    }

    // Adopt on the target. From here the session exists only as the
    // image in our hands: on ANY failure we re-adopt it back onto the
    // source so the outcome is old-or-new, never neither.
    std::string adoptErr;
    bool adopted = false;
    if (opts_.faults &&
        opts_.faults->shouldFail(
            persist::FaultInjector::Site::MigrateAdopt)) {
        adoptErr = "injected fault: migrate-adopt";
    } else {
        Request ad;
        ad.kind = RequestKind::SessionAdopt;
        ad.data = exResp.text;
        Response adResp;
        if (!ctlCall(dst, ad, adResp, &adoptErr)) {
            // transport error already in adoptErr
        } else if (!adResp.ok()) {
            adoptErr = adResp.error;
        } else {
            adopted = true;
        }
    }
    if (!adopted) {
        Request back;
        back.kind = RequestKind::SessionAdopt;
        back.data = exResp.text;
        Response backResp;
        std::string backErr;
        if (ctlCall(src, back, backResp, &backErr) && backResp.ok()) {
            if (err)
                *err = adoptErr + " (session restored on shard " +
                       std::to_string(src) + ")";
        } else if (err) {
            *err = adoptErr + "; restore on shard " +
                   std::to_string(src) + " also failed: " +
                   (backErr.empty() ? backResp.error : backErr);
        }
        return false;
    }

    {
        std::lock_guard<std::mutex> lk(routeMu_);
        route_[id] = dst;
    }
    migrations_.fetch_add(1, std::memory_order_relaxed);
    if (opts_.verbose)
        std::fprintf(stderr,
                     "supervisor: migrated session %llu: shard %u -> "
                     "%u (digest %016llx)\n",
                     static_cast<unsigned long long>(id), src, dst,
                     static_cast<unsigned long long>(exResp.value));
    return true;
}

bool
ShardSupervisor::balanceOnce(std::string *err)
{
    std::vector<ShardStatsRow> rows = shardStats();
    if (rows.size() < 2)
        return false;
    const ShardStatsRow *hot = nullptr;
    const ShardStatsRow *cold = nullptr;
    for (const ShardStatsRow &r : rows) {
        if (!hot || r.queueWaitMeanUs > hot->queueWaitMeanUs)
            hot = &r;
        if (!cold || r.queueWaitMeanUs < cold->queueWaitMeanUs)
            cold = &r;
    }
    if (!hot || !cold || hot->index == cold->index)
        return false;
    if (hot->queueWaitMeanUs < opts_.balanceMinQueueWaitUs)
        return false; // fleet is idle; don't shuffle over noise
    if (cold->queueWaitMeanUs &&
        static_cast<double>(hot->queueWaitMeanUs) <
            opts_.balanceRatio *
                static_cast<double>(cold->queueWaitMeanUs))
        return false;
    if (hot->sessions + hot->hibernated < 2)
        return false; // nothing worth moving

    // Move the first idle session that will go; busy ones refuse the
    // export and we try the next.
    Request list;
    list.kind = RequestKind::SessionList;
    Response resp;
    if (!ctlCall(static_cast<unsigned>(hot->index), list, resp) ||
        !resp.ok())
        return false;
    unsigned tries = 0;
    for (uint64_t id : resp.regs) {
        if (++tries > 4)
            break;
        std::string merr;
        if (migrate(id, static_cast<int>(cold->index), &merr))
            return true;
        if (err)
            *err = merr;
    }
    return false;
}

// --------------------------------------------------------------- stats

std::vector<ShardStatsRow>
ShardSupervisor::shardStats()
{
    std::vector<ShardStatsRow> rows;
    Request req;
    req.kind = RequestKind::ServerStats;
    for (unsigned k = 0; k < shards_.size(); ++k) {
        ShardStatsRow row;
        row.index = k;
        row.pid = shards_[k]->proc.pid > 0
                      ? static_cast<uint64_t>(shards_[k]->proc.pid)
                      : 0;
        row.restarts = shards_[k]->restarts.load();
        Response resp;
        if (ctlCall(k, req, resp) && resp.ok()) {
            row.sessions = resp.server.activeSessions;
            row.hibernated = resp.server.hibernated;
            row.jobs = resp.server.jobs;
            row.totalUops = resp.server.totalUops;
            row.appInsts = resp.server.totalAppInsts;
            row.queueWaitMeanUs = queueWaitMeanUs(resp.server);
            row.migratedIn = resp.server.migratedIn;
            row.migratedOut = resp.server.migratedOut;
        }
        rows.push_back(row);
    }
    return rows;
}

ServerStats
ShardSupervisor::fleetStats()
{
    ServerStats fleet;
    Request req;
    req.kind = RequestKind::ServerStats;
    for (unsigned k = 0; k < shards_.size(); ++k) {
        Response resp;
        if (!ctlCall(k, req, resp) || !resp.ok())
            continue;
        mergeServerStats(fleet, resp.server);
    }
    if (opts_.faults)
        fleet.faultsInjected = opts_.faults->injected();
    return fleet;
}

// ------------------------------------------------------------- routing

void
ShardSupervisor::serveRspProxy(int fd)
{
    // gdb's one-target model: place the connection once, then pump
    // bytes blindly. The shard does all the RSP work.
    unsigned k = leastLoadedShard();
    int up = connectLoopback(shardPort(k));
    if (up < 0)
        return;
    char buf[4096];
    pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {up, POLLIN, 0};
    for (;;) {
        fds[0].revents = fds[1].revents = 0;
        if (::poll(fds, 2, 500) < 0)
            break;
        if (stopping_.load())
            break;
        bool dead = false;
        for (int i = 0; i < 2; ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            ssize_t got = ::read(fds[i].fd, buf, sizeof buf);
            if (got <= 0) {
                dead = true;
                break;
            }
            if (!sendAll(i == 0 ? up : fd, buf,
                         static_cast<size_t>(got))) {
                dead = true;
                break;
            }
        }
        if (dead)
            break;
    }
    ::close(up);
}

void
ShardSupervisor::serveWireProxy(int fd)
{
    auto out = std::make_shared<ProxyOut>();
    out->fd = fd;

    // One downstream leg per shard this client touches; pushed events
    // from any leg forward straight to the client.
    std::map<unsigned, std::unique_ptr<WireClient>> legs;
    int cur = -1; // shard holding this connection's selection

    auto leg = [&](unsigned k) -> WireClient * {
        auto it = legs.find(k);
        if (it != legs.end() && it->second->connected())
            return it->second.get();
        legs.erase(k);
        auto c = std::make_unique<WireClient>();
        c->setEventHandler(
            [out](const std::string &line) { out->sendLine(line); });
        if (!c->connectTo(shardPort(k)))
            return nullptr;
        WireClient *raw = c.get();
        legs[k] = std::move(c);
        return raw;
    };
    auto deselect = [&](int k) {
        if (k < 0)
            return;
        auto it = legs.find(static_cast<unsigned>(k));
        if (it == legs.end() || !it->second->connected())
            return;
        Request d;
        d.kind = RequestKind::SessionSelect;
        d.session = 0;
        Response resp;
        it->second->call(d, resp);
    };
    auto sendResp = [&](const Response &resp) {
        return out->sendLine(encodeResponse(resp));
    };
    auto sendErr = [&](const Request &req, const std::string &msg) {
        Response resp;
        resp.seq = req.seq;
        resp.inReplyTo = req.kind;
        resp.status = ResponseStatus::Error;
        resp.error = msg;
        return sendResp(resp);
    };
    // Forward the client's raw line to shard k; relay the raw reply.
    // Returns the decoded reply through *decoded when asked.
    auto forward = [&](const Request &req, unsigned k,
                       const std::string &line,
                       Response *decoded = nullptr) -> bool {
        WireClient *c = leg(k);
        std::string reply, ferr;
        if (!c || !c->roundTripRaw(line, reply, &ferr)) {
            legs.erase(k);
            return sendErr(req, "shard " + std::to_string(k) +
                                    " unavailable" +
                                    (ferr.empty() ? "" : ": " + ferr));
        }
        if (decoded)
            decodeResponse(reply, *decoded);
        return out->sendLine(reply);
    };

    bool dead = false;
    readLines(fd, [&](std::string &line) {
        if (opts_.verbose)
            std::fprintf(stderr, "supervisor <- %s\n", line.c_str());

        Request req;
        std::string derr;
        if (!decodeRequest(line, req, &derr)) {
            // Let a shard produce the canonical decode error.
            unsigned k = cur >= 0 ? static_cast<unsigned>(cur) : 0u;
            return forward(req, k, line);
        }

        switch (req.kind) {
          case RequestKind::SessionCreate: {
            unsigned k =
                (req.shard >= 0 &&
                 static_cast<size_t>(req.shard) < shards_.size())
                    ? static_cast<unsigned>(req.shard)
                    : leastLoadedShard();
            if (cur >= 0 && cur != static_cast<int>(k))
                deselect(cur);
            Response resp;
            dead = !forward(req, k, line, &resp);
            if (resp.ok()) {
                std::lock_guard<std::mutex> lk(routeMu_);
                route_[resp.value] = k;
                cur = static_cast<int>(k);
            }
            break;
          }
          case RequestKind::SessionSelect: {
            if (!req.session) {
                if (cur >= 0)
                    dead = !forward(
                        req, static_cast<unsigned>(cur), line);
                else {
                    Response resp;
                    resp.seq = req.seq;
                    resp.inReplyTo = req.kind;
                    dead = !sendResp(resp);
                }
                break;
            }
            unsigned k = 0;
            std::string lerr;
            if (!locate(req.session, k, &lerr)) {
                dead = !sendErr(req, lerr);
                break;
            }
            if (cur >= 0 && cur != static_cast<int>(k))
                deselect(cur);
            Response resp;
            dead = !forward(req, k, line, &resp);
            if (resp.ok())
                cur = static_cast<int>(k);
            break;
          }
          case RequestKind::SessionDestroy:
          case RequestKind::SessionHibernate:
          case RequestKind::SessionPersist:
          case RequestKind::SessionExport:
          case RequestKind::ToolEnable:
          case RequestKind::ToolDisable:
          case RequestKind::ToolList:
          case RequestKind::ToolReport: {
            // Session-addressed (or selection-relative when
            // session=0 — then the current leg already holds it).
            if (!req.session) {
                if (cur < 0) {
                    dead = !sendErr(req, "no session selected");
                    break;
                }
                dead =
                    !forward(req, static_cast<unsigned>(cur), line);
                break;
            }
            unsigned k = 0;
            std::string lerr;
            if (!locate(req.session, k, &lerr)) {
                dead = !sendErr(req, lerr);
                break;
            }
            bool selects = req.kind == RequestKind::ToolEnable ||
                           req.kind == RequestKind::ToolDisable ||
                           req.kind == RequestKind::ToolList ||
                           req.kind == RequestKind::ToolReport;
            if (selects && cur >= 0 && cur != static_cast<int>(k))
                deselect(cur);
            Response resp;
            dead = !forward(req, k, line, &resp);
            if (resp.ok()) {
                if (selects)
                    cur = static_cast<int>(k);
                if (req.kind == RequestKind::SessionDestroy ||
                    req.kind == RequestKind::SessionExport) {
                    std::lock_guard<std::mutex> lk(routeMu_);
                    route_.erase(req.session);
                }
            }
            break;
          }
          case RequestKind::SessionAdopt: {
            unsigned k =
                (req.shard >= 0 &&
                 static_cast<size_t>(req.shard) < shards_.size())
                    ? static_cast<unsigned>(req.shard)
                    : leastLoadedShard();
            Response resp;
            dead = !forward(req, k, line, &resp);
            if (resp.ok()) {
                std::lock_guard<std::mutex> lk(routeMu_);
                route_[resp.value] = k;
            }
            break;
          }
          case RequestKind::SessionMigrate: {
            if (!req.session) {
                dead = !sendErr(req, "session-migrate needs "
                                     "session=<id>");
                break;
            }
            std::string merr;
            if (!migrate(req.session,
                         static_cast<int>(req.shard), &merr)) {
                dead = !sendErr(req, merr);
                break;
            }
            Response resp;
            resp.seq = req.seq;
            resp.inReplyTo = req.kind;
            resp.value = req.session;
            {
                std::lock_guard<std::mutex> lk(routeMu_);
                auto it = route_.find(req.session);
                if (it != route_.end())
                    resp.index = static_cast<int>(it->second);
            }
            dead = !sendResp(resp);
            break;
          }
          case RequestKind::SessionList: {
            Request list;
            list.kind = RequestKind::SessionList;
            Response merged;
            merged.seq = req.seq;
            merged.inReplyTo = req.kind;
            for (unsigned k = 0; k < shards_.size(); ++k) {
                Response resp;
                if (!ctlCall(k, list, resp) || !resp.ok())
                    continue;
                std::lock_guard<std::mutex> lk(routeMu_);
                for (uint64_t id : resp.regs) {
                    merged.regs.push_back(id);
                    route_[id] = k;
                }
            }
            std::sort(merged.regs.begin(), merged.regs.end());
            dead = !sendResp(merged);
            break;
          }
          case RequestKind::ServerStats: {
            Response resp;
            resp.seq = req.seq;
            resp.inReplyTo = req.kind;
            resp.server = fleetStats();
            dead = !sendResp(resp);
            break;
          }
          case RequestKind::ShardStats: {
            Response resp;
            resp.seq = req.seq;
            resp.inReplyTo = req.kind;
            resp.shards = shardStats();
            dead = !sendResp(resp);
            break;
          }
          default: {
            // Selection-relative traffic (exec verbs, peeks,
            // subscribe, trace, metrics, ...) rides the current
            // leg; with no selection yet, shard 0 answers — and
            // produces the canonical "no session selected".
            unsigned k =
                cur >= 0 ? static_cast<unsigned>(cur) : 0u;
            dead = !forward(req, k, line);
            break;
          }
        }
        return !dead;
    });
    // Leg destructors hang up on the shards, which drops their
    // selections and subscriptions exactly like a direct disconnect.
}

// -------------------------------------------------------------- respawn

void
ShardSupervisor::monitorLoop()
{
    while (!stopping_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (unsigned k = 0; k < shards_.size(); ++k) {
            Shard &sh = *shards_[k];
            if (sh.proc.pid < 0)
                continue;
            int status = 0;
            pid_t r = ::waitpid(sh.proc.pid, &status, WNOHANG);
            if (r != sh.proc.pid)
                continue;
            // The worker died. Its lifeline fd is now useless.
            sh.alive.store(false);
            if (sh.proc.lifeline >= 0) {
                ::close(sh.proc.lifeline);
                sh.proc.lifeline = -1;
            }
            sh.proc.pid = -1;
            {
                std::lock_guard<std::mutex> lk(sh.ctlMu);
                sh.ctl.reset();
            }
            if (stopping_.load() || !opts_.respawn)
                continue;
            if (opts_.verbose)
                std::fprintf(stderr,
                             "supervisor: shard %u died (status "
                             "0x%x); respawning\n",
                             k, status);
            std::string err;
            ShardProcess fresh;
            if (!spawnShardProcess(specs_[k], fresh, &err)) {
                std::fprintf(stderr,
                             "supervisor: shard %u respawn failed: "
                             "%s\n",
                             k, err.c_str());
                continue;
            }
            sh.proc = fresh;
            sh.restarts.fetch_add(1, std::memory_order_relaxed);
            sh.alive.store(true);
            // Routing entries for this shard stay valid: the
            // replacement recovered the same store slice, so ids
            // resolve to hibernated sessions ready to resurrect.
        }
    }
}

void
ShardSupervisor::balanceLoop()
{
    while (!stopping_.load()) {
        for (unsigned waited = 0;
             waited < opts_.balanceIntervalMs && !stopping_.load();
             waited += 50)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (stopping_.load())
            return;
        balanceOnce();
    }
}

} // namespace dise::server
