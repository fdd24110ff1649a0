#include "server/session_manager.hh"

#include "workloads/workload.hh"

namespace dise::server {

bool
defaultProgramFactory(const std::string &name, Program &out)
{
    std::string n = name.empty() ? "demo" : name;
    if (n == "demo" || n == "heisenbug") {
        out = buildHeisenbugDemo();
        return true;
    }
    if (n == "tooldemo") {
        out = buildToolDemo();
        return true;
    }
    for (const std::string &w : workloadNames()) {
        if (w == n) {
            out = buildWorkload(n).program;
            return true;
        }
    }
    return false;
}

SessionManager::SessionManager(SessionManagerOptions opts,
                               ProgramFactory factory)
    : opts_(std::move(opts)), factory_(std::move(factory))
{
    if (!factory_)
        factory_ = defaultProgramFactory;
}

std::shared_ptr<const Program>
SessionManager::program(const std::string &workload)
{
    // One mutex across lookup and factory call (never the session
    // table's): concurrent first requests make one call, and a name the
    // factory rejects is not kept.
    std::lock_guard<std::mutex> lk(programMu_);
    auto it = programs_.find(workload);
    if (it != programs_.end())
        return it->second;
    auto prog = std::make_shared<Program>();
    if (!factory_(workload, *prog))
        return nullptr;
    programs_.emplace(workload, prog);
    return prog;
}

void
SessionManager::touch(ManagedSession &ms)
{
    ms.lastTouch.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
}

void
SessionManager::adoptStore(persist::SessionStore *store)
{
    std::lock_guard<std::mutex> lk(mu_);
    store_ = store;
    if (!store_)
        return;
    for (const persist::StoreEntryMeta &e : store_->entries()) {
        if (!sessions_.count(e.id))
            hibernated_[e.id] = e.workload;
        nextId_ = std::max(nextId_, e.id + 1);
    }
}

namespace {

/** Why @p ms cannot leave the table now; nullptr when it is idle: not
 *  connection-bound, no live event subscriptions, and the table holds
 *  the only reference (no connection has it selected, no job is
 *  driving it). */
const char *
busyReason(const ManagedSessionPtr &ms)
{
    if (ms->exclusive)
        return "session is connection-bound (RSP target)";
    if (ms->subscriberCount() > 0)
        return "session has live event subscriptions";
    if (ms.use_count() > 1)
        return "session is busy (selected by a connection or running a "
               "job)";
    return nullptr;
}

} // namespace

uint64_t
SessionManager::victimLocked(const std::set<uint64_t> &tried) const
{
    const ManagedSessionPtr *best = nullptr;
    for (const auto &kv : sessions_) {
        const ManagedSessionPtr &ms = kv.second;
        if (busyReason(ms) || tried.count(kv.first))
            continue;
        if (!best ||
            ms->lastTouch.load(std::memory_order_relaxed) <
                (*best)->lastTouch.load(std::memory_order_relaxed))
            best = &kv.second;
    }
    return best ? (*best)->id : 0;
}

bool
SessionManager::exportToStore(ManagedSession &ms, std::string *err,
                              uint64_t *digest)
{
    persist::SessionImage img;
    img.id = ms.id;
    img.workload = ms.workload;
    if (!ms.session.exportImage(img, err))
        return false;
    persist::StoreResult res = store_->put(img);
    if (!res.ok) {
        if (err)
            *err = std::string(persist::storeErrName(res.err)) + ": " +
                   res.detail;
        return false;
    }
    if (digest)
        *digest = img.digest;
    return true;
}

ManagedSessionPtr
SessionManager::create(const std::string &workload, BackendKind backend,
                       bool exclusive, std::string *err)
{
    // Get the program outside the lock (workload construction is the
    // expensive part), then admit under it.
    std::shared_ptr<const Program> prog = program(workload);
    if (!prog) {
        // A typo'd workload is a client error, not an admission-cap
        // rejection; rejected_ only counts the cap.
        if (err)
            *err = "unknown workload '" + workload + "'";
        return nullptr;
    }
    SessionOptions sopts = opts_.session;
    sopts.debugger.backend = backend;

    ManagedSessionPtr ms = admit(
        [&] {
            ++created_;
            return std::make_shared<ManagedSession>(
                nextId_++, workload.empty() ? std::string("demo") : workload,
                *prog, std::move(sopts), exclusive);
        },
        err);
    if (!ms) {
        std::lock_guard<std::mutex> lk(mu_);
        ++rejected_;
    }
    return ms;
}

ManagedSessionPtr
SessionManager::find(uint64_t id, bool forSelect, std::string *err)
{
    bool sleeping = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = sessions_.find(id);
        if (it != sessions_.end()) {
            if (forSelect && it->second->exclusive) {
                if (err)
                    *err = "session is connection-bound";
                return nullptr;
            }
            return it->second;
        }
        sleeping = store_ && hibernated_.count(id) > 0;
    }
    if (!sleeping) {
        if (err)
            *err = "no such session";
        return nullptr;
    }
    return resurrect(id, err);
}

bool
SessionManager::hibernate(uint64_t id, std::string *err)
{
    if (!store_) {
        if (err)
            *err = "the server has no session store (--store-dir)";
        return false;
    }
    ManagedSessionPtr ms = takeIdle(id, err);
    if (!ms || !exportToStore(*ms, err))
        return putBack(ms);
    std::lock_guard<std::mutex> lk(mu_);
    hibernated_[id] = ms->workload;
    ++evictions_;
    retireLocked(*ms);
    return true;
}

bool
SessionManager::persist(uint64_t id, std::string *err, uint64_t *digest)
{
    if (!store_) {
        if (err)
            *err = "the server has no session store (--store-dir)";
        return false;
    }
    ManagedSessionPtr ms = find(id, false, err);
    if (!ms)
        return false;
    std::lock_guard<std::mutex> slk(ms->mu);
    return exportToStore(*ms, err, digest);
}

/** Take live session @p id out of the table for an export, unless it is
 *  busy. Out of the table no find() can hand it out, so the reference
 *  is exclusive while the export runs without the session lock. */
ManagedSessionPtr
SessionManager::takeIdle(uint64_t id, std::string *err)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(id);
    const char *why = it == sessions_.end()
                          ? (hibernated_.count(id)
                                 ? "session is already hibernated"
                                 : "no such session")
                          : busyReason(it->second);
    if (why) {
        if (err)
            *err = why;
        return nullptr;
    }
    ManagedSessionPtr ms = std::move(it->second);
    sessions_.erase(it);
    return ms;
}

/** Return a session whose export failed to the table, intact. */
bool
SessionManager::putBack(const ManagedSessionPtr &ms)
{
    if (ms) {
        std::lock_guard<std::mutex> lk(mu_);
        sessions_.emplace(ms->id, ms);
    }
    return false;
}

ManagedSessionPtr
SessionManager::admit(const std::function<ManagedSessionPtr()> &make,
                      std::string *err)
{
    std::set<uint64_t> tried;
    for (;;) {
        uint64_t victim = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!opts_.maxSessions ||
                sessions_.size() < opts_.maxSessions) {
                ManagedSessionPtr ms = make();
                sessions_.emplace(ms->id, ms);
                peak_ = std::max<uint64_t>(peak_, sessions_.size());
                touch(*ms);
                return ms;
            }
            victim = store_ ? victimLocked(tried) : 0;
            if (!victim) {
                if (err)
                    *err = "session cap reached (" +
                           std::to_string(opts_.maxSessions) + ")" +
                           (store_ ? " and no idle session to hibernate"
                                   : "");
                return nullptr;
            }
        }
        std::string hibErr;
        if (!hibernate(victim, &hibErr))
            tried.insert(victim); // victim got busy / store failure
    }
}

void
SessionManager::retireLocked(const ManagedSession &ms)
{
    retiredUops_ += ms.uops.load(std::memory_order_relaxed);
    retiredInsts_ += ms.appInsts.load(std::memory_order_relaxed);
    retiredEvents_ += ms.events.load(std::memory_order_relaxed);
    retiredJobs_ += ms.jobs.load(std::memory_order_relaxed);
    retiredPushed_ += ms.eventsPushed.load(std::memory_order_relaxed);
    retiredDropped_ += ms.droppedSinks.load(std::memory_order_relaxed);
}

ManagedSessionPtr
SessionManager::resurrect(uint64_t id, std::string *err)
{
    // One resurrection at a time: the loser of a select race waits
    // here, then finds the session live.
    std::lock_guard<std::mutex> rlk(resurrectMu_);
    std::string workload;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = sessions_.find(id);
        if (it != sessions_.end())
            return it->second;
        auto h = hibernated_.find(id);
        if (h == hibernated_.end()) {
            if (err)
                *err = "no such session";
            return nullptr;
        }
        workload = h->second;
    }

    persist::SessionImage img;
    persist::StoreResult res = store_->load(id, img);
    if (!res.ok) {
        // An unreadable/corrupt image is already quarantine-classified
        // by the store; a Missing entry means the store and the
        // hibernated table drifted (should not happen) — drop it too.
        std::lock_guard<std::mutex> lk(mu_);
        hibernated_.erase(id);
        if (err)
            *err = std::string("resurrection failed: ") +
                   persist::storeErrName(res.err) + ": " + res.detail;
        return nullptr;
    }

    // The image's own failures (an unbuildable workload, a refused
    // spec set, replay divergence, a digest mismatch) set it aside.
    auto quarantine = [&](const std::string &why) -> ManagedSessionPtr {
        store_->quarantine(id, why);
        std::lock_guard<std::mutex> lk(mu_);
        hibernated_.erase(id);
        if (err)
            *err = "resurrection failed (image quarantined): " + why;
        return nullptr;
    };
    // A fresh session begins the resurrection op and the runner steps
    // it to completion.
    std::shared_ptr<const Program> prog = program(workload);
    if (!prog)
        return quarantine("workload '" + workload + "' is not buildable");
    SessionOptions sopts = opts_.session;
    sopts.debugger.backend = img.backend;
    auto ms = std::make_shared<ManagedSession>(id, workload, *prog,
                                               std::move(sopts), false);
    {
        TRACE_SPAN("session", "session.resurrect");
        uint64_t t0 = obs::nowNs();
        if (!ms->session.begin(img)) {
            std::string why;
            if (!runner_) {
                while (!ms->session.step(0)) {
                }
            } else if (!runner_(*ms, &why)) {
                // The run itself failed (interrupted, injected fault,
                // scheduler stopped): the image is fine and stays
                // hibernated for the next attempt.
                if (err)
                    *err = "resurrection failed: " + why;
                return nullptr;
            }
        }
        Response resp = ms->session.finish();
        if (!resp.ok())
            return quarantine(resp.error);
        obs::metrics().resurrectReplayUs.observe(obs::usSince(t0));
    }
    ms->publishProgress();

    // At the cap with nothing evictable the image stays hibernated;
    // retry later.
    return admit(
        [&] {
            hibernated_.erase(id);
            ++resurrections_;
            return ms;
        },
        err);
}

bool
SessionManager::destroy(uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
        // A hibernated session is destroyed by erasing its image.
        auto h = hibernated_.find(id);
        if (h == hibernated_.end())
            return false;
        hibernated_.erase(h);
        if (store_)
            store_->erase(id);
        ++destroyed_;
        return true;
    }
    ManagedSessionPtr ms = it->second;
    sessions_.erase(it);
    ms->closing.store(true, std::memory_order_release);
    // Fold the published counters into the retired totals; a slice
    // still in flight publishes once more, but its session no longer
    // appears in either the live list or (beyond this snapshot) the
    // totals — a bounded, documented undercount at teardown.
    retireLocked(*ms);
    // The on-disk image (if any) dies with the session.
    if (store_)
        store_->erase(id);
    ++destroyed_;
    return true;
}

std::vector<uint64_t>
SessionManager::ids() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<uint64_t> out;
    out.reserve(sessions_.size() + hibernated_.size());
    for (const auto &kv : sessions_)
        out.push_back(kv.first);
    for (const auto &kv : hibernated_)
        if (!sessions_.count(kv.first))
            out.push_back(kv.first);
    return out;
}

size_t
SessionManager::count() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return sessions_.size();
}

ServerStats
SessionManager::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServerStats s;
    s.activeSessions = sessions_.size();
    s.peakSessions = peak_;
    s.created = created_;
    s.destroyed = destroyed_;
    s.rejected = rejected_;
    s.maxSessions = opts_.maxSessions;
    s.totalUops = retiredUops_;
    s.totalAppInsts = retiredInsts_;
    s.totalEvents = retiredEvents_;
    s.jobs = retiredJobs_;
    s.eventsPushed = retiredPushed_;
    s.dropped = retiredDropped_;
    for (const auto &kv : sessions_) {
        const ManagedSession &ms = *kv.second;
        s.totalUops += ms.uops.load(std::memory_order_relaxed);
        s.totalAppInsts += ms.appInsts.load(std::memory_order_relaxed);
        s.totalEvents += ms.events.load(std::memory_order_relaxed);
        s.jobs += ms.jobs.load(std::memory_order_relaxed);
        s.eventsPushed +=
            ms.eventsPushed.load(std::memory_order_relaxed);
        s.dropped += ms.droppedSinks.load(std::memory_order_relaxed);
        s.subscribers += ms.subscriberCount();
    }
    s.hibernated = hibernated_.size();
    s.evictions = evictions_;
    s.resurrections = resurrections_;
    if (store_)
        s.quarantined = store_->counters().quarantined;
    // Per-tool counters, rolled up by tool name across live sessions.
    // Best-effort: a session in use (a verb or packet holds mu, a job
    // slice holds sliceMu) is skipped and folds into the next snapshot
    // rather than blocking stats.
    for (const auto &kv : sessions_) {
        ManagedSession &ms = *kv.second;
        std::unique_lock<std::mutex> slk(ms.mu, std::try_to_lock);
        std::unique_lock<std::mutex> xlk(ms.sliceMu, std::defer_lock);
        if (!slk.owns_lock() || !xlk.try_lock() || !ms.session.attached())
            continue;
        for (const tools::ToolStatsRow &row :
             ms.session.debugger().backend().tools().statsRows())
            tools::mergeToolStats(s.tools, row);
    }
    return s;
}

} // namespace dise::server
