#include "jit/trace_cache.hh"

#include <vector>

#include "cpu/inst_stream.hh"

namespace dise {

TraceCache::TraceCache(MainMemory &mem) : mem_(mem)
{
    mem_.addCodeWatcher(this);
}

TraceCache::~TraceCache()
{
    mem_.removeCodeWatcher(this);
}

void
TraceCache::bindEnv(const StreamEnv &env)
{
    // Everything a trace bakes in about the stream environment: whether
    // stores invoke the monitor and which PCs are statement-trap sites.
    // The callbacks themselves dispatch virtually through the monitor
    // pointer at run time, so watch/break list contents stay dynamic.
    uint64_t sig = 0x9e3779b97f4a7c15ULL;
    auto mix = [&](uint64_t v) { sig = (sig ^ v) * 0x100000001b3ULL; };
    mix(reinterpret_cast<uintptr_t>(env.monitor));
    mix(env.monitorStores ? 1 : 2);
    mix(reinterpret_cast<uintptr_t>(env.events));
    if (env.stmtTraps) {
        mix(env.stmtTraps->size());
        uint64_t x = 0;
        for (Addr a : *env.stmtTraps)
            x ^= (a + 1) * 0x9e3779b97f4a7c15ULL;
        mix(x);
    }
    envMonitored_ = env.monitor != nullptr;
    if (envBound_ && sig == envSig_)
        return;
    envBound_ = true;
    envSig_ = sig;
    invalidateAll();
}

namespace {

/** Page frames holding code bytes the trace was decoded from: every
 *  raw-op word plus every expansion trigger word (expansion bodies come
 *  from the pattern table and are covered by tableVersion instead). */
void
collectFrames(const Trace &t, std::unordered_set<uint64_t> &frames)
{
    for (const TraceOp &o : t.ops) {
        if (o.expCtx >= 0)
            continue;
        frames.insert(o.pc / PageBytes);
        frames.insert((o.pc + 3) / PageBytes);
    }
    for (const TraceExpCtx &c : t.ctxs) {
        frames.insert(c.trigPc / PageBytes);
        frames.insert((c.trigPc + 3) / PageBytes);
    }
}

} // namespace

TraceRef
TraceCache::lookup(Addr pc, uint64_t tableVersion)
{
    auto it = traces_.find(pc);
    if (it == traces_.end())
        return nullptr;
    if (it->second->tableVersion != tableVersion) {
        evict(pc);
        ++stats_.invalidated;
        return nullptr;
    }
    return it->second;
}

bool
TraceCache::noteBackEdge(Addr target, uint64_t tableVersion)
{
    auto it = traces_.find(target);
    if (it != traces_.end()) {
        if (it->second->tableVersion == tableVersion)
            return false;
        evict(target);
        ++stats_.invalidated;
    }
    unsigned &h = hotness_[target];
    if (++h < cfg_.hotThreshold)
        return false;
    hotness_.erase(target);
    return true;
}

void
TraceCache::insert(std::shared_ptr<Trace> t)
{
    suppressRedundant(*t);
    evict(t->startPc);
    std::unordered_set<uint64_t> frames;
    collectFrames(*t, frames);
    for (uint64_t f : frames) {
        byFrame_[f].insert(t->startPc);
        // Arm write invalidation. Re-marking matters: a prior code
        // write unmarks the page after notifying watchers.
        mem_.markCodePage(f * PageBytes);
    }
    traces_[t->startPc] = std::move(t);
    ++stats_.built;
}

void
TraceCache::evict(Addr startPc)
{
    auto it = traces_.find(startPc);
    if (it == traces_.end())
        return;
    std::unordered_set<uint64_t> frames;
    collectFrames(*it->second, frames);
    for (uint64_t f : frames) {
        auto fit = byFrame_.find(f);
        if (fit == byFrame_.end())
            continue;
        fit->second.erase(startPc);
        if (fit->second.empty())
            byFrame_.erase(fit);
    }
    traces_.erase(it);
}

void
TraceCache::onCodeWrite(uint64_t frame)
{
    auto it = byFrame_.find(frame);
    if (it == byFrame_.end())
        return;
    std::vector<Addr> pcs(it->second.begin(), it->second.end());
    size_t n = 0;
    for (Addr pc : pcs) {
        if (traces_.count(pc)) {
            evict(pc);
            ++n;
        }
    }
    byFrame_.erase(frame);
    if (n) {
        ++writeEpoch_;
        stats_.invalidated += n;
    }
}

void
TraceCache::invalidateAll()
{
    stats_.invalidated += traces_.size();
    traces_.clear();
    byFrame_.clear();
    hotness_.clear();
    ++writeEpoch_;
}

namespace {

/** Can this op sit inside an elidable group? Register-only work whose
 *  outcome is a pure function of register state. */
bool
regOnlyKind(TraceOpKind k)
{
    return k == TraceOpKind::AluReg || k == TraceOpKind::AluImm ||
           k == TraceOpKind::Lda || k == TraceOpKind::Ldah;
}

/** Registers read or written by the ops in [begin, end), as a bitmask
 *  over the unified logical register space. The hardwired zero register
 *  is excluded (reads are constant, writes are discarded). */
uint64_t
groupRegMask(const std::vector<TraceOp> &ops, size_t begin, size_t end)
{
    uint64_t mask = 0;
    auto add = [&](RegId r) {
        if (r.valid() && !r.isZero())
            mask |= uint64_t{1} << r.flat();
    };
    for (size_t i = begin; i < end; ++i) {
        SrcRegs s = srcRegs(ops[i].inst);
        add(s.r[0]);
        add(s.r[1]);
        add(dstReg(ops[i].inst));
    }
    return mask;
}

} // namespace

/**
 * Build-time redundancy suppression (the in-trace analogue of the
 * memtrace same-granule win): find instrumentation check groups —
 * maximal runs of consecutive register-only ops from one expansion
 * instance — that repeat an identical earlier group with no intervening
 * write to any register the group touches. The registers provably
 * already hold exactly the values the duplicate would compute, so the
 * duplicate executes as counter-retirement only.
 *
 * Only pure groups qualify: a group whose live-in registers (read
 * before written within the group) intersect its own writes is an
 * accumulator — executing the first instance changes the inputs the
 * duplicate would read, so the duplicate computes *different* values
 * and must run.
 *
 * A DiseCallGuard is not register-only work, so it never joins a
 * group: it ends the check group before it.
 *
 * A trailing CTRAP may join its group only when no monitor is bound:
 * with a monitor, the first instance's trap callback can mutate state
 * or record an event the duplicate's would too, so duplicated traps
 * must genuinely re-fire. Side exits into or budget exits inside an
 * elided group are safe — the interpreter re-executes the remaining
 * group ops idempotently, writing back the values already present.
 */
void
TraceCache::suppressRedundant(Trace &t) const
{
    struct Group
    {
        size_t begin = 0, end = 0;
        uint64_t regs = 0;
        bool pure = false; ///< live-ins disjoint from the group's writes
    };
    std::vector<Group> groups;
    const auto &ops = t.ops;
    size_t i = 0;
    while (i < ops.size()) {
        const TraceOp &o = ops[i];
        if (o.expCtx < 0 || o.isTriggerCopy || !regOnlyKind(o.kind)) {
            ++i;
            continue;
        }
        size_t j = i;
        while (j < ops.size() && ops[j].expCtx == o.expCtx &&
               !ops[j].isTriggerCopy && regOnlyKind(ops[j].kind))
            ++j;
        if (j < ops.size() && ops[j].expCtx == o.expCtx &&
            !ops[j].isTriggerCopy && ops[j].kind == TraceOpKind::Ctrap &&
            !envMonitored_)
            ++j;
        uint64_t liveIn = 0, written = 0;
        for (size_t k = i; k < j; ++k) {
            SrcRegs s = srcRegs(ops[k].inst);
            for (RegId r : {s.r[0], s.r[1]})
                if (r.valid() && !r.isZero() &&
                    !((written >> r.flat()) & 1))
                    liveIn |= uint64_t{1} << r.flat();
            RegId d = dstReg(ops[k].inst);
            if (d.valid() && !d.isZero())
                written |= uint64_t{1} << d.flat();
        }
        groups.push_back(
            {i, j, groupRegMask(ops, i, j), (liveIn & written) == 0});
        i = j;
    }

    for (size_t g = 1; g < groups.size(); ++g) {
        const Group &dup = groups[g];
        if (!dup.pure)
            continue;
        // Nearest earlier identical group minimizes the intervening
        // range the no-clobber check must clear.
        for (size_t f = g; f-- > 0;) {
            const Group &first = groups[f];
            if (first.end - first.begin != dup.end - dup.begin)
                continue;
            bool same = true;
            for (size_t k = 0; same && k < dup.end - dup.begin; ++k)
                same = ops[first.begin + k].inst == ops[dup.begin + k].inst;
            if (!same)
                continue;
            bool clobbered = false;
            for (size_t k = first.end; !clobbered && k < dup.begin; ++k) {
                RegId d = dstReg(ops[k].inst);
                if (d.valid() && !d.isZero() &&
                    (dup.regs >> d.flat()) & 1)
                    clobbered = true;
            }
            if (clobbered)
                break; // every earlier occurrence is behind the clobber
            for (size_t k = dup.begin; k < dup.end; ++k)
                t.ops[k].kind = TraceOpKind::Suppressed;
            t.suppressedOps += dup.end - dup.begin;
            break;
        }
    }
}

} // namespace dise
