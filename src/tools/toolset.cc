#include "tools/toolset.hh"

#include "common/logging.hh"
#include "debug/target.hh"
#include "dise/production_set.hh"
#include "obs/metrics.hh"

namespace dise::tools {

namespace {

uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** One tool's checkpoint blob: counters first, then tool state. */
std::vector<uint8_t>
packTool(const Tool &tool)
{
    std::vector<uint8_t> out;
    BlobWriter w{out};
    w.u64(tool.stats.uopsSeen);
    w.u64(tool.stats.checks);
    w.u64(tool.stats.suppressed);
    w.u64(tool.stats.findings);
    tool.save(w);
    return out;
}

} // namespace

ToolSet::ToolSet() = default;
ToolSet::~ToolSet() = default;

ToolSet::Entry *
ToolSet::find(const std::string &name)
{
    for (Entry &e : entries_)
        if (e.tool->name() == name)
            return &e;
    return nullptr;
}

const ToolSet::Entry *
ToolSet::find(const std::string &name) const
{
    for (const Entry &e : entries_)
        if (e.tool->name() == name)
            return &e;
    return nullptr;
}

bool
ToolSet::enable(DebugTarget &t, const std::string &name,
                const Config &cfg, bool useProductions, std::string *err,
                std::vector<int> *slotsOut,
                const std::vector<int> *atSlots)
{
    if (find(name)) {
        if (err)
            *err = "tool '" + name + "' is already enabled";
        return false;
    }
    std::unique_ptr<Tool> tool = ToolRegistry::instance().make(name);
    if (!tool) {
        if (err)
            *err = "unknown tool '" + name + "'";
        return false;
    }
    for (const auto &kv : cfg)
        if (!tool->configure(kv.first, kv.second, err))
            return false;

    Entry e;
    e.config = cfg;
    if (useProductions) {
        auto prods = std::make_unique<ProductionSet>("tool:" + name);
        tool->buildProductions(*prods);
        if (prods->size()) {
            bool ok = atSlots && !atSlots->empty()
                          ? prods->installAt(t.engine, *atSlots, err)
                          : prods->install(t.engine, err);
            if (!ok)
                return false;
        }
        if (prods->installed())
            e.prods = std::move(prods);
    }
    if (slotsOut)
        *slotsOut = e.prods ? e.prods->slots() : std::vector<int>{};
    e.tool = std::move(tool);
    entries_.push_back(std::move(e));
    armed_ = true;
    return true;
}

bool
ToolSet::canEnable(const DebugTarget &t, const std::string &name,
                   const Config &cfg, bool useProductions,
                   std::string *err) const
{
    if (find(name)) {
        if (err)
            *err = "tool '" + name + "' is already enabled";
        return false;
    }
    std::unique_ptr<Tool> tool = ToolRegistry::instance().make(name);
    if (!tool) {
        if (err)
            *err = "unknown tool '" + name + "'";
        return false;
    }
    for (const auto &kv : cfg)
        if (!tool->configure(kv.first, kv.second, err))
            return false;
    if (useProductions) {
        ProductionSet prods("tool:" + name);
        tool->buildProductions(prods);
        size_t free = t.engine.patternCapacity() -
                      t.engine.productionCount();
        if (prods.size() > free) {
            if (err)
                *err = "pattern table cannot hold tool '" + name +
                       "' (" + std::to_string(prods.size()) +
                       " productions, " + std::to_string(free) +
                       " free slots)";
            return false;
        }
    }
    return true;
}

std::vector<int>
ToolSet::installedSlots(const std::string &name) const
{
    const Entry *e = find(name);
    return e && e->prods ? e->prods->slots() : std::vector<int>{};
}

bool
ToolSet::disable(DebugTarget &t, const std::string &name,
                 std::string *err)
{
    for (size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].tool->name() != name)
            continue;
        if (entries_[i].prods)
            entries_[i].prods->remove(t.engine);
        entries_.erase(entries_.begin() + i);
        armed_ = !entries_.empty();
        return true;
    }
    if (err)
        *err = "tool '" + name + "' is not enabled";
    return false;
}

bool
ToolSet::isEnabled(const std::string &name) const
{
    return find(name) != nullptr;
}

std::vector<std::string>
ToolSet::enabledNames() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.tool->name());
    return out;
}

bool
ToolSet::report(const std::string &name, std::string *out,
                std::string *err) const
{
    const Entry *e = find(name);
    if (!e) {
        if (err)
            *err = ToolRegistry::instance().make(name)
                       ? "tool '" + name + "' is not enabled"
                       : "unknown tool '" + name + "'";
        return false;
    }
    *out = e->tool->report();
    return true;
}

uint64_t
ToolSet::digest(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? fnv1a(packTool(*e->tool)) : 0;
}

void
ToolSet::emit(Tool &tool, ToolFinding f)
{
    f.tool = tool.name();
    f.seq = emitted_++;
    ++tool.stats.findings;
    if (findings_.size() >= MaxStoredFindings) {
        ++dropped_;
        return;
    }
    findings_.push_back(std::move(f));
}

void
mergeToolStats(std::vector<ToolStatsRow> &rows, const ToolStatsRow &row)
{
    for (ToolStatsRow &t : rows) {
        if (t.name == row.name) {
            t.uopsSeen += row.uopsSeen;
            t.checks += row.checks;
            t.suppressed += row.suppressed;
            t.findings += row.findings;
            return;
        }
    }
    rows.push_back(row);
}

std::vector<ToolStatsRow>
ToolSet::statsRows() const
{
    std::vector<ToolStatsRow> rows;
    rows.reserve(entries_.size());
    for (const Entry &e : entries_) {
        ToolStatsRow r;
        r.name = e.tool->name();
        r.uopsSeen = e.tool->stats.uopsSeen;
        r.checks = e.tool->stats.checks;
        r.suppressed = e.tool->stats.suppressed;
        r.findings = e.tool->stats.findings;
        rows.push_back(std::move(r));
    }
    return rows;
}

ToolSet::Blobs
ToolSet::snapshot() const
{
    Blobs blobs;
    // Set-level pseudo-entry (empty name): the ordered findings list
    // and its counters, so rollback rewinds findings with tool state.
    std::vector<uint8_t> setBlob;
    BlobWriter w{setBlob};
    w.u64(emitted_);
    w.u64(dropped_);
    w.u64(findings_.size());
    for (const ToolFinding &f : findings_) {
        w.str(f.tool);
        w.str(f.kind);
        w.u64(f.seq);
        w.u64(f.pc);
        w.u64(f.addr);
        w.u64(f.value);
        w.str(f.detail);
    }
    blobs.emplace_back(std::string(), std::move(setBlob));
    for (const Entry &e : entries_)
        blobs.emplace_back(e.tool->name(), packTool(*e.tool));
    return blobs;
}

void
ToolSet::restore(const Blobs &blobs)
{
    for (const auto &kv : blobs) {
        BlobReader r{kv.second.data(), kv.second.size()};
        if (kv.first.empty()) {
            emitted_ = r.u64();
            dropped_ = r.u64();
            uint64_t n = r.u64();
            findings_.clear();
            for (uint64_t i = 0; i < n && r.ok(); ++i) {
                ToolFinding f;
                f.tool = r.str();
                f.kind = r.str();
                f.seq = r.u64();
                f.pc = r.u64();
                f.addr = r.u64();
                f.value = r.u64();
                f.detail = r.str();
                findings_.push_back(std::move(f));
            }
            continue;
        }
        Entry *e = find(kv.first);
        if (!e) {
            // The enabled set is reconciled through replay
            // interventions before host state restores; a leftover
            // blob for a disabled tool means the caller got that
            // ordering wrong.
            warn("tool snapshot for '", kv.first,
                 "' has no enabled tool; dropped");
            continue;
        }
        e->tool->stats.uopsSeen = r.u64();
        e->tool->stats.checks = r.u64();
        e->tool->stats.suppressed = r.u64();
        e->tool->stats.findings = r.u64();
        if (!e->tool->restore(r) || !r.ok())
            warn("tool '", kv.first, "' state blob failed to restore");
    }
}

void
ToolSet::onUop(const MicroOp &op)
{
    if (!target_ || !op.isAppInst())
        return;
    uint64_t t0 = obs::nowNs();
    for (Entry &e : entries_) {
        ++e.tool->stats.uopsSeen;
        e.tool->onUop(op, *target_, *this);
    }
    uint64_t dt = obs::nowNs() - t0;
    batchNs_ += dt;
    toolNs_ += dt;
    if (++batchOps_ >= 1024) {
        obs::metrics().toolOverheadUs.observe(batchNs_ / 1000);
        batchNs_ = 0;
        batchOps_ = 0;
    }
}

} // namespace dise::tools
