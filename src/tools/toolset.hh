/**
 * @file
 * The per-backend collection of enabled debug tools.
 *
 * A ToolSet lives by value inside every DebugBackend and is bound into
 * the backend's StreamEnv as the µop observer. While no tool is enabled
 * the stream pays one inline branch per µop; enabling any tool arms the
 * observer. On the DISE backend each enabled tool additionally installs
 * its ProductionSet so the pipeline executes (and the timing model
 * charges for) the in-pipeline payload; the other four backends run the
 * same host-side detection without productions, which is what makes
 * findings backend-invariant.
 *
 * Tool state (including the findings list) snapshots and restores with
 * the backend host state, so time-travel rollback, interval replay and
 * hibernate/resurrect all see a consistent tool timeline.
 */

#ifndef DISE_TOOLS_TOOLSET_HH
#define DISE_TOOLS_TOOLSET_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/microop.hh"
#include "tools/tool.hh"

namespace dise {

class DebugTarget;

namespace tools {

/** Per-tool stats row surfaced through ServerStats. */
struct ToolStatsRow
{
    std::string name;
    uint64_t uopsSeen = 0;
    uint64_t checks = 0;
    uint64_t suppressed = 0;
    uint64_t findings = 0;
};

/** Adds @p row's counters to the row of the same tool in @p rows (or
 *  appends it): the one roll-up of per-tool counters. */
void mergeToolStats(std::vector<ToolStatsRow> &rows,
                    const ToolStatsRow &row);

class ToolSet : public UopObserver
{
  public:
    using Config = std::vector<std::pair<std::string, std::string>>;
    using Blobs = std::vector<std::pair<std::string, std::vector<uint8_t>>>;

    ToolSet();
    ~ToolSet() override;

    ToolSet(const ToolSet &) = delete;
    ToolSet &operator=(const ToolSet &) = delete;

    /** Bind the target whose µops this set observes (from streamEnv). */
    void bind(DebugTarget *t) { target_ = t; }

    /**
     * Enable @p name with @p cfg. When @p useProductions, the tool's
     * DISE production set installs into @p t's engine (DISE backend);
     * @p slotsOut receives the occupied pattern-table slots for the
     * replay journal. Fails on unknown tools, duplicate enables, and
     * bad configuration — with nothing installed.
     */
    bool enable(DebugTarget &t, const std::string &name,
                const Config &cfg, bool useProductions, std::string *err,
                std::vector<int> *slotsOut = nullptr,
                const std::vector<int> *atSlots = nullptr);

    /**
     * Validate an enable without mutating anything: unknown tool,
     * duplicate enable, bad config, pattern-table capacity.
     */
    bool canEnable(const DebugTarget &t, const std::string &name,
                   const Config &cfg, bool useProductions,
                   std::string *err) const;

    /** Disable @p name, removing any installed productions. */
    bool disable(DebugTarget &t, const std::string &name,
                 std::string *err);

    /** Pattern-table slots @p name's productions occupy (may be empty). */
    std::vector<int> installedSlots(const std::string &name) const;

    bool isEnabled(const std::string &name) const;
    /** Enabled tool names, in enable order. */
    std::vector<std::string> enabledNames() const;

    /** Tool report text; fails when the tool is not enabled. */
    bool report(const std::string &name, std::string *out,
                std::string *err) const;

    /** FNV-1a digest of a tool's serialized state; 0 when disabled. */
    uint64_t digest(const std::string &name) const;

    /** @name Findings (ordered, capped; counters never stop) */
    ///@{
    const std::vector<ToolFinding> &findings() const { return findings_; }
    uint64_t findingsEmitted() const { return emitted_; }
    uint64_t findingsDropped() const { return dropped_; }
    /** Tools call this from onUop to publish a detection. */
    void emit(Tool &tool, ToolFinding f);
    ///@}

    std::vector<ToolStatsRow> statsRows() const;

    /** Cumulative ns spent inside tool bodies since construction —
     *  side-band measurement, excluded from digests and snapshots. */
    uint64_t toolNs() const { return toolNs_; }

    /** @name Checkpoint/persist serialization */
    ///@{
    Blobs snapshot() const;
    void restore(const Blobs &blobs);
    ///@}

    void onUop(const MicroOp &op) override;

  private:
    struct Entry
    {
        std::unique_ptr<Tool> tool;
        std::unique_ptr<ProductionSet> prods; ///< installed (DISE) or null
        Config config;
    };

    Entry *find(const std::string &name);
    const Entry *find(const std::string &name) const;

    DebugTarget *target_ = nullptr;
    std::vector<Entry> entries_; ///< enable order

    static constexpr size_t MaxStoredFindings = 4096;
    std::vector<ToolFinding> findings_;
    uint64_t emitted_ = 0;
    uint64_t dropped_ = 0;

    // Side-band overhead sampling (not part of the deterministic
    // state): µs of tool work per batch of armed µops.
    uint64_t batchNs_ = 0;
    unsigned batchOps_ = 0;
    uint64_t toolNs_ = 0;
};

} // namespace tools
} // namespace dise

#endif // DISE_TOOLS_TOOLSET_HH
