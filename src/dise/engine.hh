/**
 * @file
 * The DISE engine: production storage, pattern matching, replacement
 * instantiation, and a capacity/timing model for the pattern and
 * replacement tables (32 patterns; 512 instructions, 2-way
 * set-associative, per the paper's modest configuration).
 *
 * The engine sits logically between fetch and decode. It holds no
 * architectural register state — the private DISE register file is
 * renamed and lives with the rest of the architectural state in the
 * CPU — the engine is pure instruction-stream transformation.
 *
 * Matching is indexed: every production is classified by its most
 * selective pattern field (exact PC, codeword id, opcode, operation
 * class), and decode-time lookup unions a handful of candidate
 * bitmasks instead of scanning all pattern-table slots. A generation
 * counter advances on every table mutation so fetch-side caches (the
 * CPU's predecoded µop cache) can hold match outcomes and revalidate
 * them in O(1). Instantiated replacement sequences are memoized per
 * (production, trigger) since triggers repeat heavily in loops.
 */

#ifndef DISE_DISE_ENGINE_HH
#define DISE_DISE_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "dise/pattern.hh"
#include "dise/template.hh"

namespace dise {

using ProductionId = uint32_t;

/** A rewriting rule: pattern plus parameterized replacement sequence. */
struct Production
{
    std::string name;
    Pattern pattern;
    std::vector<TemplateInst> replacement;
};

struct DiseEngineConfig
{
    unsigned patternTableEntries = 32;
    unsigned replacementTableInsts = 512;
    unsigned replacementTableAssoc = 2;
    /** Cycles to refill one replacement-table line from memory. */
    unsigned replacementMissPenalty = 24;
    unsigned replacementLineInsts = 8;
};

/** Result of presenting one fetched instruction to the engine. */
struct MatchResult
{
    const Production *production = nullptr; ///< null: no expansion
    ProductionId id = 0;      ///< id of the matched production
    unsigned stallCycles = 0; ///< replacement-table refill stalls
};

/**
 * An instantiated replacement sequence, self-contained so that an
 * expansion in flight stays valid even if the pattern table mutates
 * (and the production's slot is reused) before it finishes.
 */
struct Expansion
{
    std::vector<Inst> insts;
    /** Per-element T.INST flags (parallel to insts). */
    std::vector<uint8_t> triggerCopy;
};

class DiseEngine
{
  public:
    /** A memoized, immutable instantiated replacement sequence. */
    using ExpansionRef = std::shared_ptr<const Expansion>;

    explicit DiseEngine(const DiseEngineConfig &cfg = {});

    // Holds interior pointers into its own StatGroup.
    DiseEngine(const DiseEngine &) = delete;
    DiseEngine &operator=(const DiseEngine &) = delete;

    /** @name Controller (privileged) interface */
    ///@{
    ProductionId addProduction(Production p);
    void removeProduction(ProductionId id);
    /** Pattern-table slot currently holding @p id, or -1. */
    int slotOf(ProductionId id) const;
    /** Id of the production occupying @p slot, or 0 when empty —
     *  the inverse of slotOf(), used by replay to re-target logged
     *  RemoveProduction records (which identify pre-session
     *  productions by their stable slot) onto a rebuilt engine. */
    ProductionId idAt(int slot) const;
    /**
     * Re-install @p p into a specific empty @p slot. Slot order breaks
     * equal-specificity match ties, so undoing a removal during
     * checkpoint restore must put the production back where it was —
     * first-free insertion would reorder the table and make replay
     * diverge from the original timeline.
     */
    ProductionId addProductionAt(Production p, int slot);
    void clear();
    void
    setEnabled(bool on)
    {
        if (enabled_ != on)
            ++tableVersion_;
        enabled_ = on;
    }
    bool enabled() const { return enabled_; }
    size_t productionCount() const;
    /** Pattern-table slots total (installed + free). */
    size_t patternCapacity() const { return slots_.size(); }
    const Production *production(ProductionId id) const;
    ///@}

    /**
     * Decode-time matching. Returns the most specific matching
     * production (ties broken by insertion order) and any
     * replacement-table refill stall.
     */
    MatchResult match(const Inst &inst, Addr pc);

    /** Pure matching without timing side effects (functional path). */
    const Production *matchFunctional(const Inst &inst, Addr pc) const;

    /**
     * Pattern-table slot of the most specific matching production, or
     * -1. The slot index is stable until the table mutates (observable
     * through generation()), so fetch-side caches may store it.
     */
    int matchSlot(const Inst &inst, Addr pc) const;

    /** Production occupying @p slot (from matchSlot; must be valid). */
    const Production *slotProduction(int slot) const;

    /**
     * Advances on every pattern-table mutation. A cached matchSlot()
     * outcome is valid iff the generation it was computed under still
     * matches.
     */
    uint64_t generation() const { return generation_; }

    /**
     * Advance the generation without mutating the table, forcing every
     * externally cached match outcome to revalidate. Called on
     * checkpoint restore: memory (and thus any predecoded fetch state)
     * may have been rolled back under the caches.
     */
    void invalidateMatchCaches() { ++generation_; }

    /**
     * Advances only on semantic table changes (production add/remove,
     * clear, enable toggle) — never on the cache-invalidation-only
     * generation bumps a checkpoint restore performs. Consumers whose
     * cached state depends on table *contents* rather than rolled-back
     * memory (the trace JIT bakes expansions into trace bodies) key on
     * this so restores do not wipe them.
     */
    uint64_t tableVersion() const { return tableVersion_; }

    /** Instantiate production @p prod for @p trigger (uncached). */
    std::vector<Inst> expand(const Production &prod,
                             const Inst &trigger) const;

    /**
     * Memoized expansion of the production in @p slot for @p trigger.
     * The returned sequence is shared and immutable; it stays alive
     * across table mutations even though the memo table is dropped.
     */
    ExpansionRef expandCached(int slot, const Inst &trigger);

    /** A/B switch for the indexed match (the linear scan is the
     *  reference the tests and bench_throughput compare against). */
    void setIndexedMatch(bool on) { indexed_ = on; }

    StatGroup &stats() { return stats_; }

  private:
    struct Slot
    {
        bool valid = false;
        ProductionId id = 0;
        Production prod;
    };

    /** Replacement-table residency model (tag-only, like a cache). */
    struct RtLine
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastUse = 0;
    };

    /** One bit per pattern-table slot. */
    using SlotMask = uint64_t;
    static constexpr unsigned MaxSlots = 64;
    /** Memoized-expansion cache capacity (entries). */
    static constexpr size_t ExpansionMemoEntries = 4096;

    /** Memo key: productions are immutable while installed, so the
     *  expansion is a pure function of (production id, trigger). */
    struct ExpKey
    {
        ProductionId id = 0;
        Inst trigger{};
        bool operator==(const ExpKey &) const = default;
    };
    struct ExpKeyHash
    {
        size_t operator()(const ExpKey &k) const;
    };

    unsigned rtTouch(ProductionId id, size_t seqLen);
    void rebuildIndex();
    void touchTable();
    SlotMask candidates(const Inst &inst, Addr pc) const;
    int matchLinear(const Inst &inst, Addr pc) const;

    DiseEngineConfig cfg_;
    bool enabled_ = true;
    bool indexed_ = true;
    /** Tables wider than the candidate-mask width use the linear scan. */
    bool indexable_ = true;
    std::vector<Slot> slots_;
    ProductionId nextId_ = 1;
    std::vector<RtLine> rtLines_;
    uint64_t rtClock_ = 0;
    uint64_t generation_ = 0;
    uint64_t tableVersion_ = 0;

    // Candidate indexes, rebuilt on each (rare) table mutation.
    SlotMask validMask_ = 0;   ///< all installed slots
    SlotMask genericMask_ = 0; ///< slots with no indexable anchor
    std::array<SlotMask, NumOpcodes> byOpcode_{};
    std::array<SlotMask, NumOpClasses> byClass_{};
    std::unordered_map<Addr, SlotMask> pcAnchored_;
    std::unordered_map<int64_t, SlotMask> cwAnchored_;

    std::unordered_map<ExpKey, ExpansionRef, ExpKeyHash> memo_;

    StatGroup stats_;
    uint64_t *matchesStat_;
    uint64_t *rtMissesStat_;
};

} // namespace dise

#endif // DISE_DISE_ENGINE_HH
