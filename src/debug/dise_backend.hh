/**
 * @file
 * The DISE debugger backend — the paper's contribution.
 *
 * Watchpoints become productions that expand every store into a
 * replacement sequence testing the store address (or directly
 * re-evaluating the expression), calling a debugger-generated function
 * on a match, and trapping only when the user must actually be
 * invoked. All spurious transitions are pruned inside the application.
 *
 * Implemented machinery, mapped to the paper:
 *  - Figure 2a/2b: Evaluate-Expression replacement sequences, with and
 *    without the ctrap extension.
 *  - Figure 2c/2d: Match-Address + DISE (conditional) call to the
 *    debugger-generated function.
 *  - Figure 7's third variant: Match-Address-Value, fully inline.
 *  - Figure 2e: the generated handler (all registers callee-saved,
 *    DISE disabled inside, d_mfr/d_mtr for DISE-register access).
 *  - Figure 2f: dseg protection prologue on every store expansion.
 *  - Section 4.2 multi-watchpoint strategies: serial address match,
 *    range bounds check, bytewise and bitwise Bloom filters.
 *  - Section 4.2 pattern optimization: stack-store exclusion via a
 *    more-specific identity production.
 *  - Section 4.1/4.3 breakpoints: codeword or PC-pattern productions,
 *    with conditions compiled directly into the replacement sequence.
 */

#ifndef DISE_DEBUG_DISE_BACKEND_HH
#define DISE_DEBUG_DISE_BACKEND_HH

#include "debug/backend.hh"

namespace dise {

/** Replacement-sequence organization (Figure 7). */
enum class DiseVariant : uint8_t {
    MatchAddrEvalExpr, ///< address check inline, expression in handler
    EvalExpr,          ///< expression evaluation inline (scalars)
    MatchAddrValue,    ///< address+value match inline (same-size scalars)
};

/** Multi-watchpoint address-matching strategy (Section 4.2 / Fig. 6). */
enum class MultiMatch : uint8_t {
    Auto,
    Serial,
    RangeCheck,
    BloomByte,
    BloomBit,
};

struct DiseOptions
{
    DiseVariant variant = DiseVariant::MatchAddrEvalExpr;
    /** ctrap / d_ccall ISA support available (Figure 7 top vs bottom). */
    bool condCallTrap = true;
    MultiMatch strategy = MultiMatch::Auto;
    /** Guard the debugger's dseg with the Figure 2f production. */
    bool protectDebuggerData = false;
    /** Skip expanding stack stores via a more-specific pattern. */
    bool excludeStackStores = false;
    /** Trigger breakpoints by codeword instead of PC pattern. */
    bool breakpointsByCodeword = false;
};

/** Trap codes used by generated code. */
enum : int64_t {
    TrapWatchpoint = 1,
    TrapProtection = 0x80,
    TrapBreakBase = 0x100,
};

class DiseBackend : public DebugBackend
{
  public:
    explicit DiseBackend(DiseOptions opts = {}) : opts_(opts) {}

    std::string name() const override { return "dise"; }

    /** Debug tools install their production sets on this backend. */
    bool usesDiseProductions() const override { return true; }

    bool install(DebugTarget &target, const std::vector<WatchSpec> &watches,
                 const std::vector<BreakSpec> &breaks) override;

    void prime(DebugTarget &target) override;

    DebugAction onTrap(const MicroOp &op) override;

    /** Instructions in the main store replacement sequence (tests). */
    size_t replacementLength() const { return replacementLen_; }
    /** Generated handler size in instructions (tests). */
    size_t handlerInsts() const { return handlerInsts_; }
    /** Effective strategy after Auto resolution (tests). */
    MultiMatch strategy() const { return strategy_; }
    const DiseOptions &options() const { return opts_; }

    /** dseg layout constants (shared with tests). */
    static constexpr uint64_t SaveAreaOff = 0x000;
    static constexpr uint64_t EntriesOff = 0x040;
    static constexpr uint64_t EntryBytes = 32;
    static constexpr uint64_t EntAligned = 0;  ///< quad-aligned address
    static constexpr uint64_t EntReal = 8;     ///< true address
    static constexpr uint64_t EntPrev = 16;    ///< previous value
    static constexpr uint64_t EntPred = 24;    ///< predicate constant
    static constexpr uint64_t BloomBytes = 2048;

  private:
    struct HandlerPlan; // codegen context

    void resolveStrategy(const std::vector<WatchSpec> &watches);
    std::vector<TemplateInst> buildStoreReplacement();
    void buildHandler(DebugTarget &target);
    void installBreakpoints(DebugTarget &target);
    void refreshWatch(DebugTarget &target, size_t i) override;
    uint64_t checkedValue(size_t i, Addr quad) const override;
    /** Write watch @p i's dseg entries (and range shadow) from memory. */
    void primeWatch(DebugTarget &target, size_t i);
    /** Load the DISE register file from the specs and memory. */
    void primeRegisters(DebugTarget &target);
    void bloomInsert(DebugTarget &target, Addr quadAddr);

    DiseOptions opts_;
    MultiMatch strategy_ = MultiMatch::Serial;
    DebugTarget *target_ = nullptr;

    Addr dsegBase_ = 0;
    uint64_t dsegSize_ = 0;
    unsigned protShift_ = 12; ///< dseg identified by addr >> protShift
    Addr handlerBase_ = 0;
    Addr bloomBase_ = 0;
    /** Where watch i's state lives in dseg, laid out by install(). */
    struct WatchSlot
    {
        size_t entry = 0; ///< first entry index (indirect: pointer cell)
        Addr shadow = 0;  ///< range shadow copy (range watches only)
    };
    std::vector<WatchSlot> slots_;
    size_t replacementLen_ = 0;
    size_t handlerInsts_ = 0;
};

} // namespace dise

#endif // DISE_DEBUG_DISE_BACKEND_HH
