/**
 * @file
 * Static binary-rewriting backend, in the style of Wahbe et al. and
 * Kessler: every store in the program text is statically replaced by an
 * inlined check sequence (original store, register spills to the stack
 * red zone, address reconstruction, serial comparison against watched
 * addresses, and a conventional call to an out-of-line evaluation
 * routine), then the whole unit is re-assembled — branch retargeting
 * for free via the label-based IR, standing in for the "wholesale
 * re-compilation" the technique needs.
 *
 * Like DISE it prunes spurious transitions inside the application; its
 * costs are static-code bloat (instruction-cache pressure, Figure 5)
 * and the intrusiveness the paper's Section 4 catalogs (register
 * scavenging, red-zone stack use, code layout perturbation).
 */

#ifndef DISE_DEBUG_REWRITE_BACKEND_HH
#define DISE_DEBUG_REWRITE_BACKEND_HH

#include "debug/backend.hh"

namespace dise {

class RewriteBackend : public DebugBackend
{
  public:
    std::string name() const override { return "binary-rewriting"; }

    bool install(DebugTarget &target, const std::vector<WatchSpec> &watches,
                 const std::vector<BreakSpec> &breaks) override;

    void prime(DebugTarget &target) override;

    DebugAction onTrap(const MicroOp &op) override;

    /** Static text growth factor after rewriting (tests / Fig. 5). */
    double bloatFactor() const { return bloatFactor_; }

  private:
    /** Write watch @p i's rwseg prev quad (or range shadow) from
     *  memory. */
    void refreshWatch(DebugTarget &target, size_t i) override;
    uint64_t checkedValue(size_t i, Addr quad) const override;
    void emitStoreStub(std::vector<AsmItem> &items, const Inst &store,
                       uint64_t stubId);
    void emitHandler(std::vector<AsmItem> &items);

    DebugTarget *target_ = nullptr;
    Addr rwsegBase_ = 0;
    Addr shadowBase_ = 0;
    double bloatFactor_ = 1.0;
};

} // namespace dise

#endif // DISE_DEBUG_REWRITE_BACKEND_HH
