/**
 * @file
 * Watchpoint specifications, debugger events, and the host-side
 * expression-evaluation state shared by all backends.
 *
 * The paper's watchpoint taxonomy (Section 5): scalar variables
 * (HOT/WARM/COLD), an indirect expression *p, and a non-scalar RANGE
 * (structure or array). A watchpoint may carry a conditional predicate
 * comparing the watched expression's value against a constant.
 */

#ifndef DISE_DEBUG_WATCH_HH
#define DISE_DEBUG_WATCH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/mainmem.hh"

namespace dise {

/** What kind of expression is watched. */
enum class WatchKind : uint8_t {
    Scalar,   ///< a fixed-address variable
    Indirect, ///< *p: the datum the pointer at ptrAddr points to
    Range,    ///< a contiguous region (structure / array)
};

/** One watchpoint request. */
struct WatchSpec
{
    WatchKind kind = WatchKind::Scalar;
    std::string name;

    /** Scalar: variable address. Indirect: the pointer's address.
     *  Range: region base. */
    Addr addr = 0;
    /** Element size in bytes (scalar/indirect). */
    unsigned size = 8;
    /** Region length in bytes (range). */
    uint64_t length = 0;

    /** Conditional: only invoke the user when value == predConst. */
    bool conditional = false;
    uint64_t predConst = 0;

    static WatchSpec
    scalar(std::string name, Addr addr, unsigned size = 8)
    {
        WatchSpec w;
        w.kind = WatchKind::Scalar;
        w.name = std::move(name);
        w.addr = addr;
        w.size = size;
        return w;
    }

    static WatchSpec
    indirect(std::string name, Addr ptrAddr, unsigned size = 8)
    {
        WatchSpec w;
        w.kind = WatchKind::Indirect;
        w.name = std::move(name);
        w.addr = ptrAddr;
        w.size = size;
        return w;
    }

    static WatchSpec
    range(std::string name, Addr base, uint64_t length)
    {
        WatchSpec w;
        w.kind = WatchKind::Range;
        w.name = std::move(name);
        w.addr = base;
        w.length = length;
        return w;
    }

    WatchSpec
    withCondition(uint64_t constant) const
    {
        WatchSpec w = *this;
        w.conditional = true;
        w.predConst = constant;
        return w;
    }
};

/** A user-visible watchpoint hit. */
struct WatchEvent
{
    int wpIndex = -1;
    Addr addr = 0;        ///< changed location
    uint64_t oldValue = 0;
    uint64_t newValue = 0;
    Addr pc = 0;          ///< where the change was detected
    uint64_t seq = 0;     ///< detection order
};

/** A user-visible breakpoint hit. */
struct BreakEvent
{
    int bpIndex = -1;
    Addr pc = 0;
    uint64_t seq = 0;
};

/** A protection violation caught by the Fig. 2f production. */
struct ProtectionEvent
{
    Addr pc = 0;
    Addr addr = 0;
};

/** A detected change of a watched expression. */
struct WatchChange
{
    Addr addr = 0;
    uint64_t oldValue = 0;
    uint64_t newValue = 0;
};

/**
 * The mutable part of a WatchState, captured by checkpoints: what the
 * debugger process remembers between transitions and must roll back
 * when execution travels backward in time.
 */
struct WatchStateSnap
{
    uint64_t prevValue = 0;
    Addr curTarget = 0;
    std::vector<uint8_t> shadow;
};

/**
 * Host-side shadow state for one watchpoint: what the debugger process
 * would remember between transitions. Used directly by the
 * single-stepping / virtual-memory / hardware-register backends, and by
 * the DISE backend to reconstruct events at (non-spurious) traps.
 */
class WatchState
{
  public:
    explicit WatchState(const WatchSpec &spec);

    /** Snapshot the current value from memory (at install time). */
    void prime(const MainMemory &mem);

    /**
     * Re-evaluate the expression against memory; if its value changed
     * since the last evaluation, update the shadow and report how.
     */
    std::optional<WatchChange> evaluate(const MainMemory &mem);

    /** Would a write of @p bytes at @p addr touch watched storage? */
    bool overlaps(Addr addr, unsigned bytes) const;

    /**
     * A debugger write of @p bytes at @p addr has just reached @p mem:
     * take the written bytes into the shadow, so the write is never
     * reported as a change, and keep any other pending change. A write
     * to an indirect watch's pointer cell re-primes it at the new
     * target; a write to its current target (read from memory) is taken
     * byte by byte like a scalar's. Returns whether the write touched
     * this watch.
     */
    bool refresh(const MainMemory &mem, Addr addr, unsigned bytes);

    /**
     * An in-application check trapped on a store to the quad at
     * @p quad, which it saw change from @p old: take memory as the last
     * seen state, except @p old in that quad, so evaluate() reports the
     * change the check saw. Its predicate-pruned changes never trapped,
     * so the host's own last seen value may be older.
     */
    void adoptCheck(const MainMemory &mem, Addr quad, uint64_t old);

    /** All statically-known addresses this watchpoint monitors
     *  (empty for indirect targets beyond the pointer cell itself). */
    std::vector<std::pair<Addr, uint64_t>> staticRegions() const;

    /** Predicate test per the spec. */
    bool
    predicatePasses(uint64_t newValue) const
    {
        return !spec_.conditional || newValue == spec_.predConst;
    }

    const WatchSpec &spec() const { return spec_; }
    /** Current pointer target (indirect watchpoints). */
    Addr currentTarget() const { return curTarget_; }
    uint64_t shadowValue() const { return prevValue_; }

    /** @name Checkpoint support */
    ///@{
    WatchStateSnap save() const { return {prevValue_, curTarget_, shadow_}; }
    void
    restore(const WatchStateSnap &snap)
    {
        prevValue_ = snap.prevValue;
        curTarget_ = snap.curTarget;
        shadow_ = snap.shadow;
    }
    ///@}

  private:
    /** Take the bytes of [@p lo, @p hi) that fall in the value at
     *  @p base into prevValue_. */
    void takeWritten(const MainMemory &mem, Addr base, Addr lo, Addr hi);

    WatchSpec spec_;
    uint64_t prevValue_ = 0; ///< scalar/indirect expression value
    Addr curTarget_ = 0;     ///< indirect: last seen pointer value
    std::vector<uint8_t> shadow_; ///< range contents
};

} // namespace dise

#endif // DISE_DEBUG_WATCH_HH
