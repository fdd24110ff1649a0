/**
 * @file
 * Deterministic fault injection for the persistence and scheduling
 * layers.
 *
 * A FaultInjector is armed per call site (file open, write, fsync,
 * rename, scheduler slice boundary) either to fail the exact nth touch
 * of that site or to fail each touch with probability num/den drawn
 * from the repo's seeded xoshiro256** generator — so a chaos battery
 * is exactly repeatable from its seed. The FaultyVfs wrapper
 * (persist/vfs.hh) consults it on every filesystem primitive; the
 * JobScheduler consults it at slice boundaries. Every injected hit is
 * counted so ServerStats can report how much chaos a run absorbed.
 */

#ifndef DISE_PERSIST_FAULT_INJECTOR_HH
#define DISE_PERSIST_FAULT_INJECTOR_HH

#include <cstdint>
#include <mutex>

#include "common/random.hh"

namespace dise::persist {

class FaultInjector
{
  public:
    /** Instrumented call sites. */
    enum class Site : uint8_t {
        Open,   ///< file creation / open for read
        Write,  ///< data write (failure models a short/torn write)
        Fsync,  ///< durability barrier
        Rename, ///< atomic commit rename
        Slice,  ///< scheduler slice boundary
    };
    static constexpr unsigned NumSites = 5;

    static const char *siteName(Site s);

    explicit FaultInjector(uint64_t seed = 0x5eedfau) : rng_(seed) {}

    /** Fail exactly the @p nth next touch of @p s (1-based), once. */
    void
    armNth(Site s, uint64_t nth)
    {
        std::lock_guard<std::mutex> lk(mu_);
        Arm &a = arms_[idx(s)];
        a.nth = a.calls + nth;
        a.num = a.den = 0;
    }

    /** Fail each touch of @p s with probability @p num / @p den. */
    void
    armProbability(Site s, uint32_t num, uint32_t den)
    {
        std::lock_guard<std::mutex> lk(mu_);
        Arm &a = arms_[idx(s)];
        a.nth = 0;
        a.num = num;
        a.den = den ? den : 1;
    }

    void
    disarm()
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (Arm &a : arms_)
            a = Arm{a.calls};
    }

    void
    disarm(Site s)
    {
        std::lock_guard<std::mutex> lk(mu_);
        arms_[idx(s)] = Arm{arms_[idx(s)].calls};
    }

    /** Count a touch of @p s; true when a fault fires on it. */
    bool
    shouldFail(Site s)
    {
        std::lock_guard<std::mutex> lk(mu_);
        Arm &a = arms_[idx(s)];
        ++a.calls;
        bool hit = false;
        if (a.nth && a.calls == a.nth) {
            hit = true;
            a.nth = 0; // one-shot
        } else if (a.den && rng_.below(a.den) < a.num) {
            hit = true;
        }
        if (hit)
            ++injected_;
        return hit;
    }

    /** Faults injected so far, all sites. */
    uint64_t
    injected() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return injected_;
    }

    /** Touches of @p s so far (hit or not). */
    uint64_t
    touches(Site s) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return arms_[idx(s)].calls;
    }

  private:
    struct Arm
    {
        uint64_t calls = 0; ///< touches seen
        uint64_t nth = 0;   ///< absolute touch number to fail (0 = off)
        uint32_t num = 0;   ///< probability numerator (0 = off)
        uint32_t den = 0;
    };

    static constexpr unsigned idx(Site s) { return static_cast<unsigned>(s); }

    mutable std::mutex mu_;
    Rng rng_;
    Arm arms_[NumSites];
    uint64_t injected_ = 0;
};

inline const char *
FaultInjector::siteName(Site s)
{
    switch (s) {
      case Site::Open: return "open";
      case Site::Write: return "write";
      case Site::Fsync: return "fsync";
      case Site::Rename: return "rename";
      case Site::Slice: return "slice";
    }
    return "?";
}

} // namespace dise::persist

#endif // DISE_PERSIST_FAULT_INJECTOR_HH
