#include "debug/watch.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace dise {

WatchState::WatchState(const WatchSpec &spec) : spec_(spec)
{
    if (spec_.kind == WatchKind::Range) {
        DISE_ASSERT(spec_.length > 0, "range watchpoint with zero length");
        shadow_.resize(spec_.length);
    }
}

void
WatchState::prime(const MainMemory &mem)
{
    switch (spec_.kind) {
      case WatchKind::Scalar:
        prevValue_ = mem.read(spec_.addr, spec_.size);
        break;
      case WatchKind::Indirect:
        curTarget_ = mem.read(spec_.addr, 8);
        prevValue_ = mem.read(curTarget_, spec_.size);
        break;
      case WatchKind::Range:
        mem.readBlock(spec_.addr, shadow_.data(), shadow_.size());
        break;
    }
}

std::optional<WatchChange>
WatchState::evaluate(const MainMemory &mem)
{
    switch (spec_.kind) {
      case WatchKind::Scalar: {
        uint64_t cur = mem.read(spec_.addr, spec_.size);
        if (cur == prevValue_)
            return std::nullopt;
        WatchChange ch{spec_.addr, prevValue_, cur};
        prevValue_ = cur;
        return ch;
      }
      case WatchKind::Indirect: {
        Addr target = mem.read(spec_.addr, 8);
        uint64_t cur = mem.read(target, spec_.size);
        curTarget_ = target;
        if (cur == prevValue_)
            return std::nullopt;
        WatchChange ch{target, prevValue_, cur};
        prevValue_ = cur;
        return ch;
      }
      case WatchKind::Range: {
        std::vector<uint8_t> cur(shadow_.size());
        mem.readBlock(spec_.addr, cur.data(), cur.size());
        if (std::memcmp(cur.data(), shadow_.data(), cur.size()) == 0)
            return std::nullopt;
        size_t i = 0;
        while (i < cur.size() && cur[i] == shadow_[i])
            ++i;
        // Report the first differing quad-aligned window for context.
        size_t base = i & ~size_t{7};
        uint64_t oldV = 0, newV = 0;
        for (size_t j = 0; j < 8 && base + j < cur.size(); ++j) {
            oldV |= static_cast<uint64_t>(shadow_[base + j]) << (8 * j);
            newV |= static_cast<uint64_t>(cur[base + j]) << (8 * j);
        }
        WatchChange ch{spec_.addr + base, oldV, newV};
        shadow_ = std::move(cur);
        return ch;
      }
    }
    return std::nullopt;
}

bool
WatchState::overlaps(Addr addr, unsigned bytes) const
{
    Addr lo = addr;
    Addr hi = addr + bytes;
    switch (spec_.kind) {
      case WatchKind::Scalar:
        return lo < spec_.addr + spec_.size && spec_.addr < hi;
      case WatchKind::Indirect:
        // Touches either the pointer cell or its current target.
        if (lo < spec_.addr + 8 && spec_.addr < hi)
            return true;
        return lo < curTarget_ + spec_.size && curTarget_ < hi;
      case WatchKind::Range:
        return lo < spec_.addr + spec_.length && spec_.addr < hi;
    }
    return false;
}

void
WatchState::takeWritten(const MainMemory &mem, Addr base, Addr lo, Addr hi)
{
    for (unsigned j = 0; j < spec_.size; ++j) {
        Addr a = base + j;
        if (a < lo || a >= hi)
            continue;
        uint64_t mask = uint64_t{0xff} << (8 * j);
        prevValue_ = (prevValue_ & ~mask) | (mem.read(a, 1) << (8 * j));
    }
}

bool
WatchState::refresh(const MainMemory &mem, Addr addr, unsigned bytes)
{
    Addr lo = addr;
    Addr hi = addr + bytes;
    switch (spec_.kind) {
      case WatchKind::Scalar:
        if (!(lo < spec_.addr + spec_.size && spec_.addr < hi))
            return false;
        takeWritten(mem, spec_.addr, lo, hi);
        return true;
      case WatchKind::Indirect: {
        // A new pointer re-targets the watch; a write to the datum it
        // points at now is taken like a scalar's.
        if (lo < spec_.addr + 8 && spec_.addr < hi) {
            prime(mem);
            return true;
        }
        Addr target = mem.read(spec_.addr, 8);
        if (!(lo < target + spec_.size && target < hi))
            return false;
        takeWritten(mem, target, lo, hi);
        return true;
      }
      case WatchKind::Range: {
        Addr from = std::max(lo, spec_.addr);
        Addr to = std::min(hi, spec_.addr + spec_.length);
        if (from >= to)
            return false;
        mem.readBlock(from, shadow_.data() + (from - spec_.addr), to - from);
        return true;
      }
    }
    return false;
}

void
WatchState::adoptCheck(const MainMemory &mem, Addr quad, uint64_t old)
{
    prime(mem);
    if (spec_.kind != WatchKind::Range) {
        // The check loaded the value sign-extended; the host keeps it
        // zero-extended.
        prevValue_ = spec_.size < 8
                         ? old & ((uint64_t{1} << (8 * spec_.size)) - 1)
                         : old;
        return;
    }
    for (unsigned j = 0; j < 8; ++j) {
        Addr a = quad + j;
        if (a >= spec_.addr && a < spec_.addr + spec_.length)
            shadow_[a - spec_.addr] = static_cast<uint8_t>(old >> (8 * j));
    }
}

std::vector<std::pair<Addr, uint64_t>>
WatchState::staticRegions() const
{
    switch (spec_.kind) {
      case WatchKind::Scalar:
        return {{spec_.addr, spec_.size}};
      case WatchKind::Indirect:
        // Only the pointer cell is statically known.
        return {{spec_.addr, 8}};
      case WatchKind::Range:
        return {{spec_.addr, spec_.length}};
    }
    return {};
}

} // namespace dise
