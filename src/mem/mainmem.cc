#include "mem/mainmem.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dise {

MainMemory::Page &
MainMemory::pageFor(Addr addr)
{
    uint64_t frame = addr / PageBytes;
    TransEnt &ent = transCache_[frame & (NumTransEnts - 1)];
    if (ent.frame == frame)
        return *ent.page;
    auto &slot = pages_[frame];
    if (!slot) {
        slot = std::make_unique<Page>();
        // A fetchWord miss may have cached "no page" for this frame.
        if (frame == fetchFrame_)
            fetchPage_ = slot.get();
    }
    ent.frame = frame;
    ent.page = slot.get();
    return *slot;
}

const MainMemory::Page *
MainMemory::pageForConst(Addr addr) const
{
    uint64_t frame = addr / PageBytes;
    TransEnt &ent = transCache_[frame & (NumTransEnts - 1)];
    if (ent.frame == frame)
        return ent.page;
    auto it = pages_.find(frame);
    if (it == pages_.end())
        return nullptr; // absent pages are not cached
    ent.frame = frame;
    ent.page = it->second.get();
    return it->second.get();
}

void
MainMemory::addCodeWatcher(CodeWatcher *w)
{
    codeWatchers_.push_back(w);
}

void
MainMemory::removeCodeWatcher(CodeWatcher *w)
{
    codeWatchers_.erase(
        std::remove(codeWatchers_.begin(), codeWatchers_.end(), w),
        codeWatchers_.end());
}

void
MainMemory::markCodePage(Addr addr)
{
    pageFor(addr).codeCached = true;
}

void
MainMemory::beginUndoLog()
{
    undoActive_ = true;
    ++undoEpoch_;
    undoLog_ = {};
}

void
MainMemory::endUndoLog()
{
    undoActive_ = false;
    undoLog_ = {};
}

UndoLog
MainMemory::sealUndoInterval()
{
    DISE_ASSERT(undoActive_, "sealUndoInterval without beginUndoLog");
    // The sealed copy is exactly sized, so history holds what
    // UndoLog::bytes() reports; the open log keeps its buffer for the
    // next interval.
    UndoLog out = undoLog_;
    undoLog_.blocks.clear();
    undoLog_.pages = 0;
    ++undoEpoch_;
    return out;
}

void
MainMemory::captureUndo(Page &page, uint64_t frame, uint64_t blocks)
{
    if (page.undoEpoch != undoEpoch_) {
        page.undoEpoch = undoEpoch_;
        page.undoMask = 0;
        ++undoLog_.pages;
    }
    uint64_t fresh = blocks & ~page.undoMask;
    page.undoMask |= fresh;
    for (; fresh; fresh &= fresh - 1) {
        uint64_t off = std::countr_zero(fresh) * UndoBlockBytes;
        UndoBlock &u = undoLog_.blocks.emplace_back();
        u.addr = frame * PageBytes + off;
        std::memcpy(u.bytes.data(), page.bytes + off, UndoBlockBytes);
    }
}

void
MainMemory::applyUndo(const UndoLog &log)
{
    for (const UndoBlock &u : log.blocks) {
        Page &p = pageFor(u.addr);
        std::memcpy(p.bytes + u.addr % PageBytes, u.bytes.data(),
                    UndoBlockBytes);
        // Restoring bytes is a modification like any other: cached
        // decodes for the page are now stale. (Notifying unmarks the
        // page, so its other blocks do not notify again.)
        if (p.codeCached)
            notifyCodeWrite(p, u.addr / PageBytes);
        // The restored image is the open interval's new baseline.
        p.undoEpoch = 0;
    }
    invalidatePagePointerCaches();
}

void
MainMemory::copyImageFrom(const MainMemory &src)
{
    pages_.clear();
    for (const auto &[frame, page] : src.pages_) {
        auto copy = std::make_unique<Page>();
        std::memcpy(copy->bytes, page->bytes, PageBytes);
        pages_.emplace(frame, std::move(copy));
    }
    invalidatePagePointerCaches();
}

void
MainMemory::invalidatePagePointerCaches()
{
    transCache_.fill(TransEnt{});
    fetchFrame_ = ~uint64_t{0};
    fetchPage_ = nullptr;
}

uint64_t
MainMemory::contentHash(uint64_t seed) const
{
    // Order-independent: combine per-page hashes with addition so the
    // unordered map's iteration order cannot leak into the digest.
    // Each non-zero page is one byte-wise FNV-1a chain seeded with its
    // frame; four pages' chains run side by side so their multiplies
    // overlap, and a pending group of fewer than four runs one by one.
    static const uint8_t zeroPage[PageBytes] = {};
    auto pageHash = [](uint64_t frame, const uint8_t *b) {
        uint64_t h = FnvOffsetBasis ^ frame;
        for (uint64_t i = 0; i < PageBytes; ++i)
            h = fnvMix(h, b[i]);
        return h;
    };
    uint64_t acc = seed;
    uint64_t frames[4] = {};
    const uint8_t *group[4] = {};
    size_t n = 0;
    for (const auto &[frame, page] : pages_) {
        if (std::memcmp(page->bytes, zeroPage, PageBytes) == 0)
            continue;
        frames[n] = frame;
        group[n] = page->bytes;
        if (++n < 4)
            continue;
        n = 0;
        uint64_t h0 = FnvOffsetBasis ^ frames[0];
        uint64_t h1 = FnvOffsetBasis ^ frames[1];
        uint64_t h2 = FnvOffsetBasis ^ frames[2];
        uint64_t h3 = FnvOffsetBasis ^ frames[3];
        for (uint64_t i = 0; i < PageBytes; ++i) {
            h0 = fnvMix(h0, group[0][i]);
            h1 = fnvMix(h1, group[1][i]);
            h2 = fnvMix(h2, group[2][i]);
            h3 = fnvMix(h3, group[3][i]);
        }
        acc += h0 + h1 + h2 + h3;
    }
    for (size_t i = 0; i < n; ++i)
        acc += pageHash(frames[i], group[i]);
    return acc;
}

void
MainMemory::notifyCodeWrite(Page &page, uint64_t frame)
{
    // Unmark first: watchers drop their cached decodes and re-mark the
    // page when they next cache it, so store bursts to a page that is
    // no longer executed pay for a single notification.
    page.codeCached = false;
    for (CodeWatcher *w : codeWatchers_)
        w->onCodeWrite(frame);
}

uint64_t
MainMemory::read(Addr addr, unsigned bytes) const
{
    DISE_ASSERT(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8,
                "bad access size ", bytes);
    uint64_t v = 0;
    // Fast path: access within one page.
    uint64_t off = addr % PageBytes;
    if (off + bytes <= PageBytes) {
        const Page *p = pageForConst(addr);
        if (!p)
            return 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<uint64_t>(p->bytes[off + i]) << (8 * i);
        return v;
    }
    for (unsigned i = 0; i < bytes; ++i) {
        const Page *p = pageForConst(addr + i);
        uint8_t b = p ? p->bytes[(addr + i) % PageBytes] : 0;
        v |= static_cast<uint64_t>(b) << (8 * i);
    }
    return v;
}

uint32_t
MainMemory::fetchWord(Addr addr) const
{
    uint64_t off = addr % PageBytes;
    if (off + 4 > PageBytes) // straddles a page
        return static_cast<uint32_t>(read(addr, 4));
    uint64_t frame = addr / PageBytes;
    if (frame != fetchFrame_) {
        fetchFrame_ = frame;
        fetchPage_ = pageForConst(addr);
    }
    if (!fetchPage_)
        return 0;
    const uint8_t *b = &fetchPage_->bytes[off];
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
}

int64_t
MainMemory::readSigned(Addr addr, unsigned bytes) const
{
    return sext(read(addr, bytes), bytes * 8);
}

void
MainMemory::write(Addr addr, unsigned bytes, uint64_t value)
{
    DISE_ASSERT(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8,
                "bad access size ", bytes);
    uint64_t off = addr % PageBytes;
    if (off + bytes <= PageBytes) {
        Page &p = pageFor(addr);
        undoHook(p, addr / PageBytes, blockSpan(off, bytes));
        for (unsigned i = 0; i < bytes; ++i)
            p.bytes[off + i] = (value >> (8 * i)) & 0xff;
        if (p.codeCached)
            notifyCodeWrite(p, addr / PageBytes);
        return;
    }
    for (unsigned i = 0; i < bytes; ++i) {
        Page &p = pageFor(addr + i);
        undoHook(p, (addr + i) / PageBytes,
                 blockSpan((addr + i) % PageBytes, 1));
        p.bytes[(addr + i) % PageBytes] = (value >> (8 * i)) & 0xff;
        if (p.codeCached)
            notifyCodeWrite(p, (addr + i) / PageBytes);
    }
}

void
MainMemory::writeBlock(Addr addr, const uint8_t *src, size_t len)
{
    while (len) {
        Page &p = pageFor(addr);
        uint64_t off = addr % PageBytes;
        size_t chunk = std::min<size_t>(len, PageBytes - off);
        undoHook(p, addr / PageBytes, blockSpan(off, chunk));
        std::memcpy(&p.bytes[off], src, chunk);
        if (p.codeCached)
            notifyCodeWrite(p, addr / PageBytes);
        addr += chunk;
        src += chunk;
        len -= chunk;
    }
}

void
MainMemory::readBlock(Addr addr, uint8_t *dst, size_t len) const
{
    while (len) {
        const Page *p = pageForConst(addr);
        uint64_t off = addr % PageBytes;
        size_t chunk = std::min<size_t>(len, PageBytes - off);
        if (p)
            std::memcpy(dst, &p->bytes[off], chunk);
        else
            std::memset(dst, 0, chunk);
        addr += chunk;
        dst += chunk;
        len -= chunk;
    }
}

void
MainMemory::protectPage(Addr addr)
{
    protectedPages_.insert(addr / PageBytes);
}

void
MainMemory::unprotectPage(Addr addr)
{
    protectedPages_.erase(addr / PageBytes);
}

void
MainMemory::clearProtections()
{
    protectedPages_.clear();
}

bool
MainMemory::isWriteProtected(Addr addr) const
{
    return !protectedPages_.empty() &&
           protectedPages_.count(addr / PageBytes);
}

} // namespace dise
