/**
 * @file
 * Sparse, page-backed functional main memory.
 *
 * Holds the architectural memory image. Also tracks per-page write
 * protection, which the virtual-memory watchpoint backend uses the way
 * a real debugger uses mprotect(): a store to a protected page raises
 * a debugger trap instead of completing silently.
 *
 * The fetch side gets two accelerations: fetchWord() keeps a one-entry
 * page-pointer cache (instruction fetch exhibits near-perfect page
 * locality), and pages holding externally cached decodes can be marked
 * so that any write to them notifies registered CodeWatchers — the
 * invalidation discipline a predecoded-instruction cache needs to stay
 * correct under self-modifying or debugger-rewritten code.
 *
 * The checkpoint subsystem reuses the same write-hook structure as a
 * copy-on-write undo log: while the log is active, the first store to
 * any 64-byte block since the last checkpoint captures that block's
 * pre-image, tracked by one 64-bit mask per page. Snapshot cost is
 * proportional to the blocks dirtied between checkpoints, never to
 * total memory size or to the untouched rest of a dirtied page (see
 * src/replay/).
 */

#ifndef DISE_MEM_MAINMEM_HH
#define DISE_MEM_MAINMEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitutils.hh"
#include "isa/inst.hh"

namespace dise {

/** Page size used by both the functional memory and the VM debugger. */
constexpr uint64_t PageBytes = 4096;

/**
 * Observer of writes to pages marked via MainMemory::markCodePage.
 * Implemented by components that cache decoded instructions.
 */
class CodeWatcher
{
  public:
    virtual ~CodeWatcher() = default;
    /** A byte in marked page @p frame was written. */
    virtual void onCodeWrite(uint64_t frame) = 0;
};

/** Granule of the undo log: one cache line, one mask bit per block. */
constexpr uint64_t UndoBlockBytes = 64;
static_assert(PageBytes / UndoBlockBytes == 64,
              "a page's captured blocks must fit one 64-bit mask");

/**
 * Pre-image of one block captured by the copy-on-write undo log: the
 * block's contents as they were when the current undo interval began.
 * Applying an interval's pre-images rolls memory back to the state at
 * the start of that interval.
 */
struct UndoBlock
{
    Addr addr = 0; ///< block-aligned
    std::array<uint8_t, UndoBlockBytes> bytes{};
};

/** All pre-images captured during one undo interval. */
struct UndoLog
{
    std::vector<UndoBlock> blocks;
    /** Distinct pages the blocks belong to. */
    size_t pages = 0;

    /** Bytes the log's records hold. */
    uint64_t bytes() const { return blocks.size() * sizeof(UndoBlock); }
};

/** Sparse functional memory. */
class MainMemory
{
  public:
    /** Read @p bytes (1/2/4/8) at @p addr, little-endian, zero-extended. */
    uint64_t read(Addr addr, unsigned bytes) const;

    /** Write the low @p bytes of @p value at @p addr. */
    void write(Addr addr, unsigned bytes, uint64_t value);

    /** Sign-extending load helper. */
    int64_t readSigned(Addr addr, unsigned bytes) const;

    /**
     * Instruction-fetch fast path: a 32-bit little-endian read through
     * a one-entry page-pointer cache. Equivalent to read(addr, 4).
     */
    uint32_t fetchWord(Addr addr) const;

    /** Bulk copy-in used by the program loader. */
    void writeBlock(Addr addr, const uint8_t *src, size_t len);

    /** Bulk copy-out (range-watchpoint shadow comparison). */
    void readBlock(Addr addr, uint8_t *dst, size_t len) const;

    /** @name Code-write invalidation (predecoded-µop-cache support) */
    ///@{
    void addCodeWatcher(CodeWatcher *w);
    void removeCodeWatcher(CodeWatcher *w);
    /**
     * Mark the page containing @p addr as holding cached decodes. The
     * next write to it notifies every watcher (and unmarks the page;
     * watchers re-mark when they re-cache it).
     */
    void markCodePage(Addr addr);
    ///@}

    /** @name Copy-on-write undo log (checkpoint support) */
    ///@{
    /** Start capturing pre-images; begins the first undo interval. */
    void beginUndoLog();
    /** Stop capturing and drop any pending pre-images. */
    void endUndoLog();
    bool undoLogActive() const { return undoActive_; }
    /**
     * Seal the current interval: return the pre-images of every block
     * dirtied since the interval began and start a new, empty interval.
     */
    UndoLog sealUndoInterval();
    /** Pages dirtied so far in the open interval. */
    size_t undoPagesPending() const { return undoLog_.pages; }
    /**
     * Read-only view of the open interval's pre-images (no seal, no
     * state change). Interval-parallel replay materializes historical
     * memory images on a *clone* by applying this plus the sealed
     * interval chain, leaving the live memory untouched.
     */
    const UndoLog &pendingUndo() const { return undoLog_; }
    /**
     * Replace this memory's image with a copy of @p src's pages (raw
     * contents only — no protections, code-page marks, watchers, or
     * undo state travel with it). The basis of a share-nothing replay
     * replica. Reads @p src without touching its mutable caches, so
     * concurrent cloners are safe.
     */
    void copyImageFrom(const MainMemory &src);
    /**
     * Write an interval's pre-images back, newest interval first when
     * chaining across checkpoints. Restored pages are treated as clean
     * for the open interval, code-watcher invalidation fires once for
     * each page holding cached decodes, and the page-pointer caches are
     * dropped.
     */
    void applyUndo(const UndoLog &log);
    ///@}

    /**
     * Drop the fetch/data page-pointer caches. Called by applyUndo;
     * also part of the checkpoint-restore contract so callers can
     * guarantee no stale translation survives a restore.
     */
    void invalidatePagePointerCaches();

    /**
     * Order-independent hash of all nonzero page contents (pages that
     * are entirely zero hash identically to absent ones, so a restored
     * image digests equal to a never-touched one). Stored session
     * images and golden transcripts carry digests built on these
     * values, so a faster loop must keep every value exactly.
     */
    uint64_t contentHash(uint64_t seed = FnvOffsetBasis) const;

    /** @name mprotect()-style page protection */
    ///@{
    void protectPage(Addr addr);
    void unprotectPage(Addr addr);
    void clearProtections();
    bool isWriteProtected(Addr addr) const;
    size_t protectedPageCount() const { return protectedPages_.size(); }
    ///@}

    /** Number of distinct pages touched (for tests). */
    size_t pageCount() const { return pages_.size(); }

  private:
    struct Page
    {
        uint8_t bytes[PageBytes] = {};
        /** Writes to this page notify the registered CodeWatchers. */
        bool codeCached = false;
        /** Undo interval undoMask belongs to; a lagging epoch means no
         *  block of the page is captured in the open interval. */
        uint64_t undoEpoch = 0;
        /** Bit i: block i's pre-image is in the open interval. */
        uint64_t undoMask = 0;
    };

    Page &pageFor(Addr addr);
    const Page *pageForConst(Addr addr) const;
    void notifyCodeWrite(Page &page, uint64_t frame);
    void captureUndo(Page &page, uint64_t frame, uint64_t blocks);

    /** Mask of the blocks that bytes [off, off + len) of a page lie
     *  in (len >= 1, off + len <= PageBytes). */
    static uint64_t
    blockSpan(uint64_t off, uint64_t len)
    {
        uint64_t first = off / UndoBlockBytes;
        uint64_t last = (off + len - 1) / UndoBlockBytes;
        return (~uint64_t{0} >> (63 - last)) & (~uint64_t{0} << first);
    }

    /** A store to @p blocks of @p page: capture the pre-image of each
     *  one not yet captured this interval. */
    void
    undoHook(Page &page, uint64_t frame, uint64_t blocks)
    {
        if (undoActive_ &&
            (page.undoEpoch != undoEpoch_ || (blocks & ~page.undoMask)))
            captureUndo(page, frame, blocks);
    }

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
    std::unordered_set<uint64_t> protectedPages_;
    std::vector<CodeWatcher *> codeWatchers_;

    // Copy-on-write undo log. The epoch is monotonic across intervals;
    // a page's undoMask counts only while its undoEpoch matches the
    // current interval's.
    bool undoActive_ = false;
    uint64_t undoEpoch_ = 0;
    UndoLog undoLog_;

    // One-entry fetch page cache (fetchWord).
    mutable uint64_t fetchFrame_ = ~uint64_t{0};
    mutable const Page *fetchPage_ = nullptr;

    // Direct-mapped page-pointer cache for the data side. Pages are
    // never destroyed once allocated, so cached pointers stay valid;
    // absent pages are simply not cached.
    struct TransEnt
    {
        uint64_t frame = ~uint64_t{0};
        Page *page = nullptr;
    };
    static constexpr unsigned NumTransEnts = 16; ///< power of two
    mutable std::array<TransEnt, NumTransEnts> transCache_{};
};

} // namespace dise

#endif // DISE_MEM_MAINMEM_HH
