/**
 * @file
 * Memory-system tests: functional memory (including page protection),
 * tag-only caches (hits, LRU, write-back), TLBs, and the composed
 * hierarchy with its bus bandwidth model.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/bitutils.hh"
#include "common/random.hh"
#include "mem/hierarchy.hh"
#include "mem/mainmem.hh"

namespace dise {
namespace {

TEST(MainMemory, ReadWriteSizes)
{
    MainMemory mem;
    mem.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(mem.read(0x1000, 2), 0x7788u);
    EXPECT_EQ(mem.read(0x1000, 1), 0x88u);
    EXPECT_EQ(mem.read(0x1004, 4), 0x11223344u);
}

TEST(MainMemory, UntouchedReadsZero)
{
    MainMemory mem;
    EXPECT_EQ(mem.read(0xdead000, 8), 0u);
}

TEST(MainMemory, SignedReads)
{
    MainMemory mem;
    mem.write(0x100, 4, 0xfffffffe);
    EXPECT_EQ(mem.readSigned(0x100, 4), -2);
    mem.write(0x200, 1, 0x80);
    EXPECT_EQ(mem.readSigned(0x200, 1), -128);
}

TEST(MainMemory, CrossPageAccess)
{
    MainMemory mem;
    Addr addr = PageBytes - 4;
    mem.write(addr, 8, 0xaabbccdd11223344ull);
    EXPECT_EQ(mem.read(addr, 8), 0xaabbccdd11223344ull);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(MainMemory, BlockCopyRoundTrip)
{
    MainMemory mem;
    std::vector<uint8_t> src(10000);
    Rng rng(5);
    for (auto &b : src)
        b = static_cast<uint8_t>(rng.below(256));
    mem.writeBlock(0x3ffe, src.data(), src.size());
    std::vector<uint8_t> dst(src.size());
    mem.readBlock(0x3ffe, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

/** The one-page-at-a-time digest contentHash() must keep matching:
 *  per non-zero page, a byte-wise FNV-1a chain seeded with the frame,
 *  summed onto the seed. */
uint64_t
referenceContentHash(const std::map<uint64_t, std::vector<uint8_t>> &pages,
                     uint64_t seed)
{
    uint64_t acc = seed;
    for (const auto &[frame, bytes] : pages) {
        bool zero = true;
        for (uint64_t i = 0; i < PageBytes && zero; ++i)
            zero = bytes[i] == 0;
        if (zero)
            continue;
        uint64_t h = FnvOffsetBasis ^ frame;
        for (uint64_t i = 0; i < PageBytes; ++i)
            h = fnvMix(h, bytes[i]);
        acc += h;
    }
    return acc;
}

TEST(MainMemory, ContentHashMatchesThePageAtATimeDigest)
{
    // Sparse images with 0-9 non-zero pages (so every remainder of the
    // four-page groups), all-zero pages between them, and a page that
    // is zero except for its last byte.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        MainMemory mem;
        std::map<uint64_t, std::vector<uint8_t>> model;
        unsigned nonZero = seed % 10;
        uint64_t frame = rng.below(64);
        for (unsigned p = 0; p < nonZero; ++p) {
            std::vector<uint8_t> bytes(PageBytes, 0);
            if (p == 0 && seed % 3 == 0) {
                bytes[PageBytes - 1] = 0x5a;
            } else {
                for (uint64_t k = rng.range(1, 64); k > 0; --k)
                    bytes[rng.below(PageBytes)] =
                        static_cast<uint8_t>(rng.range(1, 255));
            }
            mem.writeBlock(frame * PageBytes, bytes.data(), PageBytes);
            model[frame] = bytes;
            frame += rng.range(1, 3);
            if (rng.chance(1, 2)) {
                // A page that exists but holds only zeros.
                std::vector<uint8_t> zeros(PageBytes, 0);
                mem.writeBlock(frame * PageBytes, zeros.data(), PageBytes);
                model[frame] = zeros;
                frame += rng.range(1, 3);
            }
        }
        EXPECT_EQ(mem.contentHash(), referenceContentHash(model,
                                                          FnvOffsetBasis))
            << "seed " << seed;
        EXPECT_EQ(mem.contentHash(seed), referenceContentHash(model, seed))
            << "seed " << seed;
    }
}

TEST(MainMemory, PageProtection)
{
    MainMemory mem;
    EXPECT_FALSE(mem.isWriteProtected(0x5000));
    mem.protectPage(0x5123);
    EXPECT_TRUE(mem.isWriteProtected(0x5000));
    EXPECT_TRUE(mem.isWriteProtected(0x5fff));
    EXPECT_FALSE(mem.isWriteProtected(0x6000));
    mem.unprotectPage(0x5001);
    EXPECT_FALSE(mem.isWriteProtected(0x5000));
    mem.protectPage(0x7000);
    mem.clearProtections();
    EXPECT_EQ(mem.protectedPageCount(), 0u);
}

TEST(Cache, HitAfterMiss)
{
    Cache c({"t", 1024, 2, 64, 1});
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit); // same line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(Cache, LruEviction)
{
    // 1KB, 2-way, 64B lines -> 8 sets. Same set: stride 512.
    Cache c({"t", 1024, 2, 64, 1});
    c.access(0x0000, false);
    c.access(0x0200, false);
    EXPECT_TRUE(c.access(0x0000, false).hit); // refresh LRU
    c.access(0x0400, false);                  // evicts 0x0200
    EXPECT_TRUE(c.access(0x0000, false).hit);
    EXPECT_FALSE(c.access(0x0200, false).hit);
}

TEST(Cache, DirtyWritebackReported)
{
    Cache c({"t", 1024, 2, 64, 1});
    c.access(0x0000, true); // dirty
    c.access(0x0200, false);
    CacheResult r = c.access(0x0400, false); // evicts dirty 0x0000
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(c.stats().get("writebacks"), 1u);
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c({"t", 1024, 2, 64, 1});
    EXPECT_FALSE(c.probe(0x1000));
    c.access(0x1000, false);
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(Cache, FlushAll)
{
    Cache c({"t", 1024, 2, 64, 1});
    c.access(0x1000, false);
    c.flushAll();
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, StatsCount)
{
    Cache c({"t", 1024, 2, 64, 1});
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x40, true);
    EXPECT_EQ(c.stats().get("reads"), 2u);
    EXPECT_EQ(c.stats().get("writes"), 1u);
    EXPECT_EQ(c.stats().get("misses"), 2u);
}

/** Property: a cache never reports a hit for a line never accessed. */
TEST(Cache, PropertyNoFalseHits)
{
    Cache c({"t", 4096, 4, 64, 1});
    Rng rng(77);
    std::set<uint64_t> touched;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(1 << 20);
        uint64_t line = addr / 64;
        bool hit = c.access(addr, rng.chance(1, 4)).hit;
        if (hit) {
            EXPECT_TRUE(touched.count(line));
        }
        touched.insert(line);
    }
}

TEST(Tlb, MissThenHit)
{
    Tlb tlb({"t", 64, 4, 4096, 30});
    EXPECT_EQ(tlb.access(0x10000), 30u);
    EXPECT_EQ(tlb.access(0x10fff), 0u);
    EXPECT_EQ(tlb.access(0x11000), 30u);
}

TEST(Tlb, CapacityEviction)
{
    Tlb tlb({"t", 4, 2, 4096, 30});
    // 2 sets; pages 0,2,4 map to set 0.
    tlb.access(0x0000);
    tlb.access(0x2000);
    tlb.access(0x4000); // evicts page 0
    EXPECT_EQ(tlb.access(0x0000), 30u);
}

TEST(MemSystem, FetchLatencyTiers)
{
    MemSystem ms;
    // Cold: ITLB miss + L1 miss + L2 miss + memory + bus.
    uint64_t cold = ms.fetchAccess(0x1000, 0);
    EXPECT_GT(cold, 100u);
    uint64_t warm = ms.fetchAccess(0x1000, 1000);
    EXPECT_EQ(warm, ms.config().l1i.hitLatency);
}

TEST(MemSystem, DataLatencyTiers)
{
    MemSystem ms;
    uint64_t cold = ms.dataAccess(0x2000, false, 0);
    EXPECT_GT(cold, ms.config().memLatency);
    uint64_t hit = ms.dataAccess(0x2000, false, 500);
    EXPECT_EQ(hit, ms.config().l1d.hitLatency);
}

TEST(MemSystem, BusSerializesMisses)
{
    MemSystem ms;
    // Two same-cycle cold misses: the second waits on the 32-byte bus.
    uint64_t first = ms.dataAccess(0x10000, false, 0);
    uint64_t second = ms.dataAccess(0x80000, false, 0);
    EXPECT_GT(second, first);
}

TEST(MemSystem, FlushInstructionState)
{
    MemSystem ms;
    ms.fetchAccess(0x1000, 0);
    EXPECT_TRUE(ms.l1i().probe(0x1000));
    ms.flushInstructionState();
    EXPECT_FALSE(ms.l1i().probe(0x1000));
}

/** Parameterized geometry sweep: all legal configs behave sanely. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, FillAndRevisit)
{
    auto [sizeKb, assoc, line] = GetParam();
    Cache c({"t", static_cast<uint64_t>(sizeKb) * 1024,
             static_cast<unsigned>(assoc), static_cast<unsigned>(line),
             1});
    unsigned lines = sizeKb * 1024 / line;
    // Fill the whole cache, then every line must hit.
    for (unsigned i = 0; i < lines; ++i)
        c.access(static_cast<Addr>(i) * line, false);
    for (unsigned i = 0; i < lines; ++i)
        EXPECT_TRUE(
            c.access(static_cast<Addr>(i) * line, false).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(1, 1, 32),
                      std::make_tuple(8, 2, 64),
                      std::make_tuple(32, 2, 64),
                      std::make_tuple(64, 4, 64),
                      std::make_tuple(1024, 4, 64),
                      std::make_tuple(16, 8, 32)));

} // namespace
} // namespace dise
