/**
 * @file
 * Persistence-layer tests: SessionImage encode/decode round-trips and
 * hostile-input rejection, the crash-consistent SessionStore (put /
 * load / erase / reopen, manifest commit point, salvage scan, orphan
 * GC), a loader-fuzz table proving every corrupt artifact quarantines
 * instead of crashing, the seeded FaultInjector battery over every VFS
 * call site (a failed persistence step must leave the store serving
 * its old state), and full DebugSession hibernate→resurrect round
 * trips on all five backends with bit-identical digests.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "persist/fault_injector.hh"
#include "persist/image.hh"
#include "persist/scratch_dir.hh"
#include "persist/store.hh"
#include "persist/vfs.hh"
#include "session/debug_session.hh"
#include "tools/toolset.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

using namespace reg;
using persist::FaultInjector;
using persist::ImageErr;
using persist::RealVfs;
using persist::ScratchDir;
using persist::SessionImage;
using persist::SessionStore;
using persist::StoreErr;
using persist::StoreResult;

// --------------------------------------------------------------- helpers

/** Rewrite the trailing FNV-1a 64 so a deliberate field mutation is
 *  NOT masked by the checksum check (version-skew tests). */
void
refreshTrailingChecksum(std::vector<uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), 8u);
    uint64_t sum = persist::fnv64(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] =
            static_cast<uint8_t>(sum >> (8 * i));
}

SessionImage
sampleImage(uint64_t id)
{
    SessionImage img;
    img.id = id;
    img.workload = "demo";
    img.backend = BackendKind::HardwareReg;
    img.attached = true;
    img.hasTravel = true;
    img.watches.push_back(WatchSpec::scalar("x", 0x20000, 8));
    img.watches.push_back(
        WatchSpec::range("hot table", 0x20040, 64).withCondition(7));
    BreakSpec b;
    b.pc = 0x1000054;
    b.name = "the_store";
    b.conditional = true;
    b.condAddr = 0x20008;
    b.condSize = 4;
    b.condConst = 9;
    img.breaks.push_back(b);
    img.mutedWatches.push_back(1);
    // Watch 1 was removed after attach: muted, still installed.
    img.installedWatches = {0, 1};
    img.installedBreaks = {0};
    SessionImage::Poke p;
    p.isReg = false;
    p.addr = 0x20010;
    p.size = 8;
    p.value = 0xabcd;
    img.pokes.push_back(p);
    img.seed = 0x5eed;
    img.programName = "doubler";
    Intervention iv;
    iv.kind = InterventionKind::PokeMemory;
    iv.time = 120;
    iv.appInsts = 30;
    iv.atEventPark = true;
    iv.addr = 0x20018;
    iv.size = 8;
    iv.value = 0x99;
    img.interventions.push_back(iv);
    Intervention te;
    te.kind = InterventionKind::ToolEnable;
    te.time = 140;
    te.appInsts = 35;
    te.toolName = "asan";
    te.toolConfig.push_back({"redzone", "16"});
    te.toolSlots = {4, 5};
    img.interventions.push_back(te);
    EventMark m;
    m.kind = EventKind::Watch;
    m.index = 0;
    m.time = 115;
    m.appInsts = 28;
    m.pc = 0x1000054;
    img.marks.push_back(m);
    img.time = 400;
    img.appInsts = 100;
    img.digest = 0xfeedface;
    img.checkpoints.push_back({0, 0});
    img.checkpoints.push_back({160, 40});
    img.toolDigests.push_back({"asan", 0x1234abcd});
    return img;
}

// ------------------------------------------------------------ the image

TEST(SessionImage, RoundTripAllFields)
{
    SessionImage img = sampleImage(42);
    std::vector<uint8_t> bytes = persist::encodeImage(img);

    SessionImage back;
    std::string detail;
    ASSERT_EQ(persist::decodeImage(bytes, back, &detail), ImageErr::None)
        << detail;
    EXPECT_EQ(back.id, 42u);
    EXPECT_EQ(back.workload, "demo");
    EXPECT_EQ(back.backend, BackendKind::HardwareReg);
    EXPECT_TRUE(back.attached);
    EXPECT_TRUE(back.hasTravel);
    ASSERT_EQ(back.watches.size(), 2u);
    EXPECT_EQ(back.watches[0].name, "x");
    EXPECT_EQ(back.watches[1].kind, WatchKind::Range);
    EXPECT_EQ(back.watches[1].length, 64u);
    EXPECT_TRUE(back.watches[1].conditional);
    EXPECT_EQ(back.watches[1].predConst, 7u);
    ASSERT_EQ(back.breaks.size(), 1u);
    EXPECT_EQ(back.breaks[0].pc, 0x1000054u);
    EXPECT_TRUE(back.breaks[0].conditional);
    EXPECT_EQ(back.breaks[0].condConst, 9u);
    ASSERT_EQ(back.mutedWatches.size(), 1u);
    EXPECT_EQ(back.mutedWatches[0], 1);
    EXPECT_EQ(back.installedWatches, (std::vector<int32_t>{0, 1}));
    EXPECT_EQ(back.installedBreaks, (std::vector<int32_t>{0}));
    ASSERT_EQ(back.pokes.size(), 1u);
    EXPECT_EQ(back.pokes[0].addr, 0x20010u);
    EXPECT_EQ(back.pokes[0].value, 0xabcdu);
    EXPECT_EQ(back.seed, 0x5eedu);
    EXPECT_EQ(back.programName, "doubler");
    ASSERT_EQ(back.interventions.size(), 2u);
    EXPECT_EQ(back.interventions[0].kind, InterventionKind::PokeMemory);
    EXPECT_EQ(back.interventions[0].time, 120u);
    EXPECT_TRUE(back.interventions[0].atEventPark);
    EXPECT_EQ(back.interventions[1].kind, InterventionKind::ToolEnable);
    EXPECT_EQ(back.interventions[1].toolName, "asan");
    ASSERT_EQ(back.interventions[1].toolConfig.size(), 1u);
    EXPECT_EQ(back.interventions[1].toolConfig[0].first, "redzone");
    EXPECT_EQ(back.interventions[1].toolConfig[0].second, "16");
    EXPECT_EQ(back.interventions[1].toolSlots,
              (std::vector<int>{4, 5}));
    ASSERT_EQ(back.marks.size(), 1u);
    EXPECT_EQ(back.marks[0].time, 115u);
    EXPECT_EQ(back.time, 400u);
    EXPECT_EQ(back.appInsts, 100u);
    EXPECT_EQ(back.digest, 0xfeedfaceu);
    ASSERT_EQ(back.checkpoints.size(), 2u);
    EXPECT_EQ(back.checkpoints[1], (persist::CheckpointMeta{160, 40}));
    ASSERT_EQ(back.toolDigests.size(), 1u);
    EXPECT_EQ(back.toolDigests[0],
              (persist::ToolDigest{"asan", 0x1234abcd}));
}

TEST(SessionImage, HostileInputsRejectTyped)
{
    std::vector<uint8_t> good = persist::encodeImage(sampleImage(7));
    SessionImage out;

    // Empty and every truncation point: Truncated (or BadChecksum once
    // the frame exists), never a crash or an accepted image.
    EXPECT_EQ(persist::decodeImage(nullptr, 0, out), ImageErr::Truncated);
    for (size_t n = 1; n < good.size(); n += 7) {
        ImageErr e = persist::decodeImage(good.data(), n, out);
        EXPECT_NE(e, ImageErr::None) << "prefix " << n;
    }

    // Bad magic.
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xff;
    EXPECT_EQ(persist::decodeImage(bad, out), ImageErr::BadMagic);

    // Every single-byte flip past the magic is caught by the checksum
    // (or a stricter structural check that fires first).
    for (size_t i = 8; i < good.size(); i += 11) {
        bad = good;
        bad[i] ^= 0x04;
        ImageErr e = persist::decodeImage(bad, out);
        EXPECT_NE(e, ImageErr::None) << "flip @ " << i;
    }

    // Version skew with a VALID checksum: typed as BadVersion.
    bad = good;
    bad[8] = 0x7f;
    refreshTrailingChecksum(bad);
    EXPECT_EQ(persist::decodeImage(bad, out), ImageErr::BadVersion);

    // A count field inflated to claim more elements than the payload
    // holds (checksum fixed): bounded reader refuses allocation.
    bad = good;
    bool rejected = true;
    // Scan for any 4-byte window whose inflation breaks decode but
    // never crashes it (ASan/UBSan guard the walk).
    for (size_t i = 12; i + 4 < bad.size() - 8; i += 13) {
        std::vector<uint8_t> mut = good;
        mut[i] = 0xff;
        mut[i + 1] = 0xff;
        mut[i + 2] = 0xff;
        mut[i + 3] = 0x7f;
        refreshTrailingChecksum(mut);
        SessionImage tmp;
        rejected = persist::decodeImage(mut, tmp) != ImageErr::None &&
                   rejected;
    }
    SUCCEED(); // surviving the sweep without UB is the assertion
}

TEST(SessionImage, InstallRecordIsValidated)
{
    // Resurrection indexes the spec lists with the install record, so
    // decode admits only strictly ascending in-range indices.
    const std::vector<std::vector<int32_t>> bad = {
        {1, 0}, {0, 0}, {0, 2}, {-1}};
    for (const auto &list : bad) {
        SessionImage img = sampleImage(3);
        img.installedWatches = list;
        SessionImage out;
        EXPECT_EQ(persist::decodeImage(persist::encodeImage(img), out),
                  ImageErr::Malformed)
            << "watch list of " << list.size();
        img = sampleImage(3);
        img.installedBreaks = list;
        EXPECT_EQ(persist::decodeImage(persist::encodeImage(img), out),
                  ImageErr::Malformed)
            << "break list of " << list.size();
    }

    // A v2 image (no install record) is version skew, not a parse.
    std::vector<uint8_t> v2 = persist::encodeImage(sampleImage(3));
    v2[8] = 2;
    refreshTrailingChecksum(v2);
    SessionImage out;
    EXPECT_EQ(persist::decodeImage(v2, out), ImageErr::BadVersion);
}

TEST(SessionImage, OutOfRangeFieldsAreMalformed)
{
    // Resurrection hands these fields unchecked to ArchState's register
    // array, MainMemory::write and the DISE engine's per-opcode tables,
    // so decode admits only values inside their ranges. Each row is one
    // field of an otherwise valid image.
    auto withProduction = [](SessionImage &img) -> Production & {
        Intervention iv;
        iv.kind = InterventionKind::AddProduction;
        iv.time = 150;
        iv.appInsts = 37;
        iv.production.name = "crafted";
        iv.production.pattern = Pattern::forClass(OpClass::Store);
        iv.production.replacement = {TemplateInst::trigInst()};
        img.interventions.push_back(iv);
        return img.interventions.back().production;
    };
    const std::vector<
        std::pair<const char *, std::function<void(SessionImage &)>>>
        rows = {
            {"poke register",
             [](SessionImage &img) {
                 img.pokes[0].isReg = true;
                 img.pokes[0].reg = 200;
             }},
            {"poke size", [](SessionImage &img) { img.pokes[0].size = 3; }},
            {"memory-poke intervention size",
             [](SessionImage &img) { img.interventions[0].size = 3; }},
            {"register index",
             [](SessionImage &img) {
                 Intervention iv;
                 iv.kind = InterventionKind::PokeRegister;
                 iv.time = 150;
                 iv.appInsts = 37;
                 iv.reg = RegId{RegKind::Int, 200};
                 img.interventions.push_back(iv);
             }},
            {"pattern opclass",
             [&](SessionImage &img) {
                 withProduction(img).pattern.opclass =
                     static_cast<OpClass>(200);
             }},
            {"pattern opcode",
             [&](SessionImage &img) {
                 withProduction(img).pattern =
                     Pattern::forOpcode(static_cast<Opcode>(200));
             }},
            {"template opcode",
             [&](SessionImage &img) {
                 withProduction(img).replacement[0].op =
                     static_cast<Opcode>(200);
             }},
        };
    for (const auto &[what, craft] : rows) {
        SessionImage img = sampleImage(11);
        craft(img);
        SessionImage out;
        std::string detail;
        EXPECT_EQ(persist::decodeImage(persist::encodeImage(img), out,
                                       &detail),
                  ImageErr::Malformed)
            << what << ": " << detail;
    }

    // The limits themselves are admitted: a pc poke, the last register
    // of each kind, a production on the last class and opcode.
    SessionImage img = sampleImage(11);
    img.pokes[0].isReg = true;
    img.pokes[0].reg = DebugSession::PcRegIndex;
    Intervention iv;
    iv.kind = InterventionKind::PokeRegister;
    iv.reg = dr(NumDiseRegs - 1);
    img.interventions.push_back(iv);
    Production &p = withProduction(img);
    p.pattern.opclass = static_cast<OpClass>(NumOpClasses - 1);
    p.pattern.opcode = static_cast<Opcode>(NumOpcodes - 1);
    p.pattern.baseReg = ir(NumIntRegs - 1);
    SessionImage out;
    std::string detail;
    EXPECT_EQ(persist::decodeImage(persist::encodeImage(img), out, &detail),
              ImageErr::None)
        << detail;
}

// ------------------------------------------------------------ the store

TEST(SessionStore, PutLoadEraseReopen)
{
    ScratchDir scratch("persist_test_basic");
    const std::string &dir = scratch.path;
    RealVfs vfs;
    SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);
    EXPECT_TRUE(store.entries().empty());

    ASSERT_TRUE(store.put(sampleImage(1)).ok);
    ASSERT_TRUE(store.put(sampleImage(2)).ok);
    // Replacing an entry supersedes its file (versioned, then GC'd).
    SessionImage v2 = sampleImage(1);
    v2.appInsts = 12345;
    ASSERT_TRUE(store.put(v2).ok);

    SessionImage out;
    ASSERT_TRUE(store.load(1, out).ok);
    EXPECT_EQ(out.appInsts, 12345u);
    EXPECT_TRUE(store.contains(2));
    EXPECT_FALSE(store.contains(3));
    StoreResult missing = store.load(3, out);
    EXPECT_FALSE(missing.ok);
    EXPECT_EQ(missing.err, StoreErr::Missing);

    // A second store on the same directory sees exactly the committed
    // state (the manifest is the commit point).
    SessionStore reopened(dir, vfs);
    ASSERT_TRUE(reopened.open().ok);
    EXPECT_EQ(reopened.entries().size(), 2u);
    ASSERT_TRUE(reopened.load(1, out).ok);
    EXPECT_EQ(out.appInsts, 12345u);
    EXPECT_TRUE(reopened.quarantined().empty());

    ASSERT_TRUE(reopened.erase(1).ok);
    EXPECT_FALSE(reopened.contains(1));
    StoreResult gone = reopened.erase(1);
    EXPECT_FALSE(gone.ok);
    EXPECT_EQ(gone.err, StoreErr::Missing);

    SessionStore again(dir, vfs);
    ASSERT_TRUE(again.open().ok);
    EXPECT_EQ(again.entries().size(), 1u);
    EXPECT_EQ(again.entries()[0].id, 2u);
}

/** The loader-fuzz table: every way a store directory can rot must
 *  quarantine (typed) and keep recovery alive — never crash, never
 *  admit a corrupt image. */
TEST(SessionStore, LoaderFuzzQuarantinesEveryCorruption)
{
    RealVfs vfs;

    struct Case
    {
        const char *name;
        /** Mutate a freshly-populated store directory (ids 1 and 2). */
        std::function<void(const std::string &dir)> corrupt;
        /** Ids that must survive recovery. */
        std::vector<uint64_t> survivors;
        bool expectQuarantine;
    };

    auto readF = [&](const std::string &p) {
        std::vector<uint8_t> b;
        std::string e;
        EXPECT_TRUE(vfs.readFile(p, b, &e)) << p << ": " << e;
        return b;
    };
    auto writeF = [&](const std::string &p,
                      const std::vector<uint8_t> &b) {
        std::string e;
        ASSERT_TRUE(vfs.writeFile(p, b.data(), b.size(), &e)) << e;
    };
    auto imageFileOf = [&](const std::string &dir, uint64_t id) {
        std::vector<std::string> names;
        vfs.list(dir, names);
        std::string prefix = "sess-" + std::to_string(id) + ".v";
        for (const std::string &n : names)
            if (n.rfind(prefix, 0) == 0)
                return dir + "/" + n;
        ADD_FAILURE() << "no image file for id " << id;
        return std::string();
    };

    std::vector<Case> cases = {
        {"truncated-manifest",
         [&](const std::string &dir) {
             std::vector<uint8_t> m = readF(dir + "/manifest.bin");
             m.resize(m.size() / 2);
             writeF(dir + "/manifest.bin", m);
         },
         {1, 2},
         true},
        {"bitflip-manifest",
         [&](const std::string &dir) {
             std::vector<uint8_t> m = readF(dir + "/manifest.bin");
             m[m.size() / 2] ^= 0x20;
             writeF(dir + "/manifest.bin", m);
         },
         {1, 2},
         true},
        {"manifest-version-skew",
         [&](const std::string &dir) {
             std::vector<uint8_t> m = readF(dir + "/manifest.bin");
             m[8] = 0x6f; // version u32 follows the 8-byte magic
             refreshTrailingChecksum(m);
             writeF(dir + "/manifest.bin", m);
         },
         {1, 2},
         true},
        {"zero-length-image",
         [&](const std::string &dir) {
             writeF(imageFileOf(dir, 1), {});
         },
         {2},
         true},
        {"garbage-magic-image",
         [&](const std::string &dir) {
             std::vector<uint8_t> b = readF(imageFileOf(dir, 2));
             std::memcpy(b.data(), "NOTDISE!", 8);
             writeF(imageFileOf(dir, 2), b);
         },
         {1},
         true},
        {"bitflip-image",
         [&](const std::string &dir) {
             std::vector<uint8_t> b = readF(imageFileOf(dir, 1));
             b[b.size() / 3] ^= 0x01;
             writeF(imageFileOf(dir, 1), b);
         },
         {2},
         true},
        {"image-version-skew",
         [&](const std::string &dir) {
             std::vector<uint8_t> b = readF(imageFileOf(dir, 2));
             b[8] = 0x7e;
             refreshTrailingChecksum(b);
             writeF(imageFileOf(dir, 2), b);
         },
         {1},
         true},
        {"duplicate-ids-no-manifest",
         [&](const std::string &dir) {
             // Two valid versions of id 1 and no manifest: the salvage
             // scan must adopt the newest and quarantine the loser.
             std::vector<uint8_t> b = readF(imageFileOf(dir, 1));
             SessionImage img;
             ASSERT_EQ(persist::decodeImage(b, img), ImageErr::None);
             img.appInsts = 777;
             std::vector<uint8_t> newer = persist::encodeImage(img);
             writeF(dir + "/sess-1.v99.img", newer);
             vfs.remove(dir + "/manifest.bin");
         },
         {1, 2},
         true},
        {"tmp-residue-collected",
         [&](const std::string &dir) {
             writeF(dir + "/sess-9.v1.img.tmp", {1, 2, 3});
             writeF(dir + "/manifest.bin.tmp", {4, 5});
         },
         {1, 2},
         false},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ScratchDir scratch(std::string("persist_test_fuzz_") + c.name);
        const std::string &dir = scratch.path;
        {
            SessionStore store(dir, vfs);
            ASSERT_TRUE(store.open().ok);
            ASSERT_TRUE(store.put(sampleImage(1)).ok);
            ASSERT_TRUE(store.put(sampleImage(2)).ok);
        }
        c.corrupt(dir);

        SessionStore recovered(dir, vfs);
        StoreResult res = recovered.open();
        ASSERT_TRUE(res.ok) << res.detail; // recovery NEVER aborts
        std::vector<persist::StoreEntryMeta> entries =
            recovered.entries();
        EXPECT_EQ(entries.size(), c.survivors.size());
        for (uint64_t id : c.survivors) {
            EXPECT_TRUE(recovered.contains(id)) << "lost id " << id;
            SessionImage out;
            StoreResult load = recovered.load(id, out);
            EXPECT_TRUE(load.ok) << load.detail;
            EXPECT_EQ(out.id, id);
        }
        if (c.expectQuarantine) {
            EXPECT_FALSE(recovered.quarantined().empty());
            for (const persist::QuarantineRecord &q :
                 recovered.quarantined()) {
                EXPECT_NE(q.err, StoreErr::None);
                EXPECT_FALSE(q.detail.empty());
            }
        } else {
            EXPECT_TRUE(recovered.quarantined().empty());
            EXPECT_GT(recovered.counters().orphansRemoved, 0u);
        }

        // The rebuilt store must be fully serviceable: a fresh put and
        // a reopen both succeed.
        ASSERT_TRUE(recovered.put(sampleImage(50)).ok);
        SessionStore verify(dir, vfs);
        ASSERT_TRUE(verify.open().ok);
        EXPECT_TRUE(verify.contains(50));
    }
}

TEST(SessionStore, FaultBatteryEveryVfsSite)
{
    RealVfs real;
    for (FaultInjector::Site site :
         {FaultInjector::Site::Open, FaultInjector::Site::Write,
          FaultInjector::Site::Fsync, FaultInjector::Site::Rename}) {
        SCOPED_TRACE(FaultInjector::siteName(site));
        ScratchDir scratch(std::string("persist_test_fault_") +
                           FaultInjector::siteName(site));
        const std::string &dir = scratch.path;
        FaultInjector faults(0xc0ffee);
        persist::FaultyVfs vfs(real, faults);
        SessionStore store(dir, vfs);
        ASSERT_TRUE(store.open().ok);
        ASSERT_TRUE(store.put(sampleImage(1)).ok);
        SessionImage before;
        ASSERT_TRUE(store.load(1, before).ok);

        // Fail every nth touch of this site in turn until an update
        // attempt stops tripping faults: every failure must be typed
        // Injected AND leave the old state fully readable.
        SessionImage update = sampleImage(1);
        update.appInsts = 4242;
        for (uint64_t nth = 1; nth <= 8; ++nth) {
            faults.armNth(site, nth);
            StoreResult res = store.put(update);
            faults.disarm();
            if (res.ok)
                break; // nth exceeded the site's touches in one put
            EXPECT_EQ(res.err, StoreErr::Injected) << res.detail;
            EXPECT_NE(res.detail.find("injected"), std::string::npos);
            SessionImage out;
            StoreResult load = store.load(1, out);
            ASSERT_TRUE(load.ok)
                << "store lost data after injected "
                << FaultInjector::siteName(site) << ": " << load.detail;
            // Old OR new content, never garbage or absence.
            EXPECT_TRUE(out.appInsts == before.appInsts ||
                        out.appInsts == 4242u)
                << out.appInsts;

            // Recovery on the torn directory also stays clean.
            SessionStore reopened(dir, real);
            ASSERT_TRUE(reopened.open().ok);
            ASSERT_TRUE(reopened.contains(1));
        }

        // Disarmed, the update lands.
        ASSERT_TRUE(store.put(update).ok);
        SessionImage out;
        ASSERT_TRUE(store.load(1, out).ok);
        EXPECT_EQ(out.appInsts, 4242u);
        EXPECT_GT(faults.injected(), 0u);
    }

    // Probability mode: a sustained storm of faults never corrupts the
    // store; once calm, everything works and the last committed state
    // is intact.
    ScratchDir scratch("persist_test_fault_storm");
    const std::string &dir = scratch.path;
    FaultInjector faults(0xdecade);
    persist::FaultyVfs vfs(real, faults);
    SessionStore store(dir, vfs);
    ASSERT_TRUE(store.open().ok);
    ASSERT_TRUE(store.put(sampleImage(1)).ok);
    for (FaultInjector::Site site :
         {FaultInjector::Site::Open, FaultInjector::Site::Write,
          FaultInjector::Site::Fsync, FaultInjector::Site::Rename})
        faults.armProbability(site, 1, 4);
    unsigned failures = 0;
    for (unsigned round = 0; round < 40; ++round) {
        SessionImage img = sampleImage(1 + (round % 3));
        img.appInsts = round;
        StoreResult res = store.put(img);
        if (!res.ok) {
            ++failures;
            EXPECT_TRUE(res.err == StoreErr::Injected ||
                        res.err == StoreErr::Io)
                << res.detail;
        }
        SessionImage out;
        StoreResult load = store.load(1, out);
        if (load.ok) {
            EXPECT_EQ(out.id, 1u);
        }
    }
    EXPECT_GT(failures, 0u) << "storm injected nothing — seed drift?";
    faults.disarm();
    ASSERT_TRUE(store.put(sampleImage(4)).ok);
    SessionStore reopened(dir, real);
    ASSERT_TRUE(reopened.open().ok);
    EXPECT_TRUE(reopened.contains(4));
    SessionImage out;
    for (const persist::StoreEntryMeta &e : reopened.entries())
        EXPECT_TRUE(reopened.load(e.id, out).ok);
}

TEST(FaultInjector, SeededAndDeterministic)
{
    FaultInjector a(123), b(123);
    a.armProbability(FaultInjector::Site::Write, 1, 3);
    b.armProbability(FaultInjector::Site::Write, 1, 3);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.shouldFail(FaultInjector::Site::Write),
                  b.shouldFail(FaultInjector::Site::Write))
            << i;
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_GT(a.injected(), 0u);
    EXPECT_EQ(a.touches(FaultInjector::Site::Write), 200u);

    // nth mode is exact and one-shot.
    FaultInjector c(7);
    c.armNth(FaultInjector::Site::Rename, 3);
    EXPECT_FALSE(c.shouldFail(FaultInjector::Site::Rename));
    EXPECT_FALSE(c.shouldFail(FaultInjector::Site::Rename));
    EXPECT_TRUE(c.shouldFail(FaultInjector::Site::Rename));
    EXPECT_FALSE(c.shouldFail(FaultInjector::Site::Rename));
}

// ------------------------------------------- session hibernate/resurrect

Program
doublerProgram()
{
    Assembler a;
    a.data(layout::DataBase);
    a.label("x");
    a.quad(3);
    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "x");
    a.lda(t1, 0, zero);
    a.label("loop");
    a.stmt(1);
    a.ldq(t0, 0, s0);
    a.addq(t0, t0, t0);
    a.label("the_store");
    a.stq(t0, 0, s0);
    a.addq(t1, 1, t1);
    a.cmplt(t1, 5, t2);
    a.bne(t2, "loop");
    a.syscall(SysExit);
    return a.finish("main");
}

SessionOptions
sessionOptions(BackendKind kind)
{
    SessionOptions o;
    o.debugger.backend = kind;
    o.timeTravel.checkpointInterval = 16;
    return o;
}

bool
resurrectAll(DebugSession &s, const SessionImage &img, std::string *err)
{
    if (!s.begin(img))
        while (!s.step(0)) {
        }
    Response resp = s.finish();
    if (!resp.ok() && err)
        *err = resp.error;
    return resp.ok();
}

TEST(SessionResurrect, RoundTripEveryBackend)
{
    for (BackendKind kind :
         {BackendKind::Dise, BackendKind::SingleStep,
          BackendKind::VirtualMemory, BackendKind::HardwareReg,
          BackendKind::Rewrite}) {
        SCOPED_TRACE(backendName(kind));
        Program prog = doublerProgram();
        Addr scratch = prog.symbol("x") + 32;

        DebugSession live(prog, sessionOptions(kind));
        live.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
        StopInfo hit = live.cont();
        ASSERT_EQ(hit.reason, StopReason::Event);
        live.stepi(3);
        // A logged mid-run intervention: resurrection must replay it.
        ASSERT_TRUE(live.writeMemory(scratch, 8, 0x77));
        live.stepi(2);

        SessionImage img;
        std::string err;
        img.id = 5;
        img.workload = "doubler";
        ASSERT_TRUE(live.exportImage(img, &err)) << err;
        EXPECT_EQ(img.backend, kind);
        EXPECT_TRUE(img.attached);
        EXPECT_TRUE(img.hasTravel);
        EXPECT_EQ(img.digest, live.digest());

        // Byte round-trip through the serialized form, like the store
        // would do.
        std::vector<uint8_t> bytes = persist::encodeImage(img);
        SessionImage loaded;
        ASSERT_EQ(persist::decodeImage(bytes, loaded), ImageErr::None);

        DebugSession res(prog, sessionOptions(kind));
        ASSERT_TRUE(resurrectAll(res, loaded, &err)) << err;

        // Bit-identical: position, digest, poked memory, spec set.
        EXPECT_EQ(res.stats().time, live.stats().time);
        EXPECT_EQ(res.stats().appInsts, live.stats().appInsts);
        EXPECT_EQ(res.digest(), live.digest());
        EXPECT_EQ(res.readMemory(scratch, 1)[0], 0x77);

        // And it keeps living: both sessions agree on the future.
        StopInfo a = live.cont();
        StopInfo b = res.cont();
        EXPECT_EQ(a.reason, b.reason);
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(live.digest(), res.digest());
    }
}

TEST(SessionResurrect, ToolStateSurvivesHibernationBitIdentically)
{
    // Satellite of the debug-tool subsystem: enable asan + coverage,
    // run to a position with findings on the books, hibernate through
    // the serialized form, resurrect, and demand bit-identical tool
    // state — the per-tool digests in the image are the proof
    // obligation the seek replay must discharge.
    Program prog = buildToolDemo();
    DebugSession live(prog, sessionOptions(BackendKind::Dise));
    std::string err;
    ASSERT_TRUE(live.toolEnable("asan", {{"redzone", "16"}}, &err))
        << err;
    ASSERT_TRUE(live.toolEnable("coverage", {}, &err)) << err;

    // Step until asan has caught the seeded out-of-bounds store (but
    // before the run ends, so resurrection really replays).
    const tools::ToolSet &liveTools =
        live.debugger().backend().tools();
    for (int i = 0; i < 100 && liveTools.findings().empty(); ++i) {
        StopInfo s = live.stepi(25);
        ASSERT_EQ(s.reason, StopReason::Step);
    }
    ASSERT_FALSE(liveTools.findings().empty());

    SessionImage img;
    img.id = 9;
    img.workload = "tooldemo";
    ASSERT_TRUE(live.exportImage(img, &err)) << err;
    ASSERT_EQ(img.toolDigests.size(), 2u);
    for (const persist::ToolDigest &td : img.toolDigests)
        EXPECT_NE(td.digest, 0u) << td.name;

    // Through the bytes, like the store would ship them.
    std::vector<uint8_t> bytes = persist::encodeImage(img);
    SessionImage loaded;
    ASSERT_EQ(persist::decodeImage(bytes, loaded), ImageErr::None);
    EXPECT_EQ(loaded.toolDigests, img.toolDigests);

    DebugSession res(prog, sessionOptions(BackendKind::Dise));
    ASSERT_TRUE(resurrectAll(res, loaded, &err)) << err;

    const tools::ToolSet &resTools = res.debugger().backend().tools();
    EXPECT_EQ(resTools.digest("asan"), liveTools.digest("asan"));
    EXPECT_EQ(resTools.digest("coverage"),
              liveTools.digest("coverage"));
    ASSERT_EQ(resTools.findings().size(), liveTools.findings().size());
    for (size_t i = 0; i < resTools.findings().size(); ++i) {
        EXPECT_EQ(resTools.findings()[i].kind,
                  liveTools.findings()[i].kind);
        EXPECT_EQ(resTools.findings()[i].pc,
                  liveTools.findings()[i].pc);
        EXPECT_EQ(resTools.findings()[i].detail,
                  liveTools.findings()[i].detail);
    }
    std::string liveReport, resReport;
    uint64_t d0 = 0, d1 = 0;
    ASSERT_TRUE(live.toolReport("asan", &liveReport, &d0, &err)) << err;
    ASSERT_TRUE(res.toolReport("asan", &resReport, &d1, &err)) << err;
    EXPECT_EQ(liveReport, resReport);
    EXPECT_EQ(d0, d1);

    // Both sessions keep finding the same bugs in the same future.
    StopInfo a = live.runToEnd();
    StopInfo b = res.runToEnd();
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(live.digest(), res.digest());
    EXPECT_EQ(resTools.digest("asan"), liveTools.digest("asan"));
    EXPECT_EQ(resTools.findings().size(), liveTools.findings().size());

    // A tampered tool digest is caught, and the vessel is detached
    // rather than left holding unverified tool state.
    SessionImage bad = img;
    bad.toolDigests[0].digest ^= 1;
    DebugSession vessel(prog, sessionOptions(BackendKind::Dise));
    EXPECT_FALSE(resurrectAll(vessel, bad, &err));
    EXPECT_NE(err.find("tool"), std::string::npos) << err;
    EXPECT_FALSE(vessel.attached());
}

TEST(SessionResurrect, ConfigOnlyImageNeedsNoReplay)
{
    Program prog = doublerProgram();
    DebugSession live(prog, sessionOptions(BackendKind::Dise));
    live.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    ASSERT_TRUE(live.writeMemory(prog.symbol("x"), 8, 5)); // pre-attach

    SessionImage img;
    std::string err;
    ASSERT_TRUE(live.exportImage(img, &err)) << err;
    EXPECT_FALSE(img.attached);

    DebugSession res(prog, sessionOptions(BackendKind::Dise));
    ASSERT_TRUE(resurrectAll(res, img, &err)) << err;
    EXPECT_FALSE(res.attached());

    // Both configured-but-cold sessions run to the same first stop.
    StopInfo a = live.cont();
    StopInfo b = res.cont();
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(live.digest(), res.digest());
}

TEST(SessionResurrect, RefusalsAreTypedAndStateSafe)
{
    Program prog = doublerProgram();

    // A batch (cycle-level) run is outside the replayable timeline:
    // export must refuse, not emit a lying image.
    DebugSession batch(prog, sessionOptions(BackendKind::Dise));
    batch.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    ASSERT_TRUE(batch.attach());
    batch.runCycles();
    SessionImage img;
    std::string err;
    EXPECT_FALSE(batch.exportImage(img, &err));
    EXPECT_NE(err.find("batch"), std::string::npos) << err;

    // Resurrection demands a fresh vessel.
    DebugSession used(prog, sessionOptions(BackendKind::Dise));
    used.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    SessionImage cfg;
    DebugSession donor(prog, sessionOptions(BackendKind::Dise));
    ASSERT_TRUE(donor.exportImage(cfg, &err)) << err;
    EXPECT_FALSE(resurrectAll(used, cfg, &err));
    EXPECT_NE(err.find("fresh"), std::string::npos) << err;

    // A tampered position anchor must be caught by verification and
    // leave the vessel detached, not silently divergent.
    DebugSession live(prog, sessionOptions(BackendKind::Dise));
    live.setWatch(WatchSpec::scalar("x", prog.symbol("x"), 8));
    StopInfo hit = live.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    live.stepi(4);
    SessionImage good;
    ASSERT_TRUE(live.exportImage(good, &err)) << err;
    SessionImage tampered = good;
    tampered.digest ^= 1;
    DebugSession vessel(prog, sessionOptions(BackendKind::Dise));
    EXPECT_FALSE(resurrectAll(vessel, tampered, &err));
    EXPECT_NE(err.find("digest"), std::string::npos) << err;
    EXPECT_FALSE(vessel.attached());

    // The untampered image still resurrects into another fresh vessel.
    DebugSession vessel2(prog, sessionOptions(BackendKind::Dise));
    ASSERT_TRUE(resurrectAll(vessel2, good, &err)) << err;
    EXPECT_EQ(vessel2.digest(), live.digest());
}

} // namespace
} // namespace dise
