#include "persist/store.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/trace.hh"

namespace dise::persist {

namespace {

const uint8_t kManMagic[8] = {'D', 'I', 'S', 'E', 'M', 'A', 'N', 1};
constexpr uint32_t kManVersion = 1;
constexpr const char *kManifest = "manifest.bin";

void
putU32(std::vector<uint8_t> &b, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &b, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putStr(std::vector<uint8_t> &b, const std::string &s)
{
    putU32(b, static_cast<uint32_t>(s.size()));
    b.insert(b.end(), s.begin(), s.end());
}

/** Minimal bounds-checked cursor for the manifest (untrusted input). */
struct Cur
{
    const uint8_t *p;
    size_t n;
    size_t pos = 0;
    bool ok = true;

    bool
    need(size_t k)
    {
        if (ok && n - pos < k)
            ok = false;
        return ok;
    }
    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p[pos++]) << (8 * i);
        return v;
    }
    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p[pos++]) << (8 * i);
        return v;
    }
    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return p[pos++];
    }
    std::string
    str()
    {
        uint32_t len = u32();
        if (!ok || !need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(p + pos), len);
        pos += len;
        return s;
    }
};

/** Parse "sess-<id>.v<ver>.img"; false for anything else. */
bool
parseImageName(const std::string &name, uint64_t &id, uint64_t &ver)
{
    if (name.rfind("sess-", 0) != 0)
        return false;
    if (name.size() < 9 || name.compare(name.size() - 4, 4, ".img") != 0)
        return false;
    size_t v = name.rfind(".v", name.size() - 4);
    if (v == std::string::npos || v < 5)
        return false;
    char *end = nullptr;
    id = std::strtoull(name.c_str() + 5, &end, 10);
    if (!end || *end != '.')
        return false;
    ver = std::strtoull(name.c_str() + v + 2, &end, 10);
    return end && std::strcmp(end, ".img") == 0;
}

} // namespace

const char *
storeErrName(StoreErr err)
{
    switch (err) {
      case StoreErr::None: return "none";
      case StoreErr::Io: return "io";
      case StoreErr::Injected: return "injected-fault";
      case StoreErr::Truncated: return "truncated";
      case StoreErr::BadMagic: return "bad-magic";
      case StoreErr::BadVersion: return "bad-version";
      case StoreErr::BadChecksum: return "bad-checksum";
      case StoreErr::Malformed: return "malformed";
      case StoreErr::BadManifest: return "bad-manifest";
      case StoreErr::DuplicateId: return "duplicate-id";
      case StoreErr::Missing: return "missing";
    }
    return "?";
}

SessionStore::SessionStore(std::string dir, Vfs &vfs)
    : dir_(std::move(dir)), vfs_(vfs)
{
}

std::string
SessionStore::path(const std::string &name) const
{
    return dir_ + "/" + name;
}

StoreErr
SessionStore::classifyVfs(const std::string &detail)
{
    return detail.rfind("injected", 0) == 0 ? StoreErr::Injected
                                            : StoreErr::Io;
}

StoreErr
SessionStore::fromImageErr(ImageErr err)
{
    switch (err) {
      case ImageErr::None: return StoreErr::None;
      case ImageErr::Truncated: return StoreErr::Truncated;
      case ImageErr::BadMagic: return StoreErr::BadMagic;
      case ImageErr::BadVersion: return StoreErr::BadVersion;
      case ImageErr::BadChecksum: return StoreErr::BadChecksum;
      case ImageErr::Malformed: return StoreErr::Malformed;
    }
    return StoreErr::Malformed;
}

void
SessionStore::addQuarantineLocked(const std::string &file, StoreErr err,
                                  std::string detail)
{
    quarantine_.push_back({file, err, std::move(detail)});
}

std::vector<uint8_t>
SessionStore::encodeManifestLocked() const
{
    std::vector<uint8_t> b(kManMagic, kManMagic + sizeof kManMagic);
    putU32(b, kManVersion);
    putU64(b, seq_);
    putU32(b, static_cast<uint32_t>(table_.size()));
    for (const auto &[id, e] : table_) {
        putU64(b, id);
        putStr(b, e.file);
        putU64(b, e.bytes);
        putU64(b, e.checksum);
        putStr(b, e.meta.workload);
        b.push_back(static_cast<uint8_t>(e.meta.backend));
        putU64(b, e.meta.appInsts);
        putU64(b, e.meta.digest);
    }
    putU64(b, fnv64(b.data(), b.size()));
    return b;
}

bool
SessionStore::decodeManifest(const std::vector<uint8_t> &bytes,
                             std::map<uint64_t, Entry> &out,
                             uint64_t &seq, std::string *why) const
{
    auto fail = [&](const std::string &w) {
        if (why)
            *why = w;
        return false;
    };
    if (bytes.size() < sizeof kManMagic + 4 + 8)
        return fail("manifest smaller than the fixed frame");
    if (std::memcmp(bytes.data(), kManMagic, sizeof kManMagic) != 0)
        return fail("manifest magic mismatch");
    uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<uint64_t>(bytes[bytes.size() - 8 + i])
                  << (8 * i);
    if (fnv64(bytes.data(), bytes.size() - 8) != stored)
        return fail("manifest checksum mismatch");

    Cur c{bytes.data() + sizeof kManMagic,
          bytes.size() - sizeof kManMagic - 8};
    uint32_t version = c.u32();
    if (version != kManVersion)
        return fail("manifest version " + std::to_string(version));
    seq = c.u64();
    uint32_t count = c.u32();
    if (!c.ok || count > (c.n - c.pos) / 38)
        return fail("manifest count field invalid");
    for (uint32_t i = 0; i < count && c.ok; ++i) {
        Entry e;
        uint64_t id = c.u64();
        e.file = c.str();
        e.bytes = c.u64();
        e.checksum = c.u64();
        e.meta.id = id;
        e.meta.workload = c.str();
        uint8_t backend = c.u8();
        if (backend > static_cast<uint8_t>(BackendKind::Rewrite))
            return fail("manifest entry has a bad backend byte");
        e.meta.backend = static_cast<BackendKind>(backend);
        e.meta.appInsts = c.u64();
        e.meta.digest = c.u64();
        e.meta.bytes = e.bytes;
        if (!c.ok)
            break;
        if (out.count(id))
            return fail("duplicate session id " + std::to_string(id) +
                        " in manifest");
        out.emplace(id, std::move(e));
    }
    if (!c.ok || c.pos != c.n)
        return fail("manifest body truncated or oversized");
    return true;
}

StoreResult
SessionStore::validateEntry(const Entry &e, SessionImage *out,
                            std::string *why) const
{
    std::vector<uint8_t> bytes;
    std::string err;
    if (!vfs_.readFile(path(e.file), bytes, &err))
        return StoreResult::failure(classifyVfs(err), err);
    if (bytes.size() != e.bytes)
        return StoreResult::failure(
            StoreErr::Truncated,
            e.file + ": " + std::to_string(bytes.size()) +
                " bytes on disk, manifest says " +
                std::to_string(e.bytes));
    if (fnv64(bytes.data(), bytes.size()) != e.checksum)
        return StoreResult::failure(StoreErr::BadChecksum,
                                    e.file +
                                        ": file checksum mismatch "
                                        "against the manifest");
    SessionImage img;
    std::string detail;
    ImageErr ie = decodeImage(bytes, img, &detail);
    if (ie != ImageErr::None)
        return StoreResult::failure(fromImageErr(ie),
                                    e.file + ": " + detail);
    if (img.id != e.meta.id)
        return StoreResult::failure(
            StoreErr::Malformed,
            e.file + ": image claims session id " +
                std::to_string(img.id) + ", manifest says " +
                std::to_string(e.meta.id));
    if (out)
        *out = std::move(img);
    if (why)
        *why = detail;
    return {};
}

StoreResult
SessionStore::open()
{
    TRACE_SPAN("store", "store.open");
    std::lock_guard<std::mutex> lk(mu_);
    table_.clear();
    quarantine_.clear();

    std::string err;
    if (!vfs_.mkdirs(dir_, &err))
        return StoreResult::failure(classifyVfs(err), err);
    opened_ = true;

    bool salvage = false;
    if (vfs_.exists(path(kManifest))) {
        std::vector<uint8_t> bytes;
        std::string why;
        if (!vfs_.readFile(path(kManifest), bytes, &why) ||
            !decodeManifest(bytes, table_, seq_, &why)) {
            addQuarantineLocked(kManifest, StoreErr::BadManifest, why);
            table_.clear();
            salvage = true;
        }
    } else {
        // No manifest but image files on disk: the commit point itself
        // was lost (deleted, or a crash before the very first commit).
        // That is a damaged store, not a fresh one — without this check
        // the GC below would collect every image as an orphan.
        std::vector<std::string> present;
        vfs_.list(dir_, present);
        for (const std::string &name : present) {
            uint64_t id = 0, ver = 0;
            if (parseImageName(name, id, ver)) {
                addQuarantineLocked(
                    kManifest, StoreErr::BadManifest,
                    "manifest missing with session images on disk");
                salvage = true;
                break;
            }
        }
    }

    if (!salvage) {
        // Validate every referenced image; rot quarantines the entry,
        // it never aborts recovery.
        for (auto it = table_.begin(); it != table_.end();) {
            StoreResult res = validateEntry(it->second, nullptr, nullptr);
            if (res.ok) {
                ++it;
            } else {
                addQuarantineLocked(it->second.file, res.err, res.detail);
                it = table_.erase(it);
            }
        }
    }

    std::vector<std::string> names;
    vfs_.list(dir_, names);

    if (salvage) {
        // No trustworthy manifest: adopt the newest valid image of each
        // session id found on disk, quarantine everything unreadable.
        std::map<uint64_t, std::pair<uint64_t, Entry>> best; // id -> (ver, e)
        for (const std::string &name : names) {
            uint64_t id = 0, ver = 0;
            if (!parseImageName(name, id, ver))
                continue;
            std::vector<uint8_t> bytes;
            std::string why;
            if (!vfs_.readFile(path(name), bytes, &why)) {
                addQuarantineLocked(name, classifyVfs(why), why);
                continue;
            }
            SessionImage img;
            ImageErr ie = decodeImage(bytes, img, &why);
            if (ie != ImageErr::None) {
                addQuarantineLocked(name, fromImageErr(ie),
                                    name + ": " + why);
                continue;
            }
            if (img.id != id) {
                addQuarantineLocked(
                    name, StoreErr::Malformed,
                    name + ": image claims session id " +
                        std::to_string(img.id));
                continue;
            }
            Entry e;
            e.file = name;
            e.bytes = bytes.size();
            e.checksum = fnv64(bytes.data(), bytes.size());
            e.meta = {img.id, img.workload, img.backend, img.appInsts,
                      img.digest, bytes.size()};
            auto it = best.find(id);
            if (it == best.end() || ver > it->second.first) {
                if (it != best.end())
                    addQuarantineLocked(
                        it->second.second.file, StoreErr::DuplicateId,
                        "superseded duplicate of session " +
                            std::to_string(id));
                best[id] = {ver, std::move(e)};
            } else {
                addQuarantineLocked(name, StoreErr::DuplicateId,
                                    "superseded duplicate of session " +
                                        std::to_string(id));
            }
        }
        for (auto &[id, pe] : best)
            table_.emplace(id, std::move(pe.second));
        commitManifestLocked(); // best effort: rebuild the commit point
    }

    // GC: temp residue always goes; unreferenced image files are
    // orphans of a crash between manifest commit and old-file removal.
    // Quarantined files stay on disk for the operator.
    for (const std::string &name : names) {
        if (name == kManifest)
            continue;
        bool quarantined = false;
        for (const QuarantineRecord &q : quarantine_)
            if (q.file == name)
                quarantined = true;
        if (quarantined)
            continue;
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".tmp") == 0) {
            if (vfs_.remove(path(name)))
                ++orphansRemoved_;
            continue;
        }
        uint64_t id = 0, ver = 0;
        if (!parseImageName(name, id, ver))
            continue;
        seq_ = std::max(seq_, ver);
        auto it = table_.find(id);
        if (it == table_.end() || it->second.file != name) {
            if (vfs_.remove(path(name)))
                ++orphansRemoved_;
        }
    }
    return {};
}

StoreResult
SessionStore::commitManifestLocked()
{
    std::vector<uint8_t> bytes = encodeManifestLocked();
    std::string tmp = path(std::string(kManifest) + ".tmp");
    std::string err;
    if (!vfs_.writeFile(tmp, bytes.data(), bytes.size(), &err)) {
        vfs_.remove(tmp);
        return StoreResult::failure(classifyVfs(err), err);
    }
    if (!vfs_.rename(tmp, path(kManifest), &err)) {
        vfs_.remove(tmp);
        return StoreResult::failure(classifyVfs(err), err);
    }
    return {};
}

StoreResult
SessionStore::put(const SessionImage &img)
{
    TRACE_SPAN("store", "store.put");
    std::lock_guard<std::mutex> lk(mu_);
    if (!opened_)
        return StoreResult::failure(StoreErr::Io, "store not opened");

    std::vector<uint8_t> bytes = encodeImage(img);
    std::string file = "sess-" + std::to_string(img.id) + ".v" +
                       std::to_string(++seq_) + ".img";
    std::string tmp = file + ".tmp";

    std::string err;
    if (!vfs_.writeFile(path(tmp), bytes.data(), bytes.size(), &err)) {
        vfs_.remove(path(tmp));
        return StoreResult::failure(classifyVfs(err), err);
    }
    if (!vfs_.rename(path(tmp), path(file), &err)) {
        vfs_.remove(path(tmp));
        return StoreResult::failure(classifyVfs(err), err);
    }

    Entry e;
    e.file = file;
    e.bytes = bytes.size();
    e.checksum = fnv64(bytes.data(), bytes.size());
    e.meta = {img.id, img.workload, img.backend, img.appInsts,
              img.digest, bytes.size()};

    auto it = table_.find(img.id);
    bool hadOld = it != table_.end();
    Entry old;
    if (hadOld)
        old = it->second;
    table_[img.id] = std::move(e);

    StoreResult committed = commitManifestLocked();
    if (!committed.ok) {
        // Roll the in-memory table back and drop the uncommitted
        // image: the store still describes the last durable state.
        if (hadOld)
            table_[img.id] = std::move(old);
        else
            table_.erase(img.id);
        vfs_.remove(path(file));
        return committed;
    }
    if (hadOld && old.file != file)
        vfs_.remove(path(old.file)); // best effort; open() GCs orphans
    ++puts_;
    return {};
}

StoreResult
SessionStore::load(uint64_t id, SessionImage &out)
{
    TRACE_SPAN("store", "store.load");
    std::lock_guard<std::mutex> lk(mu_);
    auto it = table_.find(id);
    if (it == table_.end())
        return StoreResult::failure(StoreErr::Missing,
                                    "no session " + std::to_string(id) +
                                        " in the store");
    StoreResult res = validateEntry(it->second, &out, nullptr);
    if (res.ok)
        ++loads_;
    return res;
}

StoreResult
SessionStore::erase(uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = table_.find(id);
    if (it == table_.end())
        return StoreResult::failure(StoreErr::Missing,
                                    "no session " + std::to_string(id) +
                                        " in the store");
    Entry old = it->second;
    table_.erase(it);
    StoreResult committed = commitManifestLocked();
    if (!committed.ok) {
        table_.emplace(id, std::move(old));
        return committed;
    }
    vfs_.remove(path(old.file));
    ++erases_;
    return {};
}

StoreResult
SessionStore::quarantine(uint64_t id, const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = table_.find(id);
    if (it == table_.end())
        return StoreResult::failure(StoreErr::Missing,
                                    "no session " + std::to_string(id) +
                                        " in the store");
    addQuarantineLocked(it->second.file, StoreErr::Malformed, why);
    table_.erase(it);
    commitManifestLocked(); // best effort; the file stays on disk
    return {};
}

bool
SessionStore::contains(uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return table_.count(id) > 0;
}

std::vector<StoreEntryMeta>
SessionStore::entries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<StoreEntryMeta> out;
    out.reserve(table_.size());
    for (const auto &[id, e] : table_)
        out.push_back(e.meta);
    return out;
}

std::vector<QuarantineRecord>
SessionStore::quarantined() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return quarantine_;
}

StoreCounters
SessionStore::counters() const
{
    std::lock_guard<std::mutex> lk(mu_);
    StoreCounters c;
    c.images = table_.size();
    for (const auto &[id, e] : table_)
        c.bytes += e.bytes;
    c.puts = puts_;
    c.loads = loads_;
    c.erases = erases_;
    c.quarantined = quarantine_.size();
    c.orphansRemoved = orphansRemoved_;
    return c;
}

} // namespace dise::persist
