#include "persist/image.hh"

#include <cstring>

#include "session/debug_session.hh"

namespace dise::persist {

namespace {

const uint8_t kMagic[8] = {'D', 'I', 'S', 'E', 'I', 'M', 'G', 1};

// ------------------------------------------------------------- encoding

class Writer
{
  public:
    std::vector<uint8_t> bytes;

    void u8(uint8_t v) { bytes.push_back(v); }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }
    void
    regId(RegId r)
    {
        u8(static_cast<uint8_t>(r.kind));
        u8(r.idx);
    }
};

/**
 * Bounds-checked little-endian reader. Wire input is untrusted: every
 * read validates the remaining payload first, every enum validates its
 * range, and every count is validated against the bytes that could
 * possibly back it before any allocation happens — a hostile length
 * field cannot drive an over-allocation.
 */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t n) : p_(data), n_(n) {}

    bool ok() const { return ok_; }
    size_t pos() const { return pos_; }
    size_t remaining() const { return n_ - pos_; }
    const std::string &what() const { return what_; }

    uint8_t
    u8()
    {
        if (!need(1, "u8"))
            return 0;
        return p_[pos_++];
    }
    uint32_t
    u32()
    {
        if (!need(4, "u32"))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p_[pos_++]) << (8 * i);
        return v;
    }
    uint64_t
    u64()
    {
        if (!need(8, "u64"))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p_[pos_++]) << (8 * i);
        return v;
    }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }

    std::string
    str()
    {
        uint32_t len = u32();
        if (!ok_ || !need(len, "string body"))
            return {};
        std::string s(reinterpret_cast<const char *>(p_ + pos_), len);
        pos_ += len;
        return s;
    }

    RegId
    regId()
    {
        RegId r;
        uint8_t kind = u8();
        r.idx = u8();
        if (kind > static_cast<uint8_t>(RegKind::Dise)) {
            fail("bad RegKind");
            return {};
        }
        r.kind = static_cast<RegKind>(kind);
        unsigned regs = r.kind == RegKind::Int    ? NumIntRegs
                        : r.kind == RegKind::Dise ? NumDiseRegs
                                                  : 1;
        if (r.idx >= regs) {
            fail("register index beyond its kind");
            return {};
        }
        return r;
    }

    /** An element count: at least @p minElemBytes must back each. */
    uint32_t
    count(size_t minElemBytes, const char *what)
    {
        uint32_t c = u32();
        if (ok_ && minElemBytes && c > remaining() / minElemBytes) {
            fail(std::string("oversized count for ") + what);
            return 0;
        }
        return c;
    }

    /** Validate enum byte @p v against inclusive max @p maxVal. */
    template <typename E>
    E
    enum8(uint8_t maxVal, const char *what)
    {
        uint8_t v = u8();
        if (ok_ && v > maxVal) {
            fail(std::string("bad ") + what);
            return static_cast<E>(0);
        }
        return static_cast<E>(v);
    }

    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            what_ = why;
        }
    }

  private:
    bool
    need(size_t n, const char *what)
    {
        if (!ok_)
            return false;
        if (n_ - pos_ < n) {
            fail(std::string("truncated ") + what);
            truncated_ = true;
            return false;
        }
        return true;
    }

  public:
    bool truncated() const { return truncated_; }

  private:
    const uint8_t *p_;
    size_t n_;
    size_t pos_ = 0;
    bool ok_ = true;
    bool truncated_ = false;
    std::string what_;
};

void
putPattern(Writer &w, const Pattern &p)
{
    w.u8(p.opclass.has_value());
    w.u8(p.opclass ? static_cast<uint8_t>(*p.opclass) : 0);
    w.u8(p.opcode.has_value());
    w.u8(p.opcode ? static_cast<uint8_t>(*p.opcode) : 0);
    w.u8(p.baseReg.has_value());
    w.regId(p.baseReg.value_or(RegId{}));
    w.u8(p.pc.has_value());
    w.u64(p.pc.value_or(0));
    w.u8(p.codewordId.has_value());
    w.i64(p.codewordId.value_or(0));
}

bool
getPattern(Reader &r, Pattern &p)
{
    if (r.u8())
        p.opclass = r.enum8<OpClass>(NumOpClasses - 1, "pattern opclass");
    else
        r.u8();
    if (r.u8())
        p.opcode = r.enum8<Opcode>(NumOpcodes - 1, "pattern opcode");
    else
        r.u8();
    bool hasBase = r.u8();
    RegId base = r.regId();
    if (hasBase)
        p.baseReg = base;
    bool hasPc = r.u8();
    uint64_t pc = r.u64();
    if (hasPc)
        p.pc = pc;
    bool hasCw = r.u8();
    int64_t cw = r.i64();
    if (hasCw)
        p.codewordId = cw;
    return r.ok();
}

void
putProduction(Writer &w, const Production &p)
{
    w.str(p.name);
    putPattern(w, p.pattern);
    w.u32(static_cast<uint32_t>(p.replacement.size()));
    for (const TemplateInst &ti : p.replacement) {
        w.u8(ti.triggerCopy);
        w.u8(static_cast<uint8_t>(ti.op));
        for (const TRegField *f : {&ti.ra, &ti.rb, &ti.rc}) {
            w.u8(static_cast<uint8_t>(f->kind));
            w.regId(f->lit);
        }
        w.u8(static_cast<uint8_t>(ti.imm.kind));
        w.i64(ti.imm.lit);
    }
}

bool
getProduction(Reader &r, Production &p)
{
    p.name = r.str();
    if (!getPattern(r, p.pattern))
        return false;
    uint32_t n = r.count(20, "replacement sequence");
    p.replacement.resize(r.ok() ? n : 0);
    for (TemplateInst &ti : p.replacement) {
        ti.triggerCopy = r.u8() != 0;
        ti.op = r.enum8<Opcode>(NumOpcodes - 1, "template opcode");
        for (TRegField *f : {&ti.ra, &ti.rb, &ti.rc}) {
            f->kind = r.enum8<TRegField::Kind>(
                static_cast<uint8_t>(TRegField::Kind::TrigRc),
                "TRegField kind");
            f->lit = r.regId();
        }
        ti.imm.kind = r.enum8<TImmField::Kind>(
            static_cast<uint8_t>(TImmField::Kind::TrigImm),
            "TImmField kind");
        ti.imm.lit = r.i64();
    }
    return r.ok();
}

} // namespace

const char *
imageErrName(ImageErr err)
{
    switch (err) {
      case ImageErr::None: return "none";
      case ImageErr::Truncated: return "truncated";
      case ImageErr::BadMagic: return "bad-magic";
      case ImageErr::BadVersion: return "bad-version";
      case ImageErr::BadChecksum: return "bad-checksum";
      case ImageErr::Malformed: return "malformed";
    }
    return "?";
}

uint64_t
fnv64(const uint8_t *data, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<uint8_t>
encodeImage(const SessionImage &img)
{
    Writer w;
    w.bytes.insert(w.bytes.end(), kMagic, kMagic + sizeof kMagic);
    w.u32(kImageVersion);

    w.u64(img.id);
    w.str(img.workload);
    w.u8(static_cast<uint8_t>(img.backend));
    w.u8(img.attached);
    w.u8(img.hasTravel);

    w.u32(static_cast<uint32_t>(img.watches.size()));
    for (const WatchSpec &s : img.watches) {
        w.u8(static_cast<uint8_t>(s.kind));
        w.str(s.name);
        w.u64(s.addr);
        w.u32(s.size);
        w.u64(s.length);
        w.u8(s.conditional);
        w.u64(s.predConst);
    }
    w.u32(static_cast<uint32_t>(img.breaks.size()));
    for (const BreakSpec &s : img.breaks) {
        w.u64(s.pc);
        w.str(s.name);
        w.u8(s.conditional);
        w.u64(s.condAddr);
        w.u32(s.condSize);
        w.u64(s.condConst);
    }
    w.u32(static_cast<uint32_t>(img.mutedWatches.size()));
    for (int32_t i : img.mutedWatches)
        w.i32(i);
    w.u32(static_cast<uint32_t>(img.mutedBreaks.size()));
    for (int32_t i : img.mutedBreaks)
        w.i32(i);
    for (const auto *list : {&img.installedWatches, &img.installedBreaks}) {
        w.u32(static_cast<uint32_t>(list->size()));
        for (int32_t i : *list)
            w.i32(i);
    }
    w.u32(static_cast<uint32_t>(img.pokes.size()));
    for (const SessionImage::Poke &p : img.pokes) {
        w.u8(p.isReg);
        w.u32(p.reg);
        w.u64(p.addr);
        w.u32(p.size);
        w.u64(p.value);
    }

    w.u64(img.seed);
    w.str(img.programName);
    w.u32(static_cast<uint32_t>(img.interventions.size()));
    for (const Intervention &iv : img.interventions) {
        w.u8(static_cast<uint8_t>(iv.kind));
        w.u64(iv.time);
        w.u64(iv.appInsts);
        w.u8(iv.atEventPark);
        w.u64(iv.addr);
        w.u32(iv.size);
        w.u64(iv.value);
        w.regId(iv.reg);
        putProduction(w, iv.production);
        w.u32(iv.engineId);
        w.i32(iv.addIndex);
        w.i32(iv.slot);
        w.str(iv.toolName);
        w.u32(static_cast<uint32_t>(iv.toolConfig.size()));
        for (const auto &kv : iv.toolConfig) {
            w.str(kv.first);
            w.str(kv.second);
        }
        w.u32(static_cast<uint32_t>(iv.toolSlots.size()));
        for (int s : iv.toolSlots)
            w.i32(s);
    }
    w.u32(static_cast<uint32_t>(img.marks.size()));
    for (const EventMark &mk : img.marks) {
        w.u8(static_cast<uint8_t>(mk.kind));
        w.i32(mk.index);
        w.u64(mk.time);
        w.u64(mk.appInsts);
        w.u64(mk.pc);
    }

    w.u64(img.time);
    w.u64(img.appInsts);
    w.u64(img.digest);
    w.u32(static_cast<uint32_t>(img.checkpoints.size()));
    for (const CheckpointMeta &cp : img.checkpoints) {
        w.u64(cp.time);
        w.u64(cp.appInsts);
    }
    w.u32(static_cast<uint32_t>(img.toolDigests.size()));
    for (const ToolDigest &td : img.toolDigests) {
        w.str(td.name);
        w.u64(td.digest);
    }

    w.u64(fnv64(w.bytes.data(), w.bytes.size()));
    return w.bytes;
}

ImageErr
decodeImage(const uint8_t *data, size_t n, SessionImage &out,
            std::string *detail)
{
    auto fail = [&](ImageErr err, const std::string &why) {
        if (detail)
            *detail = why;
        return err;
    };

    if (n < sizeof kMagic + 4 + 8)
        return fail(ImageErr::Truncated,
                    "file smaller than the fixed frame");
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0)
        return fail(ImageErr::BadMagic, "magic mismatch");

    // The checksum covers everything before it; verify it before
    // trusting any field beyond the magic.
    uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<uint64_t>(data[n - 8 + i]) << (8 * i);
    if (fnv64(data, n - 8) != stored)
        return fail(ImageErr::BadChecksum, "checksum mismatch");

    Reader r(data + sizeof kMagic, n - sizeof kMagic - 8);
    uint32_t version = r.u32();
    if (version != kImageVersion)
        return fail(ImageErr::BadVersion,
                    "format version " + std::to_string(version) +
                        " (this build reads " +
                        std::to_string(kImageVersion) + ")");

    out = SessionImage{};
    out.id = r.u64();
    out.workload = r.str();
    out.backend = r.enum8<BackendKind>(
        static_cast<uint8_t>(BackendKind::Rewrite), "backend");
    out.attached = r.u8() != 0;
    out.hasTravel = r.u8() != 0;

    uint32_t nw = r.count(30, "watch list");
    out.watches.resize(r.ok() ? nw : 0);
    for (WatchSpec &s : out.watches) {
        s.kind = r.enum8<WatchKind>(
            static_cast<uint8_t>(WatchKind::Range), "watch kind");
        s.name = r.str();
        s.addr = r.u64();
        s.size = r.u32();
        s.length = r.u64();
        s.conditional = r.u8() != 0;
        s.predConst = r.u64();
        if (const char *why = specLimitError(s))
            r.fail(why);
    }
    uint32_t nb = r.count(33, "break list");
    out.breaks.resize(r.ok() ? nb : 0);
    for (BreakSpec &s : out.breaks) {
        s.pc = r.u64();
        s.name = r.str();
        s.conditional = r.u8() != 0;
        s.condAddr = r.u64();
        s.condSize = r.u32();
        s.condConst = r.u64();
        if (const char *why = specLimitError(s))
            r.fail(why);
    }
    uint32_t nmw = r.count(4, "muted watch list");
    out.mutedWatches.resize(r.ok() ? nmw : 0);
    for (int32_t &i : out.mutedWatches)
        i = r.i32();
    uint32_t nmb = r.count(4, "muted break list");
    out.mutedBreaks.resize(r.ok() ? nmb : 0);
    for (int32_t &i : out.mutedBreaks)
        i = r.i32();
    // Resurrection indexes the spec lists with the install record.
    for (auto [list, specs] : {std::pair{&out.installedWatches,
                                         out.watches.size()},
                               std::pair{&out.installedBreaks,
                                         out.breaks.size()}}) {
        list->resize(r.ok() ? r.count(4, "install record") : 0);
        for (size_t k = 0; k < list->size(); ++k) {
            int32_t i = (*list)[k] = r.i32();
            if (r.ok() && (i < (k ? (*list)[k - 1] + 1 : 0) ||
                           static_cast<size_t>(i) >= specs))
                r.fail("install record index out of order or range");
        }
    }
    uint32_t np = r.count(25, "poke list");
    out.pokes.resize(r.ok() ? np : 0);
    for (SessionImage::Poke &p : out.pokes) {
        p.isReg = r.u8() != 0;
        p.reg = r.u32();
        p.addr = r.u64();
        p.size = r.u32();
        p.value = r.u64();
        if (r.ok() && p.isReg && p.reg >= DebugSession::NumSessionRegs)
            r.fail("poke register out of range");
        if (r.ok() && !isAccessSize(p.size))
            r.fail("poke size not 1, 2, 4 or 8");
    }

    out.seed = r.u64();
    out.programName = r.str();
    uint32_t ni = r.count(60, "intervention journal");
    out.interventions.resize(r.ok() ? ni : 0);
    for (Intervention &iv : out.interventions) {
        iv.kind = r.enum8<InterventionKind>(
            static_cast<uint8_t>(InterventionKind::ToolDisable),
            "intervention kind");
        iv.time = r.u64();
        iv.appInsts = r.u64();
        iv.atEventPark = r.u8() != 0;
        iv.addr = r.u64();
        iv.size = r.u32();
        iv.value = r.u64();
        iv.reg = r.regId();
        if (r.ok() && iv.kind == InterventionKind::PokeMemory &&
            !isAccessSize(iv.size))
            r.fail("memory poke size not 1, 2, 4 or 8");
        if (!getProduction(r, iv.production))
            break;
        iv.engineId = r.u32();
        iv.addIndex = r.i32();
        iv.slot = r.i32();
        iv.toolName = r.str();
        uint32_t ntc = r.count(8, "tool config");
        iv.toolConfig.resize(r.ok() ? ntc : 0);
        for (auto &kv : iv.toolConfig) {
            kv.first = r.str();
            kv.second = r.str();
        }
        uint32_t nts = r.count(4, "tool slot list");
        iv.toolSlots.resize(r.ok() ? nts : 0);
        for (int &s : iv.toolSlots)
            s = r.i32();
    }
    uint32_t nm = r.count(29, "event timeline");
    out.marks.resize(r.ok() ? nm : 0);
    for (EventMark &mk : out.marks) {
        mk.kind = r.enum8<EventKind>(
            static_cast<uint8_t>(EventKind::Protection), "event kind");
        mk.index = r.i32();
        mk.time = r.u64();
        mk.appInsts = r.u64();
        mk.pc = r.u64();
    }

    out.time = r.u64();
    out.appInsts = r.u64();
    out.digest = r.u64();
    uint32_t nc = r.count(16, "checkpoint chain");
    out.checkpoints.resize(r.ok() ? nc : 0);
    for (CheckpointMeta &cp : out.checkpoints) {
        cp.time = r.u64();
        cp.appInsts = r.u64();
    }
    uint32_t ntd = r.count(12, "tool digest list");
    out.toolDigests.resize(r.ok() ? ntd : 0);
    for (ToolDigest &td : out.toolDigests) {
        td.name = r.str();
        td.digest = r.u64();
    }

    if (!r.ok())
        return fail(r.truncated() ? ImageErr::Truncated
                                  : ImageErr::Malformed,
                    r.what());
    if (r.remaining() != 0)
        return fail(ImageErr::Malformed,
                    std::to_string(r.remaining()) +
                        " trailing bytes after the payload");
    if (out.attached && !out.hasTravel) {
        // Attached, never resumed: the session sits at time zero.
        out.hasTravel = true;
        out.time = out.appInsts = 0;
        out.checkpoints = {{0, 0}};
    }
    return ImageErr::None;
}

} // namespace dise::persist
