#include "session/protocol.hh"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/hex.hh"

namespace dise {

namespace {

// ------------------------------------------------------------- tokens

/** An enum's wire tokens, indexed by value (every protocol enum is a
 *  uint8_t counting from 0), and the decode error for a token outside
 *  the set ("%s" stands for the token). */
struct TokenSet
{
    std::initializer_list<const char *> names;
    const char *err;
};

template <typename E> constexpr TokenSet kTokens{};
template <>
constexpr TokenSet kTokens<RequestKind>{
    {"ping", "select-backend", "set-watch", "set-break", "remove-watch",
     "remove-break", "attach", "cont", "stepi", "run-to-end",
     "reverse-continue", "reverse-step", "run-to-event", "read-registers",
     "write-register", "read-memory", "write-memory", "stats", "detach",
     "replay-verify", "session-create", "session-select", "session-destroy",
     "session-list", "server-stats", "subscribe", "unsubscribe",
     "session-hibernate", "session-persist", "store-stats", "trace-start",
     "trace-stop", "trace-dump", "metrics", "tool-enable", "tool-disable",
     "tool-list", "tool-report"},
    "unknown request '%s'"};
static_assert(kTokens<RequestKind>.names.size() ==
              size_t(RequestKind::ToolReport) + 1);
template <>
constexpr TokenSet kTokens<BackendKind>{
    {"dise", "single-step", "vm", "hwreg", "rewrite"},
    "unknown backend '%s'"};
template <>
constexpr TokenSet kTokens<WatchKind>{{"scalar", "indirect", "range"},
                                      "bad watch kind '%s'"};
template <>
constexpr TokenSet kTokens<StopReason>{
    {"start", "event", "step", "halted", "fault", "inst-limit"},
    "bad stop reason"};
template <>
constexpr TokenSet kTokens<EventKind>{{"watch", "break", "protection"},
                                      "bad mark kind '%s'"};
template <>
constexpr TokenSet kTokens<SessionEventKind>{
    {"watch", "break", "protection", "checkpoint", "restore", "attached",
     "halted", "subscriber-dropped", "tool-finding"},
    "unknown event kind '%s'"};
static_assert(kTokens<SessionEventKind>.names.size() ==
              size_t(SessionEventKind::ToolFinding) + 1);
template <>
constexpr TokenSet kTokens<ResponseStatus>{{"ok", "error", "unsupported"},
                                           "unknown response verb '%s'"};

template <typename E>
const char *
tokenName(E e)
{
    const TokenSet &set = kTokens<E>;
    size_t v = static_cast<size_t>(e);
    return v < set.names.size() ? set.names.begin()[v] : "?";
}

template <typename E>
bool
tokenValue(std::string_view name, E &e)
{
    const TokenSet &set = kTokens<E>;
    for (size_t i = 0; i < set.names.size(); ++i) {
        if (name == set.names.begin()[i]) {
            e = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------- strings, numbers

/** The token separators: the whitespace isspace() knows. */
constexpr std::string_view kSpaces = " \t\n\v\f\r";

void
escapeInto(std::string &out, const std::string &s)
{
    static constexpr char digits[] = "0123456789abcdef";
    for (char c : s) {
        // Separators, '%' and '=' are escaped, or encode/decode would
        // not round-trip.
        unsigned char u = static_cast<unsigned char>(c);
        if (kSpaces.find(c) != std::string_view::npos || c == '%' ||
            c == '=')
            out += {'%', digits[u >> 4], digits[u & 15]};
        else
            out += c;
    }
}

bool
unescape(std::string_view s, std::string &out)
{
    out.clear();
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        int hi = hexNibble(s[i + 1]), lo = hexNibble(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
    }
    return true;
}

/** Reads @p s as strtoull/strtoll read it in @p base (0: decimal, 0x
 *  hex, leading-zero octal; an optional sign), except that the number
 *  must be the whole token and its magnitude must fit 64 bits. */
bool
parseNumber(std::string_view s, int base, bool &neg, uint64_t &mag)
{
    neg = !s.empty() && s[0] == '-';
    if (!s.empty() && (s[0] == '+' || s[0] == '-'))
        s.remove_prefix(1);
    if (s.size() > 1 && s[0] == '0' && (s[1] | 0x20) == 'x' &&
        base % 16 == 0) {
        base = 16;
        s.remove_prefix(2);
    } else if (base == 0) {
        base = s.size() > 1 && s[0] == '0' ? 8 : 10;
    }
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), mag,
                                     base);
    return !s.empty() && ec == std::errc() && end == s.data() + s.size();
}

bool
parseUnsigned(std::string_view s, int base, uint64_t &v)
{
    bool neg = false;
    return parseNumber(s, base, neg, v) && !neg;
}

void
putNumber(std::string &out, uint64_t v, int base)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v, base).ptr);
}

// ------------------------------------------------------------ field rows

/** Row flags: how encode writes a row, and what decode demands of it
 *  (an empty value counts as a missing key). */
constexpr uint8_t Hex = 1;      ///< 0x-hex scalars, bare hex list items
constexpr uint8_t IfSet = 2;    ///< emit only a nonzero, non-empty value
constexpr uint8_t NonNeg = 4;   ///< emit only a value >= 0
constexpr uint8_t NotOne = 8;   ///< emit only a value != 1
constexpr uint8_t Required = 16; ///< decode fails on a missing key
constexpr uint8_t Zero = 32;    ///< a missing key decodes as 0
constexpr uint8_t AnyToken = 64; ///< an unknown token keeps the default

/** One prefix.<name>=<list> key family: a key per element of a vector
 *  member, the element's name after the prefix, its fields
 *  ':'-separated in the value. */
struct Family
{
    const char *err; ///< decode error for any malformed key
    void (*put)(std::string &out, const char *prefix, const void *vec);
    bool (*add)(void *vec, std::string_view name, std::string_view list);
};

template <typename E> constexpr const Family *kFamily = nullptr;

template <typename T>
void
putAs(std::string &out, const void *p, bool hex)
{
    const T &v = *static_cast<const T *>(p);
    if constexpr (std::is_enum_v<T>) {
        out += tokenName(v);
    } else if constexpr (std::is_same_v<T, bool>) {
        out += v ? '1' : '0';
    } else if constexpr (std::is_signed_v<T>) {
        out += v < 0 ? "-" : "";
        putNumber(out, v < 0 ? 0 - uint64_t(v) : uint64_t(v), 10);
    } else if constexpr (std::is_integral_v<T>) {
        out += hex ? "0x" : "";
        putNumber(out, v, hex ? 16 : 10);
    } else if constexpr (std::is_same_v<T, std::string>) {
        escapeInto(out, v);
    } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
        out += bytesToHex(v);
    } else {
        for (size_t i = 0; i < v.size(); ++i) {
            out += i ? "," : "";
            putNumber(out, v[i], hex ? 16 : 10);
        }
    }
}

/** Parses @p s into the member at @p p: false when it does not parse
 *  or does not fit. Scalars read in @p base (0: as strtoull does); list
 *  items in hex or decimal. */
template <typename T>
bool
getAs(std::string_view s, void *p, bool hex, int base)
{
    T &v = *static_cast<T *>(p);
    if constexpr (std::is_enum_v<T>) {
        return tokenValue(s, v);
    } else if constexpr (std::is_integral_v<T>) {
        // The value must fit the member: no sign on an unsigned one.
        using L = std::numeric_limits<T>;
        bool neg = false;
        uint64_t mag = 0;
        if (!parseNumber(s, base, neg, mag) || (neg && !L::is_signed) ||
            mag > uint64_t(L::max()) + neg)
            return false;
        v = static_cast<T>(neg ? 0 - mag : mag);
        return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
        return unescape(s, v);
    } else {
        std::string text;
        if (!unescape(s, text))
            return false;
        if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
            return hexToBytes(text, v);
        } else {
            v.clear();
            uint64_t x = 0;
            for (std::string_view rest = text; !rest.empty();) {
                size_t comma = std::min(rest.find(','), rest.size());
                if (!parseUnsigned(rest.substr(0, comma), hex ? 16 : 10, x))
                    return false;
                v.push_back(x);
                rest.remove_prefix(std::min(comma + 1, rest.size()));
            }
            return true;
        }
    }
}

template <typename T> struct ElementOf { using type = void; };
template <typename E> struct ElementOf<std::vector<E>> { using type = E; };

/** One key: the member of an S it reads and writes, how, and when. */
template <typename S>
struct Row
{
    const char *key; ///< "" for the verb; for a family, the key prefix
    void *(*ref)(S &);
    void (*put)(std::string &out, const void *p, bool hex);
    bool (*get)(std::string_view s, void *p, bool hex, int base);
    const Family *family; ///< a vector of family elements
    uint8_t flags;
    /** Decode error when the value is bad, or required and missing
     *  (default: an enum's token error; "%s" stands for the value). */
    const char *err;
};

/** The row for the member reached from an S through @p Path. */
template <typename S, auto... Path>
constexpr Row<S>
at(const char *key = "", uint8_t flags = 0, const char *err = nullptr)
{
    using T = std::remove_reference_t<decltype(
        (std::declval<S &>().*....*Path))>;
    using E = typename ElementOf<T>::type;
    auto ref = [](S &s) -> void * { return &(s.*....*Path); };
    if constexpr (std::is_class_v<E>)
        return {key, ref, nullptr, nullptr, kFamily<E>, flags, err};
    else
        return {key, ref, &putAs<T>, &getAs<T>, nullptr, flags,
                err ? err : kTokens<T>.err};
}

template <typename S>
using Rows = std::type_identity_t<std::span<const Row<S>>>;

/** Whether a row whose value encodes as @p v is emitted. */
bool
emits(uint8_t flags, std::string_view v)
{
    return !((flags & IfSet && (v.empty() || v == "0" || v == "0x0")) ||
             (flags & NonNeg && v[0] == '-') || (flags & NotOne && v == "1"));
}

// ------------------------------------------------------------ families

/** A family over vector<E>: Name names each element after the prefix (a
 *  string verbatim, or a decimal number), Fields are the list in order.
 *  The last field takes the rest of the list; numbers are decimal. */
template <typename E, auto Name, const auto &Fields>
constexpr Family
familyOf(const char *err)
{
    using NameT = std::remove_cvref_t<decltype(std::declval<E &>().*Name)>;
    return {
        err,
        [](std::string &out, const char *prefix, const void *vec) {
            for (const E &c : *static_cast<const std::vector<E> *>(vec)) {
                E &e = const_cast<E &>(c);
                out += ' ';
                out += prefix;
                if constexpr (std::is_same_v<NameT, std::string>)
                    out += e.*Name;
                else
                    putNumber(out, e.*Name, 10);
                for (size_t i = 0; i < std::size(Fields); ++i) {
                    out += i ? ':' : '=';
                    Fields[i].put(out, Fields[i].ref(e), false);
                }
            }
        },
        [](void *vec, std::string_view name, std::string_view list) {
            E e;
            if (name.empty())
                return false;
            if constexpr (std::is_same_v<NameT, std::string>)
                e.*Name = name;
            else if (!parseUnsigned(name, 10, e.*Name))
                return false;
            for (size_t i = 0; i < std::size(Fields); ++i) {
                size_t end = i + 1 == std::size(Fields) ? list.size()
                                                        : list.find(':');
                if (end == std::string_view::npos ||
                    !Fields[i].get(list.substr(0, end), Fields[i].ref(e),
                                   false, 10))
                    return false;
                list.remove_prefix(std::min(end + 1, list.size()));
            }
            static_cast<std::vector<E> *>(vec)->push_back(std::move(e));
            return true;
        }};
}

using Hist = HistogramSnapshot;
using Tool = tools::ToolStatsRow;
using Cfg = std::pair<std::string, std::string>;

constexpr Row<Hist> kHistFields[] = {
    at<Hist, &Hist::count>(), at<Hist, &Hist::sum>(),
    at<Hist, &Hist::buckets>()};
constexpr Row<Tool> kToolFields[] = {
    at<Tool, &Tool::uopsSeen>(), at<Tool, &Tool::checks>(),
    at<Tool, &Tool::suppressed>(), at<Tool, &Tool::findings>()};
constexpr Row<Cfg> kCfgFields[] = {at<Cfg, &Cfg::second>()};

constexpr Family kHists = familyOf<Hist, &Hist::name, kHistFields>(
    "bad histogram encoding");
constexpr Family kTools = familyOf<Tool, &Tool::name, kToolFields>(
    "bad tool-stats encoding");
constexpr Family kCfgs = familyOf<Cfg, &Cfg::first, kCfgFields>(
    "bad tool configuration key");
template <> constexpr const Family *kFamily<Hist> = &kHists;
template <> constexpr const Family *kFamily<Tool> = &kTools;
template <> constexpr const Family *kFamily<Cfg> = &kCfgs;

// ---------------------------------------------------------- the rows

using Q = Request;
using WS = WatchSpec;
using BS = BreakSpec;
constexpr auto W = &Request::watch;
constexpr auto B = &Request::brk;

constexpr Row<Q> kHeadRows[] = {at<Q, &Q::kind>("", Required),
                                at<Q, &Q::seq>("seq")};
constexpr Row<Q> kSelectBackendRows[] = {
    at<Q, &Q::backend>("backend", Required)};
constexpr Row<Q> kSetWatchRows[] = {
    at<Q, W, &WS::kind>("wkind", Required),
    at<Q, W, &WS::name>("name"),
    at<Q, W, &WS::addr>("addr", Hex | Required, "set-watch needs addr="),
    at<Q, W, &WS::size>("size"),
    at<Q, W, &WS::length>("length"),
    at<Q, W, &WS::conditional>("cond"),
    at<Q, W, &WS::predConst>("pred", Hex)};
constexpr Row<Q> kSetBreakRows[] = {
    at<Q, B, &BS::pc>("pc", Hex | Required, "set-break needs pc="),
    at<Q, B, &BS::name>("name"),
    at<Q, B, &BS::conditional>("cond"),
    at<Q, B, &BS::condAddr>("caddr", Hex),
    at<Q, B, &BS::condSize>("csize"),
    at<Q, B, &BS::condConst>("cconst", Hex)};
constexpr Row<Q> kRemoveRows[] = {
    at<Q, &Q::index>("index", Required, "remove needs index=")};
constexpr Row<Q> kCountRows[] = {at<Q, &Q::count>("count")};
constexpr Row<Q> kMemoryRows[] = {
    at<Q, &Q::addr>("addr", Hex | Required, "memory access needs addr="),
    at<Q, &Q::size>("size"), at<Q, &Q::value>("value", Hex)};
constexpr Row<Q> kWriteRegisterRows[] = {
    at<Q, &Q::reg>("reg", Required, "write-register needs reg="),
    at<Q, &Q::value>("value", Hex | Required, "write-register needs value=")};
constexpr Row<Q> kSessionCreateRows[] = {
    at<Q, &Q::name>("name"), at<Q, &Q::backend>("backend")};
constexpr Row<Q> kSessionRows[] = {
    at<Q, &Q::session>("session", Required, "session verb needs session=")};
constexpr Row<Q> kOptionalSessionRows[] = {
    at<Q, &Q::session>("session", IfSet)};
constexpr Row<Q> kTraceStartRows[] = {
    at<Q, &Q::count>("count", NotOne | Zero)};
constexpr Row<Q> kTraceDumpRows[] = {at<Q, &Q::count>("count", Zero),
                                     at<Q, &Q::value>("value")};
constexpr Row<Q> kToolEnableRows[] = {
    at<Q, &Q::name>("name", Required, "tool verb needs name="),
    at<Q, &Q::toolConfig>("cfg."), at<Q, &Q::session>("session", IfSet)};
constexpr Row<Q> kToolRows[] = {
    at<Q, &Q::name>("name", Required, "tool verb needs name="),
    at<Q, &Q::session>("session", IfSet)};

/** Each verb's rows after seq=; verbs not listed carry none. */
using K = RequestKind;
constexpr std::pair<K, std::span<const Row<Q>>> kVerbRows[] = {
    {K::SelectBackend, kSelectBackendRows}, {K::SetWatch, kSetWatchRows},
    {K::SetBreak, kSetBreakRows}, {K::RemoveWatch, kRemoveRows},
    {K::RemoveBreak, kRemoveRows}, {K::Stepi, kCountRows},
    {K::ReverseStep, kCountRows}, {K::RunToEvent, kCountRows},
    {K::ReplayVerify, kCountRows},
    {K::ReadMemory, std::span(kMemoryRows).first(2)},
    {K::WriteMemory, kMemoryRows}, {K::WriteRegister, kWriteRegisterRows},
    {K::SessionCreate, kSessionCreateRows}, {K::SessionSelect, kSessionRows},
    {K::SessionDestroy, kSessionRows},
    {K::SessionHibernate, kOptionalSessionRows},
    {K::SessionPersist, kOptionalSessionRows},
    {K::ToolList, kOptionalSessionRows}, {K::TraceStart, kTraceStartRows},
    {K::TraceDump, kTraceDumpRows}, {K::ToolEnable, kToolEnableRows},
    {K::ToolDisable, kToolRows}, {K::ToolReport, kToolRows}};

std::span<const Row<Q>>
verbRows(RequestKind kind)
{
    for (const auto &[k, rows] : kVerbRows)
        if (k == kind)
            return rows;
    return {};
}

using R = Response;
constexpr Row<R> kReplyHeadRows[] = {
    at<R, &R::status>("", Required), at<R, &R::seq>("seq"),
    // A reply to a verb this side does not know still decodes.
    at<R, &R::inReplyTo>("re", AnyToken), at<R, &R::error>("msg", IfSet),
    at<R, &R::index>("index", NonNeg), at<R, &R::hasStop>("stop", IfSet)};
constexpr Row<R> kReplyBodyRows[] = {
    at<R, &R::regs>("regs", Hex | IfSet, "bad register list"),
    at<R, &R::bytes>("bytes", IfSet, "bad byte string"),
    at<R, &R::value>("value", Hex | IfSet), at<R, &R::text>("text", IfSet)};

using SI = StopInfo;
constexpr Row<SI> kStopRows[] = {
    at<SI, &SI::reason>("sreason", Required),
    at<SI, &SI::eventIndex>("sevent"), at<SI, &SI::time>("stime"),
    at<SI, &SI::appInsts>("sinsts"), at<SI, &SI::pc>("spc", Hex)};
constexpr Row<SI> kMarkRows[] = {
    at<SI, &SI::mark, &EventMark::kind>("skind"),
    at<SI, &SI::mark, &EventMark::index>("sindex"),
    at<SI, &SI::mark, &EventMark::pc>("smarkpc", Hex)};

using SS = SessionStats;
constexpr Row<SS> kSessionStatsRows[] = {
    at<SS, &SS::time>("st.time"), at<SS, &SS::appInsts>("st.insts"),
    at<SS, &SS::events>("st.events"), at<SS, &SS::checkpoints>("st.cps"),
    at<SS, &SS::pagesCopied>("st.pages"), at<SS, &SS::restores>("st.restores"),
    at<SS, &SS::replayedUops>("st.replayed"),
    at<SS, &SS::historyBytes>("st.hbytes"), at<SS, &SS::jitUops>("st.juops"),
    at<SS, &SS::jitExits>("st.jexits")};

using SV = ServerStats;
constexpr Row<SV> kServerStatsRows[] = {
    at<SV, &SV::activeSessions>("sv.active"),
    at<SV, &SV::peakSessions>("sv.peak"), at<SV, &SV::created>("sv.created"),
    at<SV, &SV::destroyed>("sv.destroyed"),
    at<SV, &SV::rejected>("sv.rejected"), at<SV, &SV::maxSessions>("sv.max"),
    at<SV, &SV::workers>("sv.workers"), at<SV, &SV::slices>("sv.slices"),
    at<SV, &SV::jobs>("sv.jobs"), at<SV, &SV::totalUops>("sv.uops"),
    at<SV, &SV::totalAppInsts>("sv.insts"),
    at<SV, &SV::totalEvents>("sv.events"),
    at<SV, &SV::eventsPushed>("sv.pushed"),
    at<SV, &SV::subscribers>("sv.subs"), at<SV, &SV::dropped>("sv.dropped"),
    at<SV, &SV::hibernated>("sv.hibernated"),
    at<SV, &SV::evictions>("sv.evictions"),
    at<SV, &SV::resurrections>("sv.resurrections"),
    at<SV, &SV::quarantined>("sv.quarantined"),
    at<SV, &SV::faultsInjected>("sv.faults"), at<SV, &SV::hists>("hist."),
    at<SV, &SV::tools>("tool.")};

using PS = StoreStats;
constexpr Row<PS> kStoreStatsRows[] = {
    at<PS, &PS::images>("ps.images"), at<PS, &PS::bytes>("ps.bytes"),
    at<PS, &PS::puts>("ps.puts"), at<PS, &PS::loads>("ps.loads"),
    at<PS, &PS::erases>("ps.erases"),
    at<PS, &PS::quarantined>("ps.quarantined"),
    at<PS, &PS::orphansRemoved>("ps.orphans")};

using EV = SessionEvent;
constexpr Row<EV> kEventRows[] = {
    at<EV, &EV::kind>("kind", Required), at<EV, &EV::seq>("seq"),
    at<EV, &EV::time>("time"), at<EV, &EV::appInsts>("insts"),
    at<EV, &EV::pc>("pc", Hex), at<EV, &EV::index>("index"),
    at<EV, &EV::addr>("addr", Hex), at<EV, &EV::oldValue>("old", Hex),
    at<EV, &EV::newValue>("new", Hex), at<EV, &EV::value>("value"),
    at<EV, &EV::tool>("tool", IfSet), at<EV, &EV::detail>("detail", IfSet)};

// -------------------------------------------------- line writer/reader

/** Emits rows as "key=value" tokens on one line ("" key: the verb). */
struct Writer
{
    std::string line;

    template <typename S>
    bool
    rows(const S &s, Rows<S> rows)
    {
        for (const Row<S> &row : rows) {
            const void *p = row.ref(const_cast<S &>(s));
            if (row.family) {
                row.family->put(line, row.key, p);
                continue;
            }
            size_t start = line.size();
            if (*row.key) {
                line += ' ';
                line += row.key;
                line += '=';
            }
            size_t value = line.size();
            row.put(line, p, row.flags & Hex);
            if (!emits(row.flags, std::string_view(line).substr(value)))
                line.resize(start);
        }
        return true;
    }
};

/** A parsed "verb key=value ..." line that fills members from rows (the
 *  verb under the "" key). Unknown keys are ignored, so the encoding
 *  can grow; a repeated key's last value wins. */
class Reader
{
  public:
    explicit Reader(std::string *err) : err_(err) {}

    bool
    parse(std::string_view line)
    {
        for (size_t b = line.find_first_not_of(kSpaces), e = 0;
             b != std::string_view::npos;
             b = line.find_first_not_of(kSpaces, e)) {
            e = std::min(line.find_first_of(kSpaces, b), line.size());
            std::string_view tok = line.substr(b, e - b);
            // The first token, the verb, goes under the empty key.
            size_t eq = kv_.empty() ? 0 : tok.find('=');
            if (!kv_.empty() && (eq == std::string_view::npos || eq == 0))
                return fail("malformed token '" + std::string(tok) + "'");
            size_t value = kv_.empty() ? 0 : eq + 1;
            kv_.push_back({tok.substr(0, eq), tok.substr(value), kv_.size()});
        }
        if (kv_.empty())
            return fail("empty line");
        std::sort(kv_.begin(), kv_.end(), [](const KV &a, const KV &b) {
            return a.key != b.key ? a.key < b.key : a.pos < b.pos;
        });
        return true;
    }

    std::string_view verb() const { return find("")->value; }

    template <typename S>
    bool
    rows(S &s, Rows<S> rows)
    {
        for (const Row<S> &row : rows) {
            void *p = row.ref(s);
            if (row.family) {
                if (!family(*row.family, row.key, p))
                    return false;
                continue;
            }
            const KV *kv = find(row.key);
            std::string_view v = kv ? kv->value : std::string_view();
            if (v.empty()) {
                if (row.flags & Zero)
                    row.get("0", p, false, 0);
                if (!(row.flags & Required))
                    continue;
            } else if (row.get(v, p, row.flags & Hex, 0) ||
                       row.flags & AnyToken) {
                continue;
            }
            std::string msg = row.err ? row.err
                                      : "bad value '%s' for " +
                                            std::string(row.key) + "=";
            size_t at = msg.find("%s");
            return fail(at == std::string::npos ? msg
                                                : msg.replace(at, 2, v));
        }
        return true;
    }

    bool
    fail(const std::string &msg)
    {
        if (err_)
            *err_ = msg;
        return false;
    }

  private:
    struct KV
    {
        std::string_view key, value;
        size_t pos;
    };

    const KV *
    find(std::string_view key) const
    {
        auto it = std::upper_bound(
            kv_.begin(), kv_.end(), key,
            [](std::string_view k, const KV &kv) { return k < kv.key; });
        return it != kv_.begin() && (it - 1)->key == key ? &*(it - 1)
                                                         : nullptr;
    }

    /** Every prefix.<name> key, in key order. */
    bool
    family(const Family &f, std::string_view prefix, void *vec)
    {
        auto it = std::lower_bound(
            kv_.begin(), kv_.end(), prefix,
            [](const KV &kv, std::string_view k) { return kv.key < k; });
        for (; it != kv_.end() && it->key.starts_with(prefix); ++it) {
            if (it + 1 != kv_.end() && (it + 1)->key == it->key)
                continue; // a later duplicate wins
            if (!f.add(vec, it->key.substr(prefix.size()), it->value))
                return fail(f.err);
        }
        return true;
    }

    std::string *err_;
    std::vector<KV> kv_;
};

/** The response layout, shared by encode and decode: head, stop and
 *  its mark, payloads, the stats block of the verb replied to. Decode
 *  reads each gate (hasStop, eventIndex, inReplyTo) after
 *  the rows that set it. */
template <typename V, typename Resp>
bool
walkResponse(V &v, Resp &r)
{
    return v.rows(r, kReplyHeadRows) &&
           (!r.hasStop ||
            (v.rows(r.stop, kStopRows) &&
             (r.stop.eventIndex < 0 || v.rows(r.stop, kMarkRows)))) &&
           v.rows(r, kReplyBodyRows) &&
           (r.inReplyTo != K::Stats || v.rows(r.stats, kSessionStatsRows)) &&
           (r.inReplyTo != K::ServerStats ||
            v.rows(r.server, kServerStatsRows)) &&
           (r.inReplyTo != K::StoreStats ||
            v.rows(r.store, kStoreStatsRows));
}

} // namespace

const char *
requestKindName(RequestKind kind)
{
    return tokenName(kind);
}

const char *
backendToken(BackendKind kind)
{
    return tokenName(kind);
}

bool
parseBackendToken(const std::string &token, BackendKind &kind)
{
    return tokenValue(token, kind);
}

const char *
sessionEventKindName(SessionEventKind kind)
{
    return tokenName(kind);
}

// ------------------------------------------------------------- codecs

std::string
encodeRequest(const Request &req)
{
    Writer w;
    w.rows(req, kHeadRows);
    w.rows(req, verbRows(req.kind));
    return w.line;
}

bool
decodeRequest(const std::string &line, Request &req, std::string *err)
{
    Reader r(err);
    req = Request{};
    return r.parse(line) && r.rows(req, kHeadRows) &&
           r.rows(req, verbRows(req.kind));
}

std::string
Request::describe() const
{
    return encodeRequest(*this);
}

std::string
encodeResponse(const Response &resp)
{
    Writer w;
    walkResponse(w, resp);
    return w.line;
}

bool
decodeResponse(const std::string &line, Response &resp, std::string *err)
{
    Reader r(err);
    resp = Response{};
    if (!r.parse(line) || !walkResponse(r, resp))
        return false;
    resp.stop.mark.time = resp.stop.time;
    resp.stop.mark.appInsts = resp.stop.appInsts;
    return true;
}

std::string
encodeEvent(const SessionEvent &ev)
{
    Writer w{"event"};
    w.rows(ev, kEventRows);
    return w.line;
}

bool
decodeEvent(const std::string &line, SessionEvent &ev, std::string *err)
{
    Reader r(err);
    ev = SessionEvent{};
    return r.parse(line) &&
           (r.verb() == "event" || r.fail("not an event line")) &&
           r.rows(ev, kEventRows);
}

// ------------------------------------------------------------ describe

std::string
Response::describe() const
{
    std::ostringstream os;
    os << tokenName(status) << " [" << requestKindName(inReplyTo) << "]";
    if (!error.empty())
        os << ": " << error;
    if (index >= 0)
        os << " index=" << index;
    if (hasStop)
        os << " — " << stop.describe();
    if (!regs.empty())
        os << " (" << regs.size() << " registers)";
    if (!bytes.empty())
        os << " (" << bytes.size() << " bytes)";
    if (inReplyTo == RequestKind::Stats)
        os << " t=" << stats.time << " insts=" << stats.appInsts
           << " events=" << stats.events << " checkpoints="
           << stats.checkpoints << " pagesCopied=" << stats.pagesCopied
           << " restores=" << stats.restores
           << " historyBytes=" << stats.historyBytes
           << " tracedUops=" << stats.jitUops
           << " sideExits=" << stats.jitExits;
    if (inReplyTo == RequestKind::ServerStats)
        os << " sessions=" << server.activeSessions << " (peak "
           << server.peakSessions << ", cap " << server.maxSessions
           << ") created=" << server.created << " rejected="
           << server.rejected << " slices=" << server.slices
           << " uops=" << server.totalUops;
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const Response &resp)
{
    return os << resp.describe();
}

std::string
SessionEvent::describe() const
{
    std::ostringstream os;
    os << "[" << seq << "] ";
    switch (kind) {
      case SessionEventKind::Watch:
        os << "watchpoint " << index << " hit: *0x" << std::hex << addr
           << " = 0x" << oldValue << " -> 0x" << newValue
           << " (store pc 0x" << pc << std::dec << ")";
        break;
      case SessionEventKind::Break:
        os << "breakpoint " << index << " hit at pc=0x" << std::hex << pc
           << std::dec;
        break;
      case SessionEventKind::Protection:
        os << "protection fault: pc=0x" << std::hex << pc << " addr=0x"
           << addr << std::dec;
        break;
      case SessionEventKind::Checkpoint:
        os << value << " checkpoint(s) taken";
        break;
      case SessionEventKind::Restore:
        os << "timeline restored (" << value << " page(s) rolled back)";
        break;
      case SessionEventKind::Attached:
        os << "attached; target loaded at pc=0x" << std::hex << pc
           << std::dec;
        break;
      case SessionEventKind::Halted:
        os << "target halted";
        break;
      case SessionEventKind::SubscriberDropped:
        os << "subscription dropped: the peer stopped draining events";
        break;
      case SessionEventKind::ToolFinding:
        os << "tool " << tool << ": " << detail << " pc=0x" << std::hex
           << pc << " addr=0x" << addr << " value=0x" << value
           << std::dec;
        break;
    }
    os << " @ t=" << time << ", " << appInsts << " insts";
    return os.str();
}

std::ostream &
operator<<(std::ostream &os, const SessionEvent &ev)
{
    return os << ev.describe();
}

} // namespace dise
