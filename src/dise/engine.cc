#include "dise/engine.hh"

#include <bit>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dise {

size_t
DiseEngine::ExpKeyHash::operator()(const ExpKey &k) const
{
    const Inst &t = k.trigger;
    uint64_t h = k.id;
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t.op);
    auto mixReg = [&](RegId r) {
        h = h * 0x9e3779b97f4a7c15ULL +
            ((static_cast<uint64_t>(r.kind) << 8) | r.idx);
    };
    mixReg(t.ra);
    mixReg(t.rb);
    mixReg(t.rc);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t.imm);
    return static_cast<size_t>(h ^ (h >> 32));
}

DiseEngine::DiseEngine(const DiseEngineConfig &cfg)
    : cfg_(cfg), slots_(cfg.patternTableEntries), stats_("dise"),
      matchesStat_(stats_.counter("matches")),
      rtMissesStat_(stats_.counter("rt_misses"))
{
    indexable_ = cfg_.patternTableEntries <= MaxSlots;
    unsigned numLines = cfg_.replacementTableInsts / cfg_.replacementLineInsts;
    DISE_ASSERT(numLines % cfg_.replacementTableAssoc == 0,
                "replacement table geometry");
    rtLines_.resize(numLines);
}

void
DiseEngine::touchTable()
{
    ++generation_;
    ++tableVersion_;
    memo_.clear();
    rebuildIndex();
}

void
DiseEngine::rebuildIndex()
{
    if (!indexable_)
        return; // masks cannot cover the table; matchLinear serves it
    validMask_ = 0;
    genericMask_ = 0;
    byOpcode_.fill(0);
    byClass_.fill(0);
    pcAnchored_.clear();
    cwAnchored_.clear();

    for (size_t i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (!slot.valid)
            continue;
        SlotMask bit = SlotMask{1} << i;
        validMask_ |= bit;
        // File each production under its most selective anchor; lookup
        // unions the buckets an instruction could possibly hit.
        const Pattern &p = slot.prod.pattern;
        if (p.pc) {
            pcAnchored_[*p.pc] |= bit;
        } else if (p.codewordId) {
            cwAnchored_[*p.codewordId] |= bit;
        } else if (p.opcode) {
            byOpcode_[static_cast<unsigned>(*p.opcode)] |= bit;
        } else if (p.opclass) {
            byClass_[static_cast<unsigned>(*p.opclass)] |= bit;
        } else {
            genericMask_ |= bit;
        }
    }
}

ProductionId
DiseEngine::addProduction(Production p)
{
    for (auto &slot : slots_) {
        if (!slot.valid) {
            slot.valid = true;
            slot.id = nextId_++;
            slot.prod = std::move(p);
            touchTable();
            return slot.id;
        }
    }
    fatal("DISE pattern table full (", cfg_.patternTableEntries,
          " entries)");
}

int
DiseEngine::slotOf(ProductionId id) const
{
    for (size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].valid && slots_[i].id == id)
            return static_cast<int>(i);
    return -1;
}

ProductionId
DiseEngine::idAt(int slot) const
{
    if (slot < 0 || slot >= static_cast<int>(slots_.size()) ||
        !slots_[slot].valid)
        return 0;
    return slots_[slot].id;
}

ProductionId
DiseEngine::addProductionAt(Production p, int slot)
{
    DISE_ASSERT(slot >= 0 && slot < static_cast<int>(slots_.size()),
                "addProductionAt: bad slot ", slot);
    Slot &s = slots_[static_cast<size_t>(slot)];
    DISE_ASSERT(!s.valid, "addProductionAt: slot ", slot, " occupied");
    s.valid = true;
    s.id = nextId_++;
    s.prod = std::move(p);
    touchTable();
    return s.id;
}

void
DiseEngine::removeProduction(ProductionId id)
{
    for (auto &slot : slots_) {
        if (slot.valid && slot.id == id) {
            slot.valid = false;
            touchTable();
            return;
        }
    }
    warn("removeProduction: no production with id ", id);
}

void
DiseEngine::clear()
{
    for (auto &slot : slots_)
        slot.valid = false;
    touchTable();
}

size_t
DiseEngine::productionCount() const
{
    size_t n = 0;
    for (const auto &slot : slots_)
        n += slot.valid;
    return n;
}

const Production *
DiseEngine::production(ProductionId id) const
{
    for (const auto &slot : slots_)
        if (slot.valid && slot.id == id)
            return &slot.prod;
    return nullptr;
}

const Production *
DiseEngine::slotProduction(int slot) const
{
    DISE_ASSERT(slot >= 0 && static_cast<size_t>(slot) < slots_.size() &&
                    slots_[slot].valid,
                "bad pattern-table slot ", slot);
    return &slots_[slot].prod;
}

DiseEngine::SlotMask
DiseEngine::candidates(const Inst &inst, Addr pc) const
{
    SlotMask m = genericMask_ |
                 byOpcode_[static_cast<unsigned>(inst.op)] |
                 byClass_[static_cast<unsigned>(inst.cls())];
    if (!pcAnchored_.empty()) {
        auto it = pcAnchored_.find(pc);
        if (it != pcAnchored_.end())
            m |= it->second;
    }
    if (inst.op == Opcode::CODEWORD && !cwAnchored_.empty()) {
        auto it = cwAnchored_.find(inst.imm);
        if (it != cwAnchored_.end())
            m |= it->second;
    }
    return m;
}

int
DiseEngine::matchLinear(const Inst &inst, Addr pc) const
{
    int best = -1;
    unsigned bestSpec = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (!slot.valid || !slot.prod.pattern.matches(inst, pc))
            continue;
        unsigned spec = slot.prod.pattern.specificity();
        if (best < 0 || spec > bestSpec) {
            best = static_cast<int>(i);
            bestSpec = spec;
        }
    }
    return best;
}

int
DiseEngine::matchSlot(const Inst &inst, Addr pc) const
{
    if (!enabled_)
        return -1;
    if (!indexed_ || !indexable_)
        return matchLinear(inst, pc);
    if (!validMask_)
        return -1;
    // Ascending slot order preserves the linear scan's tie-break
    // (insertion order within the table; strictly-higher specificity
    // wins).
    int best = -1;
    unsigned bestSpec = 0;
    SlotMask m = candidates(inst, pc);
    while (m) {
        unsigned i = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        const Slot &slot = slots_[i];
        if (!slot.prod.pattern.matches(inst, pc))
            continue;
        unsigned spec = slot.prod.pattern.specificity();
        if (best < 0 || spec > bestSpec) {
            best = static_cast<int>(i);
            bestSpec = spec;
        }
    }
    return best;
}

const Production *
DiseEngine::matchFunctional(const Inst &inst, Addr pc) const
{
    int slot = matchSlot(inst, pc);
    return slot < 0 ? nullptr : &slots_[slot].prod;
}

unsigned
DiseEngine::rtTouch(ProductionId id, size_t seqLen)
{
    unsigned sets =
        rtLines_.size() / cfg_.replacementTableAssoc;
    unsigned linesNeeded =
        (seqLen + cfg_.replacementLineInsts - 1) / cfg_.replacementLineInsts;
    unsigned stall = 0;
    for (unsigned i = 0; i < linesNeeded; ++i) {
        ++rtClock_;
        uint64_t lineKey = (static_cast<uint64_t>(id) << 8) | i;
        unsigned set = lineKey % sets;
        RtLine *base = &rtLines_[set * cfg_.replacementTableAssoc];
        RtLine *victim = nullptr;
        bool hit = false;
        for (unsigned w = 0; w < cfg_.replacementTableAssoc; ++w) {
            RtLine &line = base[w];
            if (line.valid && line.tag == lineKey) {
                line.lastUse = rtClock_;
                hit = true;
                break;
            }
            if (!victim || !line.valid ||
                (victim->valid && line.lastUse < victim->lastUse)) {
                victim = &line;
            }
        }
        if (!hit) {
            ++*rtMissesStat_;
            stall += cfg_.replacementMissPenalty;
            victim->valid = true;
            victim->tag = lineKey;
            victim->lastUse = rtClock_;
        }
    }
    return stall;
}

MatchResult
DiseEngine::match(const Inst &inst, Addr pc)
{
    MatchResult res;
    int slot = matchSlot(inst, pc);
    if (slot < 0)
        return res;

    ++*matchesStat_;
    const Slot &s = slots_[slot];
    res.production = &s.prod;
    res.id = s.id;
    res.stallCycles = rtTouch(s.id, s.prod.replacement.size());
    return res;
}

std::vector<Inst>
DiseEngine::expand(const Production &prod, const Inst &trigger) const
{
    std::vector<Inst> out;
    out.reserve(prod.replacement.size());
    for (const auto &tmpl : prod.replacement)
        out.push_back(tmpl.instantiate(trigger));
    return out;
}

namespace {

Expansion
instantiateExpansion(const DiseEngine &engine, const Production &prod,
                     const Inst &trigger)
{
    Expansion e;
    e.insts = engine.expand(prod, trigger);
    e.triggerCopy.reserve(prod.replacement.size());
    for (const auto &tmpl : prod.replacement)
        e.triggerCopy.push_back(tmpl.triggerCopy);
    return e;
}

} // namespace

DiseEngine::ExpansionRef
DiseEngine::expandCached(int slot, const Inst &trigger)
{
    const Production &prod = *slotProduction(slot);
    ExpKey key{slots_[slot].id, trigger};
    auto it = memo_.find(key);
    if (it != memo_.end())
        return it->second;
    if (memo_.size() >= ExpansionMemoEntries)
        memo_.clear();
    auto seq = std::make_shared<const Expansion>(
        instantiateExpansion(*this, prod, trigger));
    memo_.emplace(std::move(key), seq);
    return seq;
}

} // namespace dise
