#include "core/constable.hh"

namespace constable {

ConstableEngine::ConstableEngine(const ConstableConfig& engine_cfg)
    : sld(engine_cfg.sld), rmt(engine_cfg.rmt), amt(engine_cfg.amt),
      xprf(engine_cfg.xprfEntries), cfg(engine_cfg)
{
}

bool
ConstableEngine::modeAllowed(AddrMode mode) const
{
    switch (mode) {
      case AddrMode::PcRel: return cfg.eliminatePcRel;
      case AddrMode::StackRel: return cfg.eliminateStackRel;
      case AddrMode::RegRel: return cfg.eliminateRegRel;
      default: return false;
    }
}

ElimDecision
ConstableEngine::renameLoad(PC pc, AddrMode mode)
{
    ElimDecision d;
    if (!cfg.enabled || !modeAllowed(mode))
        return d;
    SldLookup r = sld.lookup(pc);
    if (!r.hit)
        return d;
    if (r.canEliminate) {
        if (!xprf.tryAlloc()) {
            // No free xPRF register: execute normally (paper §6.3).
            ++xprfRejected;
            d.likelyStable = r.likelyStable;
            return d;
        }
        d.eliminate = true;
        d.addr = r.addr;
        d.value = r.value;
        ++eliminated;
        ++eliminatedByMode[static_cast<unsigned>(mode)];
        return d;
    }
    d.likelyStable = r.likelyStable;
    return d;
}

void
ConstableEngine::resetPcs(const std::vector<PC>& pcs)
{
    for (PC pc : pcs) {
        sld.resetCanEliminate(pc);
        // Drop all other monitoring of this PC so it is re-inserted fresh
        // on its next writeback (keeps RMT lists small, §6.7.1).
        rmt.removePc(pc);
    }
}

unsigned
ConstableEngine::renameDstWrite(uint8_t dst_reg)
{
    if (!cfg.enabled || dst_reg == kNoReg)
        return 0;
    rmt.drainOnWrite(dst_reg, drained_);
    resetPcs(drained_);
    return static_cast<unsigned>(drained_.size());
}

bool
ConstableEngine::writebackLoad(PC pc, Addr addr, uint64_t value,
                               bool likely_stable_marked,
                               const std::array<uint8_t, 3>& srcs)
{
    if (!cfg.enabled)
        return false;
    bool armed = sld.train(pc, addr, value, likely_stable_marked);
    if (!armed)
        return false;

    evicted_.clear();
    for (uint8_t s : srcs) {
        if (s != kNoReg)
            rmt.insert(s, pc, evicted_);
    }
    amt.insert(addr, pc, evicted_);
    resetPcs(evicted_);
    // The armed load itself may have been a victim of its own inserts'
    // capacity evictions: honor the reset.
    for (PC e : evicted_) {
        if (e == pc)
            return false;
    }
    return true;
}

void
ConstableEngine::storeOrSnoopAddr(Addr addr)
{
    if (!cfg.enabled)
        return;
    amt.invalidate(addr, drained_);
    if (drained_.empty())
        return;
    ++storeResets;
    resetPcs(drained_);
}

void
ConstableEngine::onEliminationViolation(PC pc)
{
    if (!cfg.enabled)
        return;
    sld.halveConfidence(pc);
    rmt.removePc(pc);
}

void
ConstableEngine::onL1Evict(Addr line)
{
    if (!cfg.enabled || cfg.cvBitPinning)
        return;
    // Constable-AMT-I: without CV-bit pinning, a private-cache eviction
    // ends snoop visibility for the line, so tracking must be dropped.
    amt.invalidate(line << kLineShift, drained_);
    if (!drained_.empty()) {
        ++snoopResets;
        resetPcs(drained_);
    }
}

void
ConstableEngine::releaseEliminated()
{
    xprf.release();
}

void
ConstableEngine::contextSwitch()
{
    sld.flushAll();
    rmt.flushAll();
    amt.flushAll();
}

void
ConstableEngine::exportStats(StatSet& stats) const
{
    stats.set("constable.eliminated", static_cast<double>(eliminated));
    stats.set("constable.elim.pcRel",
              static_cast<double>(
                  eliminatedByMode[static_cast<unsigned>(AddrMode::PcRel)]));
    stats.set("constable.elim.stackRel",
              static_cast<double>(eliminatedByMode[static_cast<unsigned>(
                  AddrMode::StackRel)]));
    stats.set("constable.elim.regRel",
              static_cast<double>(
                  eliminatedByMode[static_cast<unsigned>(AddrMode::RegRel)]));
    stats.set("constable.xprfRejected", static_cast<double>(xprfRejected));
    stats.set("constable.sld.lookups", static_cast<double>(sld.lookups));
    stats.set("constable.sld.arms", static_cast<double>(sld.arms));
    stats.set("constable.sld.resets", static_cast<double>(sld.resets));
    stats.set("constable.sld.trainMatches",
              static_cast<double>(sld.trainMatches));
    stats.set("constable.sld.trainMismatches",
              static_cast<double>(sld.trainMismatches));
    stats.set("constable.rmt.inserts", static_cast<double>(rmt.inserts));
    stats.set("constable.rmt.capacityEvictions",
              static_cast<double>(rmt.capacityEvictions));
    stats.set("constable.amt.inserts", static_cast<double>(amt.inserts));
    stats.set("constable.amt.invalidations",
              static_cast<double>(amt.invalidations));
    stats.set("constable.amt.capacityEvictions",
              static_cast<double>(amt.capacityEvictions));
    stats.set("constable.xprf.allocs", static_cast<double>(xprf.allocs));
    stats.set("constable.xprf.allocFailures",
              static_cast<double>(xprf.allocFailures));
}

} // namespace constable
