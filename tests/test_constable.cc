/**
 * @file
 * Unit tests for Constable's hardware structures (SLD, RMT, AMT, xPRF),
 * the engine facade, and the storage/energy accounting (Tables 1 and 3).
 */

#include <gtest/gtest.h>

#include "core/amt.hh"
#include "core/constable.hh"
#include "core/rmt.hh"
#include "core/sld.hh"
#include "core/storage.hh"
#include "core/xprf.hh"

namespace constable {
namespace {

// ------------------------------------------------------------------- SLD

TEST(Sld, MissOnEmpty)
{
    Sld s;
    EXPECT_FALSE(s.lookup(0x100).hit);
}

TEST(Sld, TrainAllocatesEntry)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    SldLookup r = s.lookup(0x100);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.likelyStable);
    EXPECT_EQ(r.addr, 0x5000u);
    EXPECT_EQ(r.value, 42u);
}

class SldThreshold : public ::testing::TestWithParam<uint8_t>
{
};

TEST_P(SldThreshold, LikelyStableExactlyAtThreshold)
{
    SldConfig cfg;
    cfg.confThreshold = GetParam();
    Sld s(cfg);
    s.train(0x100, 0x5000, 42, false); // allocation (conf 0)
    for (unsigned i = 0; i < GetParam(); ++i) {
        EXPECT_FALSE(s.lookup(0x100).likelyStable)
            << "premature at " << i;
        s.train(0x100, 0x5000, 42, false);
    }
    EXPECT_TRUE(s.lookup(0x100).likelyStable);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SldThreshold,
                         ::testing::Values(1, 4, 15, 30));

TEST(Sld, ArmOnlyWhenMarkedLikelyStable)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 40; ++i)
        s.train(0x100, 0x5000, 42, false);
    EXPECT_FALSE(s.lookup(0x100).canEliminate);
    EXPECT_TRUE(s.train(0x100, 0x5000, 42, true)); // armed now
    EXPECT_TRUE(s.lookup(0x100).canEliminate);
    EXPECT_EQ(s.arms, 1u);
}

TEST(Sld, MismatchHalvesConfidenceAndDisarms)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 31; ++i)
        s.train(0x100, 0x5000, 42, true);
    ASSERT_TRUE(s.lookup(0x100).canEliminate);
    s.train(0x100, 0x5000, 43, false); // value changed
    SldLookup r = s.lookup(0x100);
    EXPECT_FALSE(r.canEliminate);
    EXPECT_FALSE(r.likelyStable); // 31/2 = 15 < 30
    EXPECT_EQ(r.value, 43u);
}

TEST(Sld, AddressChangeAlsoMismatch)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    s.train(0x100, 0x5000, 42, false);
    s.train(0x100, 0x5008, 42, false);
    EXPECT_EQ(s.trainMismatches, 1u);
    EXPECT_EQ(s.lookup(0x100).addr, 0x5008u);
}

TEST(Sld, ResetCanEliminateKeepsConfidence)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 31; ++i)
        s.train(0x100, 0x5000, 42, true);
    s.resetCanEliminate(0x100);
    SldLookup r = s.lookup(0x100);
    EXPECT_FALSE(r.canEliminate);
    EXPECT_TRUE(r.likelyStable); // confidence survives the reset
    // One matching writeback re-arms (paper example, step B).
    EXPECT_TRUE(s.train(0x100, 0x5000, 42, true));
}

TEST(Sld, HalveConfidenceOnViolation)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 31; ++i)
        s.train(0x100, 0x5000, 42, true);
    s.halveConfidence(0x100);
    SldLookup r = s.lookup(0x100);
    EXPECT_FALSE(r.canEliminate);
    EXPECT_FALSE(r.likelyStable);
}

TEST(Sld, ConfidenceSaturatesAtMax)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 100; ++i)
        s.train(0x100, 0x5000, 42, false);
    // After one mismatch, confidence halves from 31 to 15.
    s.train(0x100, 0x5000, 1, false);
    s.train(0x100, 0x5000, 1, false); // 16
    for (int i = 0; i < 14; ++i)
        s.train(0x100, 0x5000, 1, false);
    EXPECT_TRUE(s.lookup(0x100).likelyStable); // back above 30
}

TEST(Sld, SetCapacityEviction)
{
    SldConfig cfg;
    cfg.sets = 2;
    cfg.ways = 2;
    Sld s(cfg);
    // More distinct PCs than entries: older ones must be evicted.
    for (PC pc = 0; pc < 64; ++pc)
        s.train(pc << 2, 0x100, 1, false);
    unsigned present = 0;
    for (PC pc = 0; pc < 64; ++pc)
        present += s.lookup(pc << 2).hit;
    EXPECT_LE(present, 4u);
}

TEST(Sld, FlushAllInvalidates)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    s.flushAll();
    EXPECT_FALSE(s.lookup(0x100).hit);
}

TEST(Sld, LikelyStableFracDiagnostic)
{
    Sld s;
    s.train(0x100, 0x1, 1, false);
    for (int i = 0; i < 40; ++i)
        s.train(0x100, 0x1, 1, false);
    s.train(0x104, 0x2, 2, false);
    EXPECT_NEAR(s.likelyStableFrac(), 0.5, 1e-9);
}

TEST(Sld, CustomThresholdReclimbsAfterHalving)
{
    SldConfig cfg;
    cfg.confThreshold = 10;
    cfg.confMax = 12;
    Sld s(cfg);
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 50; ++i)
        s.train(0x100, 0x5000, 42, false); // saturates at confMax = 12
    ASSERT_TRUE(s.lookup(0x100).likelyStable);
    s.train(0x100, 0x5000, 7, false); // mismatch: 12 -> 6
    EXPECT_FALSE(s.lookup(0x100).likelyStable);
    for (int i = 0; i < 4; ++i)
        s.train(0x100, 0x5000, 7, false); // 6 -> 10
    EXPECT_TRUE(s.lookup(0x100).likelyStable);
}

TEST(Sld, ResetAndHalveOnUnknownPcAreSafe)
{
    Sld s;
    s.resetCanEliminate(0x900);
    s.halveConfidence(0x900);
    EXPECT_EQ(s.resets, 0u);
    EXPECT_FALSE(s.lookup(0x900).hit);
}

TEST(Sld, ArmRequiresMatchingOutcome)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 31; ++i)
        s.train(0x100, 0x5000, 42, false);
    ASSERT_TRUE(s.lookup(0x100).likelyStable);
    // Marked likely-stable at rename, but the outcome changed: no arm.
    EXPECT_FALSE(s.train(0x100, 0x5000, 43, true));
    EXPECT_FALSE(s.lookup(0x100).canEliminate);
}

TEST(Sld, RepeatedHalvingBottomsOutAndRetrains)
{
    Sld s;
    s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 31; ++i)
        s.train(0x100, 0x5000, 42, false);
    for (int i = 0; i < 10; ++i)
        s.halveConfidence(0x100); // must clamp at zero without wrapping
    EXPECT_FALSE(s.lookup(0x100).likelyStable);
    for (int i = 0; i < 31; ++i)
        s.train(0x100, 0x5000, 42, false);
    EXPECT_TRUE(s.lookup(0x100).likelyStable);
}

// ------------------------------------------------------------------- RMT

/** The PCs Rmt::drainOnWrite hands back for @p reg. */
std::vector<PC>
drain(Rmt& r, uint8_t reg)
{
    std::vector<PC> out;
    r.drainOnWrite(reg, out);
    return out;
}

TEST(Rmt, InsertAndDrain)
{
    Rmt r;
    std::vector<PC> evicted;
    EXPECT_TRUE(r.insert(RBX, 0x100, evicted));
    EXPECT_FALSE(r.insert(RBX, 0x100, evicted)); // duplicate
    EXPECT_TRUE(evicted.empty());
    auto drained = drain(r, RBX);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0], 0x100u);
    EXPECT_TRUE(drain(r, RBX).empty());
}

TEST(Rmt, StackRegistersHaveLargerCapacity)
{
    Rmt r;
    std::vector<PC> evicted;
    for (PC pc = 0; pc < 16; ++pc)
        r.insert(RSP, 0x1000 + pc * 4, evicted);
    EXPECT_TRUE(evicted.empty());
    r.insert(RSP, 0x2000, evicted);
    ASSERT_EQ(evicted.size(), 1u); // 17th insert evicts the oldest
    EXPECT_EQ(evicted[0], 0x1000u);
}

TEST(Rmt, OtherRegistersCapacityEight)
{
    Rmt r;
    std::vector<PC> evicted;
    for (PC pc = 0; pc < 9; ++pc)
        r.insert(RBX, 0x1000 + pc * 4, evicted);
    EXPECT_EQ(evicted.size(), 1u);
    EXPECT_EQ(r.capacityEvictions, 1u);
}

TEST(Rmt, RemovePcEverywhere)
{
    Rmt r;
    std::vector<PC> evicted;
    r.insert(RBX, 0x100, evicted);
    r.insert(RCX, 0x100, evicted);
    r.removePc(0x100);
    EXPECT_TRUE(drain(r, RBX).empty());
    EXPECT_TRUE(drain(r, RCX).empty());
}

TEST(Rmt, DrainLeavesOtherRegistersIntact)
{
    Rmt r;
    std::vector<PC> evicted;
    r.insert(RBX, 0x100, evicted);
    r.insert(RCX, 0x100, evicted);
    auto drained = drain(r, RBX);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0], 0x100u);
    // RCX still monitors the PC until its own write (or removePc).
    EXPECT_EQ(r.occupancy(RCX), 1u);
    EXPECT_EQ(drain(r, RCX).size(), 1u);
}

TEST(Rmt, DrainReplacesTheScratchBuffer)
{
    Rmt r;
    std::vector<PC> evicted;
    r.insert(RBX, 0x100, evicted);
    std::vector<PC> out { 0xdead, 0xbeef };
    r.drainOnWrite(RBX, out);
    EXPECT_EQ(out, std::vector<PC>{ 0x100 });
    r.drainOnWrite(RBX, out); // nothing left: the buffer empties
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(r.drains, 1u);
}

TEST(Rmt, FlushAll)
{
    Rmt r;
    std::vector<PC> evicted;
    r.insert(RBX, 0x100, evicted);
    r.flushAll();
    EXPECT_EQ(r.occupancy(RBX), 0u);
}

// ------------------------------------------------------------------- AMT

/** The PCs Amt::invalidate hands back for @p addr. */
std::vector<PC>
invalidated(Amt& a, Addr addr)
{
    std::vector<PC> out;
    a.invalidate(addr, out);
    return out;
}

TEST(Amt, InsertAndInvalidate)
{
    Amt a;
    std::vector<PC> evicted;
    a.insert(0x5000, 0x100, evicted);
    EXPECT_TRUE(a.contains(0x5000));
    auto pcs = invalidated(a, 0x5000);
    ASSERT_EQ(pcs.size(), 1u);
    EXPECT_EQ(pcs[0], 0x100u);
    EXPECT_FALSE(a.contains(0x5000));
}

TEST(Amt, CachelineGranularityAliases)
{
    Amt a;
    std::vector<PC> evicted;
    a.insert(0x5000, 0x100, evicted);
    // A store to a different byte of the same 64B line must hit.
    auto pcs = invalidated(a, 0x5038);
    EXPECT_EQ(pcs.size(), 1u);
}

TEST(Amt, FullAddressModeDistinguishesBytes)
{
    AmtConfig cfg;
    cfg.fullAddress = true;
    Amt a(cfg);
    std::vector<PC> evicted;
    a.insert(0x5000, 0x100, evicted);
    EXPECT_TRUE(invalidated(a, 0x5038).empty());
    EXPECT_EQ(invalidated(a, 0x5000).size(), 1u);
}

TEST(Amt, MultiplePcsPerEntry)
{
    Amt a;
    std::vector<PC> evicted;
    a.insert(0x5000, 0x100, evicted);
    a.insert(0x5008, 0x200, evicted); // same line
    auto pcs = invalidated(a, 0x5000);
    EXPECT_EQ(pcs.size(), 2u);
}

TEST(Amt, PcListOverflowEvictsOldest)
{
    Amt a; // 4 PCs per entry
    std::vector<PC> evicted;
    for (PC pc = 0; pc < 5; ++pc)
        a.insert(0x5000, 0x100 + 4 * pc, evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0x100u);
}

TEST(Amt, SetCapacityEvictionReportsPcs)
{
    AmtConfig cfg;
    cfg.sets = 1;
    cfg.ways = 2;
    Amt a(cfg);
    std::vector<PC> evicted;
    a.insert(0x0 * 64, 0x100, evicted);
    a.insert(0x1 * 64, 0x200, evicted);
    EXPECT_TRUE(evicted.empty());
    a.insert(0x2 * 64, 0x300, evicted);
    ASSERT_EQ(evicted.size(), 1u); // LRU entry's PC handed back for reset
}

TEST(Amt, DuplicateInsertIgnored)
{
    Amt a;
    std::vector<PC> evicted;
    a.insert(0x5000, 0x100, evicted);
    a.insert(0x5000, 0x100, evicted);
    EXPECT_EQ(invalidated(a, 0x5000).size(), 1u);
}

TEST(Amt, InvalidateReplacesTheScratchBuffer)
{
    Amt a;
    std::vector<PC> evicted;
    a.insert(0x5000, 0x100, evicted);
    std::vector<PC> out { 0xdead };
    a.invalidate(0x5000, out);
    EXPECT_EQ(out, std::vector<PC>{ 0x100 });
    a.invalidate(0x5000, out); // miss: the buffer empties
    EXPECT_TRUE(out.empty());
    // The recycled entry tracks a new line from scratch.
    a.insert(0x9000, 0x200, evicted);
    a.invalidate(0x9000, out);
    EXPECT_EQ(out, std::vector<PC>{ 0x200 });
    EXPECT_EQ(a.invalidations, 2u);
}

TEST(Amt, FlushAll)
{
    Amt a;
    std::vector<PC> evicted;
    a.insert(0x5000, 0x100, evicted);
    a.flushAll();
    EXPECT_FALSE(a.contains(0x5000));
}

// ------------------------------------------------------------------ xPRF

TEST(Xprf, AllocateUntilFull)
{
    Xprf x(2);
    EXPECT_TRUE(x.tryAlloc());
    EXPECT_TRUE(x.tryAlloc());
    EXPECT_FALSE(x.tryAlloc());
    EXPECT_EQ(x.allocFailures, 1u);
    x.release();
    EXPECT_TRUE(x.tryAlloc());
}

TEST(Xprf, ReleaseBelowZeroIsSafe)
{
    Xprf x(1);
    x.release();
    EXPECT_EQ(x.occupancy(), 0u);
}

// ---------------------------------------------------------------- engine

/** Drive the engine until pc becomes eliminable. */
void
warmUntilArmed(ConstableEngine& e, PC pc, Addr addr, uint64_t value,
               AddrMode mode = AddrMode::PcRel,
               std::array<uint8_t, 3> srcs = { kNoReg, kNoReg, kNoReg })
{
    for (int i = 0; i < 64; ++i) {
        ElimDecision d = e.renameLoad(pc, mode);
        if (d.eliminate) {
            // Retire the probe instance so the xPRF register is free again.
            e.releaseEliminated();
            return;
        }
        e.writebackLoad(pc, addr, value, d.likelyStable, srcs);
    }
}

TEST(Engine, DetectsAndEliminatesStableLoad)
{
    ConstableEngine e;
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
    ASSERT_TRUE(d.eliminate);
    EXPECT_EQ(d.addr, 0x5000u);
    EXPECT_EQ(d.value, 42u);
    e.releaseEliminated();
}

TEST(Engine, RequiresThresholdInstances)
{
    ConstableEngine e;
    // Fewer instances than the threshold: never eliminates.
    for (int i = 0; i < 25; ++i) {
        ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
        EXPECT_FALSE(d.eliminate);
        e.writebackLoad(0x100, 0x5000, 42, d.likelyStable,
                        { kNoReg, kNoReg, kNoReg });
    }
}

TEST(Engine, RegisterWriteResetsElimination)
{
    ConstableEngine e;
    std::array<uint8_t, 3> srcs = { RBX, kNoReg, kNoReg };
    warmUntilArmed(e, 0x100, 0x5000, 42, AddrMode::RegRel, srcs);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::RegRel).eliminate);
    e.releaseEliminated();
    // Condition 1: a write to RBX must stop further elimination.
    unsigned updates = e.renameDstWrite(RBX);
    EXPECT_EQ(updates, 1u);
    ElimDecision d = e.renameLoad(0x100, AddrMode::RegRel);
    EXPECT_FALSE(d.eliminate);
    EXPECT_TRUE(d.likelyStable); // confidence survives; re-arms next wb
    EXPECT_TRUE(e.writebackLoad(0x100, 0x5000, 42, true, srcs));
    EXPECT_TRUE(e.renameLoad(0x100, AddrMode::RegRel).eliminate);
    e.releaseEliminated();
}

TEST(Engine, StoreToAddressResetsElimination)
{
    ConstableEngine e;
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
    // Condition 2: store to the same cacheline.
    e.storeOrSnoopAddr(0x5010);
    EXPECT_FALSE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
}

TEST(Engine, SnoopToOtherLineDoesNotReset)
{
    ConstableEngine e;
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
    e.storeOrSnoopAddr(0x9000);
    EXPECT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
}

TEST(Engine, ViolationHalvesConfidence)
{
    ConstableEngine e;
    warmUntilArmed(e, 0x100, 0x5000, 42);
    e.onEliminationViolation(0x100);
    ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
    EXPECT_FALSE(d.eliminate);
    EXPECT_FALSE(d.likelyStable); // halved below threshold
}

TEST(Engine, AddressingModeFilter)
{
    ConstableConfig cfg;
    cfg.eliminateStackRel = false;
    ConstableEngine e(cfg);
    for (int i = 0; i < 64; ++i) {
        ElimDecision d = e.renameLoad(0x100, AddrMode::StackRel);
        EXPECT_FALSE(d.eliminate);
        e.writebackLoad(0x100, 0x5000, 42, d.likelyStable,
                        { RSP, kNoReg, kNoReg });
    }
}

TEST(Engine, XprfExhaustionFallsBackToExecution)
{
    ConstableConfig cfg;
    cfg.xprfEntries = 1;
    ConstableEngine e(cfg);
    warmUntilArmed(e, 0x100, 0x5000, 42);
    warmUntilArmed(e, 0x200, 0x6000, 43);
    EXPECT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    ElimDecision d = e.renameLoad(0x200, AddrMode::PcRel);
    EXPECT_FALSE(d.eliminate); // xPRF full
    EXPECT_EQ(e.xprfRejected, 1u);
    e.releaseEliminated();
    EXPECT_TRUE(e.renameLoad(0x200, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
}

TEST(Engine, ContextSwitchFlushesEverything)
{
    ConstableEngine e;
    warmUntilArmed(e, 0x100, 0x5000, 42);
    e.contextSwitch();
    ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
    EXPECT_FALSE(d.eliminate);
    EXPECT_FALSE(d.likelyStable);
}

TEST(Engine, AmtIVariantResetsOnL1Evict)
{
    ConstableConfig cfg;
    cfg.cvBitPinning = false;
    ConstableEngine e(cfg);
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
    e.onL1Evict(lineAddr(0x5000));
    EXPECT_FALSE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
}

TEST(Engine, PinnedVariantIgnoresL1Evict)
{
    ConstableEngine e; // cvBitPinning = true (default)
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
    e.onL1Evict(lineAddr(0x5000));
    EXPECT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
}

TEST(Engine, AmtIEvictOfOtherLineKeepsElimination)
{
    ConstableConfig cfg;
    cfg.cvBitPinning = false; // the mechFor("constable-amt-i") variant
    ConstableEngine e(cfg);
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
    e.onL1Evict(lineAddr(0x9000)); // unrelated line
    EXPECT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
}

TEST(Engine, AmtIReArmsWithOneWritebackAfterEvict)
{
    ConstableConfig cfg;
    cfg.cvBitPinning = false;
    ConstableEngine e(cfg);
    warmUntilArmed(e, 0x100, 0x5000, 42);
    e.onL1Evict(lineAddr(0x5000));
    ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
    ASSERT_FALSE(d.eliminate);
    // Confidence survives the eviction reset, so one matching writeback
    // re-arms (the cheapness of recovery is what makes AMT-I viable).
    EXPECT_TRUE(d.likelyStable);
    EXPECT_TRUE(e.writebackLoad(0x100, 0x5000, 42, true,
                                { kNoReg, kNoReg, kNoReg }));
    EXPECT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
}

TEST(Engine, PinningDoesNotProtectAgainstStoreConflicts)
{
    ConstableEngine e; // cvBitPinning = true (default full Constable)
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
    // Pinning only rides out L1D capacity evictions; a real store to the
    // monitored line must still reset elimination (correctness).
    e.storeOrSnoopAddr(0x5020);
    EXPECT_EQ(e.storeResets, 1u);
    EXPECT_FALSE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    EXPECT_EQ(e.snoopResets, 0u);
}

TEST(Engine, AmtCapacityEvictionResetsVictimEvenWhenPinned)
{
    ConstableConfig cfg;
    cfg.amt.sets = 1;
    cfg.amt.ways = 2;
    ConstableEngine e(cfg); // pinned variant
    warmUntilArmed(e, 0x100, 0x5000, 1);
    warmUntilArmed(e, 0x200, 0x6000, 2);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
    // Arming a third line overflows the single set: the LRU victim (0x100)
    // loses AMT monitoring and must stop eliminating, pinning or not.
    warmUntilArmed(e, 0x300, 0x7000, 3);
    ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
    EXPECT_FALSE(d.eliminate);
    EXPECT_TRUE(d.likelyStable); // confidence itself is kept
    EXPECT_TRUE(e.renameLoad(0x300, AddrMode::PcRel).eliminate);
    e.releaseEliminated();
}

TEST(Engine, AnyAddressSourceWriteResetsElimination)
{
    ConstableEngine e;
    std::array<uint8_t, 3> srcs = { RBX, RCX, kNoReg };
    warmUntilArmed(e, 0x100, 0x5000, 42, AddrMode::RegRel, srcs);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::RegRel).eliminate);
    e.releaseEliminated();
    // Second source register written: elimination stops.
    EXPECT_EQ(e.renameDstWrite(RCX), 1u);
    EXPECT_FALSE(e.renameLoad(0x100, AddrMode::RegRel).eliminate);
    // The reset also dropped the RBX monitor (fresh re-insert policy), so a
    // write to RBX now drains nothing.
    EXPECT_EQ(e.renameDstWrite(RBX), 0u);
    // Re-arming re-inserts all sources; the first register works again.
    EXPECT_TRUE(e.writebackLoad(0x100, 0x5000, 42, true, srcs));
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::RegRel).eliminate);
    e.releaseEliminated();
    EXPECT_EQ(e.renameDstWrite(RBX), 1u);
    EXPECT_FALSE(e.renameLoad(0x100, AddrMode::RegRel).eliminate);
}

TEST(Engine, StoreConflictBackoffStillRetrainable)
{
    ConstableEngine e;
    warmUntilArmed(e, 0x100, 0x5000, 42);
    // A store changes the value; training follows the new value and the
    // load becomes eliminable again at the updated contents.
    e.storeOrSnoopAddr(0x5000);
    ASSERT_FALSE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    warmUntilArmed(e, 0x100, 0x5000, 99);
    ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
    ASSERT_TRUE(d.eliminate);
    EXPECT_EQ(d.value, 99u);
    e.releaseEliminated();
}

TEST(Engine, DisabledEngineNeverEliminates)
{
    ConstableConfig cfg;
    cfg.enabled = false;
    ConstableEngine e(cfg);
    for (int i = 0; i < 64; ++i) {
        ElimDecision d = e.renameLoad(0x100, AddrMode::PcRel);
        EXPECT_FALSE(d.eliminate);
        EXPECT_FALSE(e.writebackLoad(0x100, 0x5000, 42, true,
                                     { kNoReg, kNoReg, kNoReg }));
    }
}

TEST(Engine, StatsExport)
{
    ConstableEngine e;
    warmUntilArmed(e, 0x100, 0x5000, 42);
    ASSERT_TRUE(e.renameLoad(0x100, AddrMode::PcRel).eliminate);
    StatSet s;
    e.exportStats(s);
    // warmUntilArmed consumed one elimination itself.
    EXPECT_DOUBLE_EQ(s.get("constable.eliminated"), 2.0);
    EXPECT_GE(s.get("constable.sld.arms"), 1.0);
}

// -------------------------------------------------------------- Table 1/3

TEST(Storage, MatchesPaperTable1)
{
    ConstableConfig cfg;
    auto rows = storageOverhead(cfg);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_NEAR(rows[0].kb(), 7.875, 0.01); // SLD ~7.9 KB
    EXPECT_NEAR(rows[1].kb(), 0.42, 0.01);  // RMT ~0.4 KB
    EXPECT_NEAR(rows[2].kb(), 4.0, 0.01);   // AMT 4.0 KB
    EXPECT_NEAR(totalStorageKb(cfg), 12.4, 0.15); // paper: 12.4 KB
}

TEST(Storage, ScalesWithGeometry)
{
    ConstableConfig cfg;
    cfg.sld.sets = 64; // double the SLD
    EXPECT_GT(totalStorageKb(cfg), 12.4 + 7.0);
}

TEST(Energy, Table3Values)
{
    auto rows = constableEnergyTable();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_DOUBLE_EQ(rows[0].readPj, 10.76);
    EXPECT_DOUBLE_EQ(rows[0].writePj, 16.70);
    EXPECT_DOUBLE_EQ(rows[2].areaMm2, 0.017);
}

} // namespace
} // namespace constable
