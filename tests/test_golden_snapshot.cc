/**
 * @file
 * Golden-stats snapshot over every evaluated mechanism preset.
 *
 * Each fingerprint hashes the full serialized RunResult (cycles,
 * instructions, golden-check state and the complete StatSet) of a fixed
 * deterministic mini-suite, so ANY behavioural drift in the core --
 * scheduling order, event timing, stat accounting -- flips a hash. The
 * expected values below were captured before the allocation-free
 * scheduling-structure overhaul of the simulation inner loop and prove the
 * rebuilt core is bit-identical to the red-black-tree/per-cycle-alloc one.
 *
 * If a deliberate model change invalidates them, re-run this test and paste
 * the printed actual values (every mismatch logs its preset name), then
 * bump kCellModelVersion (sim/cell_key.hh) and kBlessedCellModelVersion
 * below together: checkpoint stores keyed under the old model must never
 * serve cells to the new one.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/cell_key.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "trace/serialize.hh"

namespace constable {
namespace {

/** Pinned options: independent of CONSTABLE_* env so the fingerprints are
 *  stable no matter how the test binary is invoked. */
ExperimentOptions
snapshotOpts()
{
    ExperimentOptions opts;
    opts.threads = 1;
    opts.seed = 0x5eed5eedull;
    opts.traceOps = 2000;
    opts.suiteLimit = 4;
    opts.traceDir.clear();
    opts.checkpointDir.clear();
    return opts;
}

/** The cell-model version the fingerprints below were blessed under. */
constexpr uint32_t kBlessedCellModelVersion = 1;

struct PresetCase
{
    const char* name;
    const char* expected; ///< 16-hex-digit fingerprint
};

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Chained fingerprint of one preset over every suite row on @p core. The
 *  stat sums in @p totals let a case prove the paths it meant to cover
 *  actually ran. */
uint64_t
noSmtFingerprint(const Suite& suite, const char* preset,
                 const CoreConfig& core, StatSet* totals = nullptr)
{
    uint64_t fp = 0xcbf29ce484222325ull;
    for (size_t row = 0; row < suite.size(); ++row) {
        const auto& gs = suite.globalStablePcs(row);
        SystemConfig cfg { core, mechFor(preset, &gs) };
        RunResult r = runTrace(suite.trace(row), cfg, &gs);
        EXPECT_FALSE(r.goldenCheckFailed)
            << preset << ": " << r.goldenCheckMessage;
        if (totals)
            totals->merge(r.stats);
        auto bytes = serializeRunResult(r);
        fp ^= fnv1a(bytes.data(), bytes.size());
        fp *= 0x100000001b3ull;
    }
    return fp;
}

/** The same chain over every SMT2 trace pair (thread 1 relocated). */
uint64_t
smt2Fingerprint(const Suite& suite, const char* preset,
                StatSet* totals = nullptr)
{
    uint64_t fp = 0xcbf29ce484222325ull;
    for (const auto& [t0, t1] : suite.smtTracePairs()) {
        SystemConfig cfg { CoreConfig{}, mechFor(preset) };
        cfg.core.smt2 = true;
        RunResult r = runSmtPair(*t0, *t1, cfg);
        EXPECT_FALSE(r.goldenCheckFailed)
            << preset << ": " << r.goldenCheckMessage;
        if (totals)
            totals->merge(r.stats);
        auto bytes = serializeRunResult(r);
        fp ^= fnv1a(bytes.data(), bytes.size());
        fp *= 0x100000001b3ull;
    }
    return fp;
}

TEST(GoldenSnapshot, BlessedUnderTheCurrentCellModelVersion)
{
    // Re-blessed fingerprints with an unchanged version would let a store
    // written by the old model serve the new one.
    EXPECT_EQ(kCellModelVersion, kBlessedCellModelVersion)
        << "bump both constants together when re-blessing fingerprints";
}

TEST(GoldenSnapshot, NoSmtPresetsBitIdentical)
{
    const PresetCase kCases[16] = {
        { "baseline", "2c2c513ee217b659" },
        { "constable", "a066e75f1345cea2" },
        { "eves", "7ba233650af92ce5" },
        { "eves+constable", "e53d9422417ce9e4" },
        { "elar", "a60ae0b8afc9f498" },
        { "rfp", "53576a47c3ffb152" },
        { "elar+constable", "c34ca1ce318531ff" },
        { "rfp+constable", "41aebdb3235b0839" },
        { "constable-pcrel", "9782e9d45cac3fb6" },
        { "constable-stackrel", "4e45b750c288f7da" },
        { "constable-regrel", "f18d4f47e6dde2ae" },
        { "constable-amt-i", "a066e75f1345cea2" },
        { "ideal-stable-lvp", "e0d5b5079882d932" },
        { "ideal-stable-lvp-nofetch", "2e9513580076ea28" },
        { "ideal-constable", "5b2f6d1adf9b1214" },
        { "eves+ideal-constable", "5b2f6d1adf9b1214" },
    };

    Suite suite = Suite::prepare(snapshotOpts(), true);
    ASSERT_EQ(suite.size(), 4u);

    // The case table's names ARE registry keys: presets resolve through
    // MechanismRegistry, and the unchanged fingerprints prove the
    // registry-built configs bit-identical to the deleted factories.
    const auto& presets = MechanismRegistry::instance().presets();
    ASSERT_EQ(presets.size(), 16u);
    for (size_t p = 0; p < 16; ++p) {
        ASSERT_EQ(presets[p].name, kCases[p].name)
            << "registry order drifted from the snapshot table";
        EXPECT_EQ(kCases[p].expected,
                  hex16(noSmtFingerprint(suite, kCases[p].name, CoreConfig{})))
            << kCases[p].name;
    }
}

TEST(GoldenSnapshot, Smt2PresetsBitIdentical)
{
    const PresetCase kCases[2] = {
        { "baseline", "0f180dc1341b5034" },
        { "constable", "0dd46e32890ab99a" },
    };

    Suite suite = Suite::prepare(snapshotOpts(), true);
    ASSERT_FALSE(suite.smtTracePairs().empty());
    for (const PresetCase& c : kCases)
        EXPECT_EQ(c.expected, hex16(smt2Fingerprint(suite, c.name)))
            << "smt2-" << c.name;
}

/** 20k-op traces: every thread's ROB ring wraps about 40 times, and
 *  squashes (branch, ordering and value-mispredict) occur, so the in-flight
 *  window's wrap and truncate paths are locked, not just its fill. */
ExperimentOptions
longOpts()
{
    ExperimentOptions opts = snapshotOpts();
    opts.traceOps = 20000;
    return opts;
}

TEST(GoldenSnapshot, LongTraceNoSmtBitIdentical)
{
    const PresetCase kCases[16] = {
        { "baseline", "1dff7974fc2f3f26" },
        { "constable", "b34ea18cf06eb10d" },
        { "eves", "62dad3090115e366" },
        { "eves+constable", "8dec6e7d5c5acfdf" },
        { "elar", "b42f0dfba6294a25" },
        { "rfp", "1f80f38824ad3a38" },
        { "elar+constable", "ff5315f006f22848" },
        { "rfp+constable", "9c77282e48921417" },
        { "constable-pcrel", "b80fb35073efa968" },
        { "constable-stackrel", "7304c3f7829aa05d" },
        { "constable-regrel", "4aef8d9160751ef6" },
        { "constable-amt-i", "8f4969ff6b65fa64" },
        { "ideal-stable-lvp", "bc9dd980180cc773" },
        { "ideal-stable-lvp-nofetch", "b03b49f2eb9684ed" },
        { "ideal-constable", "ddbf2160cb6a1852" },
        { "eves+ideal-constable", "aebced5878eb2d27" },
    };

    Suite suite = Suite::prepare(longOpts(), true);
    ASSERT_EQ(suite.size(), 4u);
    StatSet totals;
    for (const PresetCase& c : kCases)
        EXPECT_EQ(c.expected,
                  hex16(noSmtFingerprint(suite, c.name, CoreConfig{},
                                         &totals)))
            << c.name;
    // The window paths these fingerprints are meant to lock all ran.
    EXPECT_GT(totals.get("fbu.squash"), 0.0);
    EXPECT_GT(totals.get("ordering.violations"), 0.0);
    EXPECT_GT(totals.get("vp.flushes"), 0.0);
    EXPECT_GT(totals.get("mrn.predictions"), 0.0);
}

TEST(GoldenSnapshot, LongTraceSmt2BitIdentical)
{
    const PresetCase kCases[2] = {
        { "baseline", "6585f1409662b2dd" },
        { "constable", "c6978b4c295f12d0" },
    };

    Suite suite = Suite::prepare(longOpts(), true);
    ASSERT_FALSE(suite.smtTracePairs().empty());
    StatSet totals;
    for (const PresetCase& c : kCases)
        EXPECT_EQ(c.expected, hex16(smt2Fingerprint(suite, c.name, &totals)))
            << "smt2-" << c.name;
    EXPECT_GT(totals.get("fbu.squash"), 0.0);
}

TEST(GoldenSnapshot, DepthScaledCoreBitIdentical)
{
    // Fig 20's deepest pipeline: ROB 1536, LB 720, SB 336 -- ring and
    // bitmap sizes that are not powers of two.
    const PresetCase kCases[] = {
        { "baseline", "9b52f5645df2e033" },
        { "constable", "feace24ab62423e2" },
        { "eves", "676473dff1f03de0" },
    };

    CoreConfig core;
    core.depthScale = 3;
    ASSERT_EQ(core.robPerThread(), 1536u);
    ASSERT_EQ(core.lbPerThread(), 720u);
    ASSERT_EQ(core.sbPerThread(), 336u);
    Suite suite = Suite::prepare(longOpts(), true);
    for (const PresetCase& c : kCases)
        EXPECT_EQ(c.expected, hex16(noSmtFingerprint(suite, c.name, core)))
            << c.name;
}

TEST(GoldenSnapshot, SmallLsqCoreBitIdentical)
{
    // The default LB/SB never fill on these traces (the ROB binds first);
    // shrunken ones make the LB/SB rings run full and exercise the
    // LB-full and SB-full rename stalls.
    const PresetCase kCases[] = {
        { "baseline", "6c3761ad59a39cf3" },
        { "constable", "6c4c863ff91d6f05" },
    };

    CoreConfig core;
    core.lbEntries = 40;
    core.sbEntries = 12;
    Suite suite = Suite::prepare(longOpts(), true);
    StatSet totals;
    for (const PresetCase& c : kCases)
        EXPECT_EQ(c.expected,
                  hex16(noSmtFingerprint(suite, c.name, core, &totals)))
            << c.name;
    EXPECT_GT(totals.get("stall.lbFull"), 0.0);
    EXPECT_GT(totals.get("stall.sbFull"), 0.0);
}

} // namespace
} // namespace constable
