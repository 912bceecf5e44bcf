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
        // One fingerprint per preset over every suite row: chain the FNV
        // hashes of each row's serialized RunResult.
        uint64_t fp = 0xcbf29ce484222325ull;
        for (size_t row = 0; row < suite.size(); ++row) {
            const auto& gs = suite.globalStablePcs(row);
            SystemConfig cfg { CoreConfig{}, mechFor(kCases[p].name, &gs) };
            RunResult r = runTrace(suite.trace(row), cfg, &gs);
            EXPECT_FALSE(r.goldenCheckFailed)
                << kCases[p].name << ": " << r.goldenCheckMessage;
            auto bytes = serializeRunResult(r);
            fp ^= fnv1a(bytes.data(), bytes.size());
            fp *= 0x100000001b3ull;
        }
        EXPECT_EQ(kCases[p].expected, hex16(fp)) << kCases[p].name;
    }
}

TEST(GoldenSnapshot, Smt2PresetsBitIdentical)
{
    const PresetCase kCases[2] = {
        { "smt2-baseline", "0f180dc1341b5034" },
        { "smt2-constable", "0dd46e32890ab99a" },
    };

    Suite suite = Suite::prepare(snapshotOpts(), true);
    auto pairs = suite.smtTracePairs();
    ASSERT_FALSE(pairs.empty());

    for (size_t p = 0; p < 2; ++p) {
        uint64_t fp = 0xcbf29ce484222325ull;
        for (const auto& [t0, t1] : pairs) {
            SystemConfig cfg { CoreConfig{},
                               p == 0 ? mechFor("baseline") : mechFor("constable") };
            cfg.core.smt2 = true;
            RunResult r = runSmtPair(*t0, *t1, cfg);
            EXPECT_FALSE(r.goldenCheckFailed)
                << kCases[p].name << ": " << r.goldenCheckMessage;
            auto bytes = serializeRunResult(r);
            fp ^= fnv1a(bytes.data(), bytes.size());
            fp *= 0x100000001b3ull;
        }
        EXPECT_EQ(kCases[p].expected, hex16(fp)) << kCases[p].name;
    }
}

} // namespace
} // namespace constable
