/**
 * @file
 * Tests for the sim layer: the work-stealing ThreadPool, determinism of the
 * batch matrix runner across thread counts, and smoke coverage of every
 * mechanism registry preset in sim/mechanisms.hh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "inspector/load_inspector.hh"
#include "sim/batch.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "trace/generator.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<unsigned>> hits(kN);
    pool.run(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<size_t> sum { 0 };
        pool.run(64, [&](size_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 64u * 63u / 2);
    }
}

TEST(ThreadPool, NestedRunExecutesInline)
{
    ThreadPool pool(4);
    std::atomic<size_t> inner { 0 };
    pool.run(8, [&](size_t) {
        // A job that itself submits a batch must not deadlock.
        pool.run(4, [&](size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 32u);
}

TEST(ThreadPool, ZeroAndOneSizedBatches)
{
    ThreadPool pool(4);
    unsigned calls = 0;
    pool.run(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0u);
    pool.run(1, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 1u);
}

TEST(ForEachJob, RngStreamsIndependentOfThreadCount)
{
    constexpr size_t kJobs = 64;
    auto draw = [&](unsigned threads) {
        std::vector<uint64_t> out(kJobs);
        BatchOptions opts;
        opts.threads = threads;
        opts.seed = 1234;
        forEachJob(kJobs,
                   [&](size_t job, Rng& rng) { out[job] = rng.next(); },
                   opts);
        return out;
    };
    auto serial = draw(1);
    EXPECT_EQ(serial, draw(4));
    EXPECT_EQ(serial, draw(7));
    // Distinct jobs must see distinct streams.
    EXPECT_NE(serial[0], serial[1]);
}

TEST(ForEachJob, SeedChangesStreams)
{
    std::vector<uint64_t> a(8), b(8);
    BatchOptions opts;
    opts.threads = 1;
    opts.seed = 1;
    forEachJob(8, [&](size_t j, Rng& r) { a[j] = r.next(); }, opts);
    opts.seed = 2;
    forEachJob(8, [&](size_t j, Rng& r) { b[j] = r.next(); }, opts);
    EXPECT_NE(a, b);
}

// ------------------------------------------------------- matrix determinism

/** Small two-trace fixture shared by the matrix tests. */
class MatrixDeterminism : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto specs = smokeSuite(1500);
        specs.resize(2);
        for (const auto& spec : specs)
            traces.push_back(generateTrace(spec));
        for (const auto& t : traces)
            tracePtrs.push_back(&t);
    }

    std::vector<Trace> traces;
    std::vector<const Trace*> tracePtrs;
};

TEST_F(MatrixDeterminism, ParallelMatchesSerialBitExactly)
{
    std::vector<SystemConfig> configs = {
        { CoreConfig{}, mechFor("baseline") },
        { CoreConfig{}, mechFor("constable") },
        { CoreConfig{}, mechFor("eves+constable") },
    };

    BatchOptions serial;
    serial.threads = 1;
    MatrixResult ref = runMatrix(tracePtrs, configs, {}, serial);

    for (unsigned threads : { 2u, 4u, 8u }) {
        BatchOptions par;
        par.threads = threads;
        MatrixResult got = runMatrix(tracePtrs, configs, {}, par);
        ASSERT_EQ(got.results.size(), ref.results.size());
        for (size_t i = 0; i < ref.results.size(); ++i) {
            EXPECT_EQ(got.results[i].cycles, ref.results[i].cycles)
                << "cell " << i << " @ " << threads << " threads";
            EXPECT_EQ(got.results[i].instructions,
                      ref.results[i].instructions);
        }
        // Aggregate stats merge in index order: the full named-counter map
        // must be bit-identical, not just the headline numbers.
        EXPECT_EQ(got.aggregateStats().all(), ref.aggregateStats().all())
            << "aggregate stats diverge @ " << threads << " threads";
        EXPECT_EQ(got.fingerprint(), ref.fingerprint());
    }
}

TEST_F(MatrixDeterminism, SmtMatrixParallelMatchesSerial)
{
    std::vector<std::pair<const Trace*, const Trace*>> pairs = {
        { &traces[0], &traces[1] },
        { &traces[1], &traces[0] },
    };
    std::vector<SystemConfig> configs = {
        { CoreConfig{}, mechFor("baseline") },
        { CoreConfig{}, mechFor("constable") },
    };

    BatchOptions serial;
    serial.threads = 1;
    MatrixResult ref = runSmtMatrix(pairs, configs, serial);

    BatchOptions par;
    par.threads = 4;
    MatrixResult got = runSmtMatrix(pairs, configs, par);
    ASSERT_EQ(got.results.size(), ref.results.size());
    for (size_t i = 0; i < ref.results.size(); ++i)
        EXPECT_EQ(got.results[i].cycles, ref.results[i].cycles);
    EXPECT_EQ(got.aggregateStats().all(), ref.aggregateStats().all());
}

TEST_F(MatrixDeterminism, RowDependentConfigsAndGsSets)
{
    std::vector<std::unordered_set<PC>> gsSets;
    for (const Trace& t : traces)
        gsSets.push_back(inspectLoads(t).globalStablePcs());
    std::vector<const std::unordered_set<PC>*> gs;
    for (const auto& s : gsSets)
        gs.push_back(&s);

    std::vector<ConfigFactory> configs = {
        [](size_t) { return SystemConfig { CoreConfig{}, mechFor("baseline") }; },
        [&](size_t row) {
            return SystemConfig { CoreConfig{},
                                  mechFor("eves+ideal-constable", &gsSets[row]) };
        },
    };

    BatchOptions serial;
    serial.threads = 1;
    MatrixResult ref = runMatrix(tracePtrs, configs, gs, serial);
    BatchOptions par;
    par.threads = 4;
    MatrixResult got = runMatrix(tracePtrs, configs, gs, par);
    EXPECT_EQ(got.aggregateStats().all(), ref.aggregateStats().all());
    // The oracle must not lose to the baseline on its own stable set.
    EXPECT_GE(speedup(ref.at(0, 1), ref.at(0, 0)), 0.9);
}

TEST(Matrix, SpeedupsOverShape)
{
    auto specs = smokeSuite(1000);
    specs.resize(1);
    Trace t = generateTrace(specs[0]);
    std::vector<SystemConfig> configs = {
        { CoreConfig{}, mechFor("baseline") },
        { CoreConfig{}, mechFor("constable") },
    };
    BatchOptions opts;
    opts.threads = 1;
    MatrixResult m = runMatrix({ &t }, configs, {}, opts);
    EXPECT_EQ(m.numRows, 1u);
    EXPECT_EQ(m.numConfigs, 2u);
    auto s = m.speedupsOver(1, 0);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_GT(s[0], 0.0);
}

// ------------------------------------------------------------ preset smoke

/** Every registry preset must run a trace to completion
 *  (runTrace panics on a golden-check failure, so surviving the run plus
 *  retiring every instruction is a real end-to-end check). */
TEST(Presets, EveryFactoryRunsCleanly)
{
    auto specs = smokeSuite(1200);
    specs.resize(1);
    Trace t = generateTrace(specs[0]);
    auto gs = inspectLoads(t).globalStablePcs();

    struct Case
    {
        const char* name;
        MechanismConfig mech;
    };
    std::vector<Case> cases = {
        { "baseline", mechFor("baseline") },
        { "constable", mechFor("constable") },
        { "eves", mechFor("eves") },
        { "eves+constable", mechFor("eves+constable") },
        { "elar", mechFor("elar") },
        { "rfp", mechFor("rfp") },
        { "elar+constable", mechFor("elar+constable") },
        { "rfp+constable", mechFor("rfp+constable") },
        { "constable-amt-i", mechFor("constable-amt-i") },
        { "mode-pcrel", mechFor("constable-pcrel") },
        { "mode-stackrel", mechFor("constable-stackrel") },
        { "mode-regrel", mechFor("constable-regrel") },
        { "ideal-lvp", mechFor("ideal-stable-lvp", &gs) },
        { "ideal-lvp-nofetch", mechFor("ideal-stable-lvp-nofetch", &gs) },
        { "ideal-constable", mechFor("ideal-constable", &gs) },
        { "eves+ideal-constable", mechFor("eves+ideal-constable", &gs) },
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        SystemConfig cfg { CoreConfig{}, c.mech };
        RunResult r = runTrace(t, cfg, &gs);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_EQ(r.instructions, t.ops.size());
        EXPECT_FALSE(r.goldenCheckFailed);
    }
}

/** Presets must actually differ from the baseline where it matters. */
TEST(Presets, FlagsMatchIntent)
{
    EXPECT_FALSE(mechFor("baseline").constable.enabled);
    EXPECT_TRUE(mechFor("constable").constable.enabled);
    EXPECT_TRUE(mechFor("eves").eves);
    EXPECT_TRUE(mechFor("eves+constable").eves);
    EXPECT_TRUE(mechFor("eves+constable").constable.enabled);
    EXPECT_TRUE(mechFor("elar+constable").elar);
    EXPECT_TRUE(mechFor("rfp+constable").rfp);
    EXPECT_FALSE(mechFor("constable-amt-i").constable.cvBitPinning);
    EXPECT_TRUE(mechFor("constable").constable.cvBitPinning);
    MechanismConfig pcrel = mechFor("constable-pcrel");
    EXPECT_TRUE(pcrel.constable.eliminatePcRel);
    EXPECT_FALSE(pcrel.constable.eliminateStackRel);
    EXPECT_FALSE(pcrel.constable.eliminateRegRel);
}

} // namespace
} // namespace constable
