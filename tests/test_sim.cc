/**
 * @file
 * Tests for the sim layer: the self-scheduling ThreadPool (one shared claim
 * cursor), determinism of Experiment sweeps across thread counts, and smoke
 * coverage of every mechanism registry preset in sim/mechanisms.hh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "inspector/load_inspector.hh"
#include "sim/batch.hh"
#include "sim/experiment.hh"
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

TEST(ThreadPool, BlockedJobDoesNotHoldOthersHostage)
{
    // Job 0 blocks until every other job has run. A pool that hands a
    // worker a run of jobs behind job 0 can never finish them, so the
    // bounded wait times out instead of hanging the test.
    ThreadPool pool(4);
    constexpr size_t kN = 64;
    std::mutex mu;
    std::condition_variable cv;
    size_t others = 0;
    size_t othersSeen = 0;
    bool released = false;
    pool.run(kN, [&](size_t i) {
        std::unique_lock<std::mutex> lk(mu);
        if (i == 0) {
            released = cv.wait_for(lk, std::chrono::seconds(3),
                                   [&]() { return others == kN - 1; });
            othersSeen = others;
        } else {
            ++others;
            cv.notify_all();
        }
    });
    EXPECT_TRUE(released) << "only " << othersSeen << " of " << kN - 1
                          << " other jobs ran while job 0 waited";
}

TEST(ThreadPool, ManyBatchesOfVaryingSize)
{
    // Back-to-back batches reset the claim cursor while workers of the
    // previous batch may still be leaving it; every index of every batch
    // must run exactly once. Every fifth batch nests a run per job.
    ThreadPool pool(4);
    constexpr size_t kMaxN = 200;
    constexpr size_t kInner = 3;
    std::vector<std::atomic<unsigned>> hits(kMaxN);
    std::vector<std::atomic<unsigned>> innerHits(kMaxN * kInner);
    for (size_t round = 0; round < 400; ++round) {
        size_t n = (round * 37) % (kMaxN + 1);
        bool nested = round % 5 == 0;
        for (auto& h : hits)
            h.store(0);
        for (auto& h : innerHits)
            h.store(0);
        pool.run(n, [&](size_t i) {
            hits[i].fetch_add(1);
            if (nested) {
                pool.run(kInner, [&](size_t j) {
                    innerHits[i * kInner + j].fetch_add(1);
                });
            }
        });
        for (size_t i = 0; i < kMaxN; ++i) {
            ASSERT_EQ(hits[i].load(), i < n ? 1u : 0u)
                << "round " << round << " n " << n << " index " << i;
            for (size_t j = 0; j < kInner; ++j) {
                ASSERT_EQ(innerHits[i * kInner + j].load(),
                          nested && i < n ? 1u : 0u)
                    << "round " << round << " index " << i << "." << j;
            }
        }
    }
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

/** Small two-trace suite shared by the sweep determinism tests. */
class MatrixDeterminism : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto specs = smokeSuite(1500);
        specs.resize(2);
        suite = std::make_unique<Suite>(
            Suite::fromSpecs(specs, optsAt(1)));
    }

    static ExperimentOptions
    optsAt(unsigned threads)
    {
        ExperimentOptions opts;
        opts.threads = threads;
        opts.progressSec = 0;
        return opts;
    }

    std::unique_ptr<Suite> suite;
};

TEST_F(MatrixDeterminism, ParallelMatchesSerialBitExactly)
{
    auto sweep = [&](unsigned threads) {
        return Experiment("det", *suite, optsAt(threads))
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .add("eves+constable", mechFor("eves+constable"))
            .run();
    };
    ExperimentResult ref = sweep(1);

    for (unsigned threads : { 2u, 4u, 8u }) {
        ExperimentResult got = sweep(threads);
        const MatrixResult& g = got.matrix();
        const MatrixResult& r = ref.matrix();
        ASSERT_EQ(g.results.size(), r.results.size());
        for (size_t i = 0; i < r.results.size(); ++i) {
            EXPECT_EQ(g.results[i].cycles, r.results[i].cycles)
                << "cell " << i << " @ " << threads << " threads";
            EXPECT_EQ(g.results[i].instructions, r.results[i].instructions);
        }
        // Aggregate stats merge in index order: the full named-counter map
        // must be bit-identical, not just the headline numbers.
        EXPECT_EQ(g.aggregateStats().all(), r.aggregateStats().all())
            << "aggregate stats diverge @ " << threads << " threads";
        EXPECT_EQ(g.fingerprint(), r.fingerprint());
    }
}

TEST_F(MatrixDeterminism, SmtMatrixParallelMatchesSerial)
{
    // Rows (t0, t2) and (t1, t3) of this four-trace suite are the pairs
    // (a, b) and (b, a), so each trace runs as both SMT threads.
    std::vector<Trace> traces;
    for (size_t i : { 0, 1, 1, 0 })
        traces.push_back(suite->trace(i));
    Suite pairs = Suite::fromTraces(std::move(traces), /*inspect=*/false);
    auto sweep = [&](unsigned threads) {
        return Experiment("smt-det", pairs, optsAt(threads))
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .runSmt();
    };
    ExperimentResult ref = sweep(1);
    ExperimentResult got = sweep(4);
    ASSERT_EQ(ref.numRows(), 2u);
    const MatrixResult& g = got.matrix();
    const MatrixResult& r = ref.matrix();
    ASSERT_EQ(g.results.size(), r.results.size());
    for (size_t i = 0; i < r.results.size(); ++i)
        EXPECT_EQ(g.results[i].cycles, r.results[i].cycles);
    EXPECT_EQ(g.aggregateStats().all(), r.aggregateStats().all());
}

TEST_F(MatrixDeterminism, RowDependentConfigsAndGsSets)
{
    // The oracle column reads each row's own global-stable set, and the
    // inspected suite attaches the same sets as stats-classification sets.
    auto sweep = [&](unsigned threads) {
        return Experiment("oracle-det", *suite, optsAt(threads))
            .add("baseline", mechFor("baseline"))
            .add("oracle",
                 [&](size_t row) {
                     return SystemConfig {
                         CoreConfig{},
                         mechFor("eves+ideal-constable",
                                 &suite->globalStablePcs(row)) };
                 })
            .run();
    };
    ExperimentResult ref = sweep(1);
    ExperimentResult got = sweep(4);
    EXPECT_EQ(got.matrix().aggregateStats().all(),
              ref.matrix().aggregateStats().all());
    // The oracle must not lose to the baseline on its own stable set.
    EXPECT_GE(speedup(ref.at(0, "oracle"), ref.at(0, "baseline")), 0.9);
}

TEST(Matrix, SpeedupsOverShape)
{
    auto specs = smokeSuite(1000);
    specs.resize(1);
    ExperimentOptions opts;
    opts.threads = 1;
    opts.progressSec = 0;
    Suite suite = Suite::fromSpecs(specs, opts, /*inspect=*/false);
    ExperimentResult res = Experiment("shape", suite, opts)
                               .add("baseline", mechFor("baseline"))
                               .add("constable", mechFor("constable"))
                               .run();
    const MatrixResult& m = res.matrix();
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
