/**
 * @file
 * Tests for the sharded multi-process sweep subsystem (sim/shard.hh):
 * lease-file claim semantics, manifest pinning, fleet-worker runs that are
 * bit-identical to single-process runs, SIGKILL crash recovery through
 * mtime-based lease reclaim, and merge-time regeneration of corrupt cells
 * and cleanup of orphaned tmp files.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/faultio.hh"
#include "sim/experiment.hh"
#include "sim/shard.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

class ShardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = fs::temp_directory_path() /
                           "constable-shard-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

/** Give every cell of @p m its own store key (the shard layer needs
 *  nothing more of a key than that distinct cells get distinct files). */
void
keyCells(SweepManifest& m)
{
    m.cellKeys.clear();
    for (uint64_t c = 0; c < m.numCells(); ++c)
        m.cellKeys.push_back(0x5eed0000 + c);
}

/** A 2x3 synthetic sweep: cells are cheap deterministic functions of the
 *  index, which is all the shard layer requires of a cell. */
SweepManifest
syntheticManifest()
{
    SweepManifest m;
    m.experiment = "shard-test";
    m.numRows = 2;
    m.numConfigs = 3;
    m.configNames = { "a", "b", "c" };
    keyCells(m);
    return m;
}

RunResult
syntheticCell(size_t cell)
{
    RunResult r;
    r.cycles = 1000 + cell * 17;
    r.instructions = 100 + cell;
    r.stats.set("cell.index", static_cast<double>(cell));
    r.stats.set("cell.awkward", 0.1 + 0.2 * static_cast<double>(cell));
    return r;
}

ShardOptions
workerOpts(int shard_id, unsigned ttl_sec = 120)
{
    ShardOptions o;
    o.shards = 1;
    o.shardId = shard_id;
    o.leaseTtlSec = ttl_sec;
    o.pollMs = 20;
    o.batch.threads = 1;
    return o;
}

// ---------------------------------------------------------------- leases

TEST_F(ShardTest, LeaseAcquireIsExclusiveAndRoundTrips)
{
    std::string lp = cellLeasePath(dir, syntheticManifest(), 0);
    fs::create_directories(cellStoreDir(dir));
    LeaseRecord r;
    r.owner = processOwnerTag();
    r.pid = static_cast<uint64_t>(getpid());
    r.shardId = 3;
    r.acquiredUnixSec = 1234567;
    ASSERT_TRUE(tryAcquireLease(lp, r));
    EXPECT_FALSE(tryAcquireLease(lp, r)); // second claim loses

    LeaseRecord back;
    ASSERT_TRUE(readLease(lp, back));
    EXPECT_EQ(back.owner, r.owner);
    EXPECT_EQ(back.pid, r.pid);
    EXPECT_EQ(back.shardId, 3);
    EXPECT_EQ(back.acquiredUnixSec, 1234567u);

    double age = leaseAgeSeconds(lp);
    EXPECT_GE(age, 0.0);
    EXPECT_LT(age, 60.0);

    EXPECT_TRUE(removeLease(lp));
    EXPECT_LT(leaseAgeSeconds(lp), 0.0); // missing
    EXPECT_TRUE(tryAcquireLease(lp, r)); // claimable again
}

TEST_F(ShardTest, CorruptLeaseIsUnreadableButStillBlocksAndExpires)
{
    std::string lp = dir + "/x.lease";
    std::ofstream(lp) << "garbage";
    LeaseRecord back;
    EXPECT_FALSE(readLease(lp, back));
    LeaseRecord mine;
    EXPECT_FALSE(tryAcquireLease(lp, mine)); // existence is the claim
    // Backdate: expiry is mtime-based, so even junk leases age out.
    fs::last_write_time(lp, fs::file_time_type::clock::now() -
                                std::chrono::seconds(500));
    EXPECT_GE(leaseAgeSeconds(lp), 499.0);
}

// -------------------------------------------------------------- manifests

TEST_F(ShardTest, ManifestRoundTripsAndPinsTheSweep)
{
    SweepManifest m = syntheticManifest();
    writeOrVerifyManifest(dir, m);
    SweepManifest back;
    ASSERT_TRUE(loadManifest(dir + "/manifest.sweep", back));
    EXPECT_EQ(back, m);
    writeOrVerifyManifest(dir, m); // idempotent
}

TEST_F(ShardTest, ManifestMismatchIsFatal)
{
    SweepManifest m = syntheticManifest();
    writeOrVerifyManifest(dir, m);
    SweepManifest other = m;
    other.experiment = "different-sweep";
    EXPECT_EXIT(writeOrVerifyManifest(dir, other),
                ::testing::ExitedWithCode(1), "belongs to sweep");
}

// ------------------------------------------------------------ worker mode

TEST_F(ShardTest, SingleWorkerCompletesAndMergesTheMatrix)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    ShardOutcome oc =
        runShardedCells(dir, m, syntheticCell, out, workerOpts(0));
    EXPECT_EQ(oc.computed, 6u);
    EXPECT_EQ(oc.loaded, 6u);      // the final merge spans the matrix
    EXPECT_EQ(oc.preExisting, 0u); // nothing was resumed
    EXPECT_EQ(oc.reclaimed, 0u);
    ASSERT_EQ(out.size(), 6u);
    for (size_t c = 0; c < out.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out[c]),
                  serializeRunResult(syntheticCell(c)));
        EXPECT_FALSE(fs::exists(cellLeasePath(dir, m, c))); // released
    }
}

TEST_F(ShardTest, TwoSequentialWorkersSplitViaCommittedCells)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out1, out2;
    ShardOutcome a =
        runShardedCells(dir, m, syntheticCell, out1, workerOpts(0));
    ShardOutcome b =
        runShardedCells(dir, m, syntheticCell, out2, workerOpts(0));
    EXPECT_EQ(a.computed, 6u);
    EXPECT_EQ(a.preExisting, 0u);
    EXPECT_EQ(b.computed, 0u); // everything already committed
    EXPECT_EQ(b.loaded, 6u);
    EXPECT_EQ(b.preExisting, 6u); // a fully resumed sweep
    for (size_t c = 0; c < out1.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out1[c]), serializeRunResult(out2[c]));
    }
}

// ------------------------------------------------------- crash recovery

/**
 * The ISSUE's crash drill: a worker claims a cell, commits some others,
 * and is SIGKILLed while holding a lease mid-compute. A surviving worker
 * with a short TTL must reclaim the orphaned lease, re-run the cell, and
 * produce a matrix bit-identical to an undisturbed single-worker run.
 */
TEST_F(ShardTest, SigkilledWorkerLeasesAreReclaimedAndCellsReRun)
{
    SweepManifest m = syntheticManifest();
    const size_t hangCell = 2;
    std::string marker = dir + "/hanging";

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Worker that wedges (lease held, cell never committed) on cell 2
        // after committing cells 0 and 1.
        auto compute = [&](size_t cell) -> RunResult {
            if (cell == hangCell) {
                std::ofstream(marker) << "hung";
                for (;;)
                    ::pause();
            }
            return syntheticCell(cell);
        };
        std::vector<RunResult> out;
        runShardedCells(dir, m, compute, out, workerOpts(0));
        ::_exit(0); // not reached
    }
    // Wait for the child to wedge, then kill it without any cleanup.
    for (int i = 0; i < 2000 && !fs::exists(marker); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(fs::exists(marker)) << "worker never reached the hang cell";
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    // The orphaned claim is still on disk.
    ASSERT_TRUE(fs::exists(cellLeasePath(dir, m, hangCell)));
    ASSERT_FALSE(fs::exists(cellFilePath(dir, m, hangCell)));

    // Survivor with a 1 s TTL: waits out the stale lease, reclaims it,
    // re-runs the dead worker's cell and finishes the rest.
    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, syntheticCell, out,
                                      workerOpts(0, /*ttl_sec=*/1));
    EXPECT_GE(oc.reclaimed, 1u);
    EXPECT_EQ(oc.computed, 4u); // hangCell + the three never-claimed cells
    EXPECT_EQ(oc.preExisting, 2u); // the dead worker's two committed cells
    EXPECT_EQ(oc.loaded, 6u);

    // Bit-identical to an undisturbed 1-shard run in a fresh directory.
    std::string refDir = dir + "/ref";
    fs::create_directories(refDir);
    std::vector<RunResult> ref;
    runShardedCells(refDir, m, syntheticCell, ref, workerOpts(0));
    ASSERT_EQ(out.size(), ref.size());
    for (size_t c = 0; c < out.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out[c]), serializeRunResult(ref[c]));
    }
}

TEST_F(ShardTest, FreshLeaseOfALiveWorkerIsNotReclaimed)
{
    SweepManifest m = syntheticManifest();
    fs::create_directories(cellStoreDir(dir));
    // Another (live) worker holds cell 0: lease fresh, no cell file. A
    // second worker must compute everything else, then wait for the lease
    // to expire before touching cell 0 — with a generous TTL it would
    // block, so commit the cell from "the other worker" mid-wait.
    LeaseRecord other;
    other.owner = "other-host:99999";
    ASSERT_TRUE(tryAcquireLease(cellLeasePath(dir, m, 0), other));

    std::thread committer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ASSERT_TRUE(saveRunResult(cellFilePath(dir, m, 0), syntheticCell(0),
                                  true));
        removeLease(cellLeasePath(dir, m, 0));
    });
    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, syntheticCell, out,
                                      workerOpts(1, /*ttl_sec=*/300));
    committer.join();
    EXPECT_EQ(oc.reclaimed, 0u);
    EXPECT_EQ(oc.computed, 5u); // all but the foreign-committed cell 0
    EXPECT_EQ(serializeRunResult(out[0]),
              serializeRunResult(syntheticCell(0)));
}

// ------------------------------------------------------ merge robustness

TEST_F(ShardTest, CorruptCellsAreRegeneratedAndStaleTmpFilesSwept)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    runShardedCells(dir, m, syntheticCell, out, workerOpts(0));

    // Mangle one committed cell (checksum now fails) and truncate another,
    // then drop an orphaned tmp file from a "killed writer", backdated
    // past the TTL, plus a fresh one that must survive.
    {
        std::fstream f(cellFilePath(dir, m, 1),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(10);
        f.put('\x7f');
    }
    fs::resize_file(cellFilePath(dir, m, 4), 5);
    std::string staleTmp = cellFilePath(dir, m, 3) + ".tmp.4242.dead.0";
    std::ofstream(staleTmp) << "partial";
    fs::last_write_time(staleTmp, fs::file_time_type::clock::now() -
                                      std::chrono::seconds(1000));
    std::string freshTmp = cellFilePath(dir, m, 5) + ".tmp.4242.live.0";
    std::ofstream(freshTmp) << "in-flight";

    std::vector<RunResult> merged;
    ShardOutcome oc;
    CellFn compute = syntheticCell;
    EXPECT_TRUE(mergeShardedCells(dir, m, &compute, merged,
                                  workerOpts(0), oc));
    EXPECT_EQ(oc.computed, 2u); // the two mangled cells
    EXPECT_EQ(oc.loaded, 4u);
    EXPECT_EQ(oc.staleTmpRemoved, 1u);
    EXPECT_FALSE(fs::exists(staleTmp));
    EXPECT_TRUE(fs::exists(freshTmp));
    for (size_t c = 0; c < merged.size(); ++c) {
        EXPECT_EQ(serializeRunResult(merged[c]),
                  serializeRunResult(syntheticCell(c)));
    }

    // Without a compute fallback the same damage makes the merge report
    // incompleteness instead of fatal()ing or returning garbage.
    fs::resize_file(cellFilePath(dir, m, 2), 5);
    std::vector<RunResult> partial;
    ShardOutcome oc2;
    EXPECT_FALSE(mergeShardedCells(dir, m, nullptr, partial, workerOpts(0),
                                   oc2));
    EXPECT_EQ(oc2.loaded, 5u);
}

// ---------------------------------------------------------------- scaling

/**
 * The subsystem's reason to exist: N workers must genuinely overlap. Four
 * fleet workers (shard ids 0..3, one thread each) share one directory.
 * Cells that sleep (rather than burn CPU) make the measurement independent
 * of how many cores this machine has, so the >= 2.5x-at-4-shards floor
 * holds even on a 1-CPU CI container.
 */
TEST_F(ShardTest, FourShardsOverlapForAtLeast2point5x)
{
    SweepManifest m;
    m.experiment = "scaling";
    m.numRows = 10;
    m.numConfigs = 4; // 40 cells x 20 ms
    m.configNames = { "a", "b", "c", "d" };
    keyCells(m);
    auto compute = [](size_t cell) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return syntheticCell(cell);
    };
    auto timeRun = [&](unsigned shards, const std::string& sub) {
        std::string d = dir + "/" + sub;
        fs::create_directories(d);
        auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> workers;
        for (unsigned k = 0; k < shards; ++k) {
            workers.emplace_back([&, k] {
                ShardOptions o = workerOpts(static_cast<int>(k));
                o.shards = shards;
                o.pollMs = 10;
                std::vector<RunResult> out;
                runShardedCells(d, m, compute, out, o);
            });
        }
        for (std::thread& w : workers)
            w.join();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    double serial = timeRun(1, "s1");
    double sharded = timeRun(4, "s4");
    EXPECT_GE(serial, 40 * 0.020); // sanity: the sleeps really happened
    EXPECT_GE(serial / sharded, 2.5)
        << "serial " << serial << "s vs 4-shard " << sharded << "s";
}

// ------------------------------------------------------- lease heartbeats

/**
 * The ROADMAP lease-heartbeat drill: a cell that computes LONGER than the
 * lease TTL. The background mtime refresh must keep the held lease fresh
 * the whole time, so observers never see it as stale.
 */
TEST_F(ShardTest, HeartbeatKeepsLeaseFreshThroughSubComputeTtl)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 1;
    m.numConfigs = 1;
    m.configNames = { "slow" };
    keyCells(m);
    auto compute = [](size_t cell) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1600));
        return syntheticCell(cell);
    };

    ShardOutcome oc;
    std::vector<RunResult> out;
    std::thread worker([&] {
        oc = runShardedCells(dir, m, compute, out, workerOpts(0, 1));
    });

    // Sample the lease's age while the cell computes: with a 1 s TTL and a
    // ~250 ms heartbeat it must never look reclaimable.
    std::string lp = cellLeasePath(dir, m, 0);
    double maxAge = -1.0;
    for (int i = 0; i < 2000 && !fs::exists(lp); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(fs::exists(lp)) << "worker never claimed the cell";
    while (fs::exists(lp)) {
        maxAge = std::max(maxAge, leaseAgeSeconds(lp));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    worker.join();

    EXPECT_GE(maxAge, 0.0);
    EXPECT_LT(maxAge, 1.0) << "heartbeat failed to refresh the lease";
    EXPECT_EQ(oc.computed, 1u);
    EXPECT_EQ(oc.reclaimed, 0u);
}

/**
 * Two cooperating workers, cells slower than the TTL: without heartbeats
 * the idle worker would reclaim its sibling's in-progress lease and
 * benignly double-compute the cell; with them, every cell computes
 * exactly once.
 */
TEST_F(ShardTest, NoDoubleComputationWithSlowCellsAndShortTtl)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 3;
    m.numConfigs = 1; // 3 cells x 1.5 s vs a 1 s TTL
    m.configNames = { "slow" };
    keyCells(m);
    auto compute = [](size_t cell) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        return syntheticCell(cell);
    };
    auto opts = [&](int id) {
        ShardOptions o = workerOpts(id, /*ttl_sec=*/1);
        o.shards = 2;
        return o;
    };

    ShardOutcome a, b;
    std::vector<RunResult> outA, outB;
    std::thread wa([&] { a = runShardedCells(dir, m, compute, outA,
                                             opts(0)); });
    std::thread wb([&] { b = runShardedCells(dir, m, compute, outB,
                                             opts(1)); });
    wa.join();
    wb.join();

    EXPECT_EQ(a.reclaimed + b.reclaimed, 0u);
    EXPECT_EQ(a.computed + b.computed, 3u) << "a cell was double-computed";
    for (size_t c = 0; c < m.numCells(); ++c) {
        EXPECT_EQ(serializeRunResult(outA[c]),
                  serializeRunResult(syntheticCell(c)));
        EXPECT_EQ(serializeRunResult(outB[c]),
                  serializeRunResult(syntheticCell(c)));
    }
}

/**
 * The heartbeat-vs-reclaim race, from the losing side: while a worker
 * computes, its lease is usurped (as a TTL-expiry reclaim by another worker
 * would). The commit-time ownership check must detect the lost lease,
 * abandon the cell without committing over the usurper, and let the normal
 * claim loop reclaim + recompute it — exactly once, no double-commit.
 */
TEST_F(ShardTest, LostLeaseIsDetectedAtCommitAndCellAbandoned)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 1;
    m.numConfigs = 1;
    m.configNames = { "contested" };
    keyCells(m);
    std::string lp = cellLeasePath(dir, m, 0);

    unsigned invocations = 0;
    auto compute = [&](size_t cell) -> RunResult {
        if (++invocations == 1) {
            // Simulate a sibling reclaiming mid-compute: our lease file is
            // replaced by one bearing a foreign owner.
            removeLease(lp);
            LeaseRecord foreign;
            foreign.owner = "other-host:4242";
            EXPECT_TRUE(tryAcquireLease(lp, foreign));
        }
        return syntheticCell(cell);
    };

    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, compute, out,
                                      workerOpts(0, /*ttl_sec=*/1));
    EXPECT_EQ(oc.abandoned, 1u);   // first pass computed but never committed
    EXPECT_EQ(oc.computed, 1u);    // the reclaimed re-run is the only commit
    EXPECT_GE(oc.reclaimed, 1u);   // the foreign lease aged out
    EXPECT_EQ(invocations, 2u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(serializeRunResult(out[0]), serializeRunResult(syntheticCell(0)));
}

/**
 * Quarantine: a cell whose regenerated checkpoint keeps failing
 * verification (every write torn via the fault shim) must be renamed to
 * <cell>.rr.quarantined beside the store's cells after opts.quarantineAfter
 * attempts instead of being rewritten forever — while the in-memory result
 * keeps the matrix complete.
 */
TEST_F(ShardTest, PersistentlyCorruptCellIsQuarantined)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    runShardedCells(dir, m, syntheticCell, out, workerOpts(0));

    // Corrupt one committed cell, then make every rewrite tear.
    fs::resize_file(cellFilePath(dir, m, 2), 5);
    installFaultPlan("atomic.tmp.write:torn@999");

    std::vector<RunResult> merged;
    ShardOutcome oc;
    CellFn compute = syntheticCell;
    EXPECT_TRUE(mergeShardedCells(dir, m, &compute, merged, workerOpts(0),
                                  oc));
    clearFaultPlan();

    EXPECT_GE(oc.corruptCells, 1u);
    EXPECT_EQ(oc.quarantined, 1u);
    EXPECT_FALSE(fs::exists(cellFilePath(dir, m, 2))); // moved, not left
    EXPECT_TRUE(fs::exists(cellFilePath(dir, m, 2) + ".quarantined"));
    ASSERT_EQ(merged.size(), m.numCells());
    for (size_t c = 0; c < merged.size(); ++c) {
        EXPECT_EQ(serializeRunResult(merged[c]),
                  serializeRunResult(syntheticCell(c)));
    }
}

/**
 * The lease-expiry skew guard: with injected clock skew larger than the
 * lease's raw age, the adjusted age goes negative. It must be clamped to 0
 * (fresh — never "instantly reclaimable") and counted, and the sweep must
 * still complete once the lease's real owner commits the cell.
 */
TEST_F(ShardTest, ClockSkewOnLeaseAgeIsClampedNotReclaimed)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 1;
    m.numConfigs = 1;
    m.configNames = { "skewed" };
    keyCells(m);
    fs::create_directories(cellStoreDir(dir));
    std::string lp = cellLeasePath(dir, m, 0);
    LeaseRecord other;
    other.owner = "other-host:99999";
    ASSERT_TRUE(tryAcquireLease(lp, other));

    installFaultPlan("lease.age:skew@400");
    std::thread committer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ASSERT_TRUE(saveRunResult(cellFilePath(dir, m, 0), syntheticCell(0),
                                  true));
        removeLease(lp);
    });
    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, syntheticCell, out,
                                      workerOpts(0, /*ttl_sec=*/300));
    committer.join();
    clearFaultPlan();

    EXPECT_GE(oc.skewClamped, 1u); // raw age ~0 minus 400 s of skew
    EXPECT_EQ(oc.reclaimed, 0u);   // clamped-to-fresh is never reclaimed
    EXPECT_EQ(oc.computed, 0u);    // the real owner's commit was honored
    EXPECT_EQ(serializeRunResult(out[0]),
              serializeRunResult(syntheticCell(0)));
}

// ------------------------------------------------------------ claim order

/** Claim order: with `.cost` sidecars from an earlier pass, the most
 *  expensive config's cells come first (rows ascending within a config)
 *  and a config without sidecars gets the mean observed cost; without
 *  sidecars, worker k of N starts its scan at cell k * n / N. */
TEST_F(ShardTest, ClaimOrderFollowsSidecarsElseStride)
{
    SweepManifest m = syntheticManifest(); // cells are row * 3 + cfg
    auto claimOrder = [&](const std::string& root, ShardOptions o) {
        std::vector<size_t> order;
        auto compute = [&](size_t cell) {
            order.push_back(cell); // serial worker: no locking needed
            return syntheticCell(cell);
        };
        std::vector<RunResult> out;
        ShardOutcome oc = runShardedCells(root, m, compute, out, o);
        EXPECT_EQ(oc.computed, m.numCells());
        return order;
    };

    // Sidecars only (no checkpoints), so every cell is still computed:
    // cfg 2 costs 2 s, cfg 1 costs 0.5 s, and cfg 0 has none, so it gets
    // the mean 1.25 s and lands between them.
    fs::create_directories(cellStoreDir(dir));
    const std::vector<std::pair<size_t, const char*>> sidecars = {
        { 2, "2.0" }, { 5, "2.0" }, { 1, "0.5" }
    };
    for (const auto& [cell, sec] : sidecars)
        std::ofstream(cellFilePath(dir, m, cell) + ".cost") << sec;
    std::vector<size_t> ranked = { 2, 5, 0, 3, 1, 4 };
    EXPECT_EQ(claimOrder(dir, workerOpts(0)), ranked);

    // A fresh directory: worker 1 of 2 starts at cell n / 2.
    ShardOptions second = workerOpts(1);
    second.shards = 2;
    std::string fresh = dir + "/fresh";
    fs::create_directories(fresh);
    std::vector<size_t> stride = { 3, 4, 5, 0, 1, 2 };
    EXPECT_EQ(claimOrder(fresh, second), stride);
}

// --------------------------------------------------- experiment integration

ExperimentOptions
tinyOpts()
{
    ExperimentOptions o;
    o.threads = 1;
    o.traceOps = 1500;
    return o;
}

std::vector<WorkloadSpec>
twoSpecs()
{
    auto specs = smokeSuite(1500);
    specs.resize(2);
    return specs;
}

/** A lone --shards=3 (no shard id) runs the sweep on three pool threads,
 *  with checkpoint commits when a checkpoint dir is set. */
TEST_F(ShardTest, LoneShardsFlagMatchesSerialRunBitExactly)
{
    ExperimentOptions serial = tinyOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), serial);
    auto build = [&](const ExperimentOptions& o) {
        Experiment e("lone-shards", suite, o);
        e.add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .add("eves", mechFor("eves"));
        return e;
    };
    auto ref = build(serial).run();

    ExperimentOptions sharded = tinyOpts();
    sharded.shards = 3;
    sharded.checkpointDir = dir;
    EXPECT_FALSE(sharded.shard().active());
    EXPECT_EQ(sharded.batch().threads, 3u);
    auto res = build(sharded).run();
    EXPECT_EQ(res.resumedCells(), 0u); // fresh sweep: nothing was resumed

    ASSERT_EQ(res.matrix().results.size(), ref.matrix().results.size());
    for (size_t c = 0; c < ref.matrix().results.size(); ++c) {
        EXPECT_EQ(serializeRunResult(res.matrix().results[c]),
                  serializeRunResult(ref.matrix().results[c]));
    }
    EXPECT_EQ(res.matrix().fingerprint(), ref.matrix().fingerprint());
    EXPECT_EQ(res.matrix().aggregateStats().all(),
              ref.matrix().aggregateStats().all());

    // The checkpoint dir now holds the finished sweep: merge() assembles
    // the same matrix without simulating.
    auto merged = build(sharded).merge();
    EXPECT_EQ(merged.matrix().fingerprint(), ref.matrix().fingerprint());
    EXPECT_EQ(merged.resumedCells(), 6u);
}

TEST_F(ShardTest, WorkerModeRequiresCheckpointDir)
{
    ExperimentOptions o = tinyOpts();
    o.shards = 2;
    o.shardId = 1;
    Suite suite = Suite::fromSpecs(twoSpecs(), o);
    Experiment e("nockpt", suite, o);
    e.add("baseline", mechFor("baseline"));
    EXPECT_EXIT(e.run(), ::testing::ExitedWithCode(1),
                "needs --checkpoint-dir");
}

TEST_F(ShardTest, ShardIdBeyondShardCountIsFatal)
{
    ExperimentOptions o = tinyOpts();
    o.shards = 2;
    o.shardId = 2;
    EXPECT_EXIT(o.shard(), ::testing::ExitedWithCode(1), "out of range");
}

TEST(ShardOptionsParse, FlagsAndEnvRoundTrip)
{
    const char* argv[] = { "prog", "--shards=4", "--shard-id=2",
                           "--lease-ttl-sec=7", "--shard-poll-ms=5" };
    auto opts = ExperimentOptions::fromArgs(
        static_cast<int>(std::size(argv)), const_cast<char**>(argv));
    EXPECT_EQ(opts.shards, 4u);
    EXPECT_EQ(opts.shardId, 2);
    EXPECT_EQ(opts.leaseTtlSec, 7u);
    EXPECT_EQ(opts.shardPollMs, 5u);
    EXPECT_FALSE(opts.printsReport()); // shard 2 stays silent
    ShardOptions s = opts.shard();
    EXPECT_EQ(s.shards, 4u);
    EXPECT_EQ(s.shardId, 2);

    setenv("CONSTABLE_SHARDS", "3", 1);
    setenv("CONSTABLE_SHARD_ID", "0", 1);
    auto env = ExperimentOptions::fromEnv();
    unsetenv("CONSTABLE_SHARDS");
    unsetenv("CONSTABLE_SHARD_ID");
    EXPECT_EQ(env.shards, 3u);
    EXPECT_EQ(env.shardId, 0);
    EXPECT_TRUE(env.printsReport()); // shard 0 is the reporter
}

TEST(ShardOptionsParseDeathTest, OutOfRangeValuesAreFatal)
{
    const char* argv[] = { "prog", "--shards=0" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(1), "must be in");
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_SHARDS", "100000", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_SHARDS");
}

} // namespace
} // namespace constable
