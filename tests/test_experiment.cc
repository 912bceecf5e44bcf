/**
 * @file
 * Tests for the unified experiment API: binary trace/result serialization
 * (byte-stable round trips, corruption fallback), the CONSTABLE_TRACE_DIR
 * suite cache (warm-cache invocations skip generation and are bit-identical
 * to fresh ones), per-cell checkpoint/resume (a half-completed sweep
 * resumes to a bit-identical result), the content-addressed cell store
 * (cells are shared across experiments by what they simulate, never by
 * name), and strict option parsing from env and CLI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/env.hh"
#include "common/obs.hh"
#include "sim/cell_key.hh"
#include "sim/experiment.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

/** Fresh temp directory per test, removed on teardown. */
class TempDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = fs::temp_directory_path() /
                           "constable-test-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

std::vector<WorkloadSpec>
twoSpecs(size_t ops = 1500)
{
    auto specs = smokeSuite(ops);
    specs.resize(2);
    return specs;
}

/** Byte offset of the first op record in a trace encoding. */
size_t
firstOpOffset(const Trace& t)
{
    return 4 + 4 + (4 + t.name.size()) + (4 + t.category.size()) + 4 + 8;
}

/** Recompute the trailing checksum after an edit, so only the decoder's
 *  own field checks stand between the bytes and the core. */
void
reseal(std::vector<uint8_t>& bytes)
{
    size_t n = bytes.size() - 8;
    uint64_t h = fnv1a(bytes.data(), n);
    for (int i = 0; i < 8; ++i)
        bytes[n + i] = static_cast<uint8_t>(h >> (8 * i));
}

/** A trace in trace-format version 1: 40-byte op records that also carried
 *  a branch target, under the version tag kSerializeVersion had then. */
std::vector<uint8_t>
legacyV1TraceBytes(const Trace& t)
{
    std::vector<uint8_t> b;
    auto u8 = [&](uint8_t v) { b.push_back(v); };
    auto le = [&](uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            b.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    auto str = [&](const std::string& s) {
        le(s.size(), 4);
        b.insert(b.end(), s.begin(), s.end());
    };
    le(0x43545243, 4); // "CTRC"
    le(1, 4);
    str(t.name);
    str(t.category);
    le(t.numArchRegs, 4);
    le(t.ops.size(), 8);
    for (const MicroOp& op : t.ops) {
        le(op.pc, 8);
        u8(static_cast<uint8_t>(op.cls));
        u8(static_cast<uint8_t>(op.addrMode));
        for (uint8_t r : op.src)
            u8(r);
        u8(op.dst);
        u8(op.size);
        le(op.effAddr, 8);
        le(op.value, 8);
        u8(op.taken ? 1 : 0);
        le(0, 8); // branch target
    }
    le(t.snoops.size(), 8);
    for (const SnoopEvent& sn : t.snoops) {
        le(sn.beforeSeq, 8);
        le(sn.addr, 8);
    }
    le(0, 8);
    reseal(b);
    return b;
}

ExperimentOptions
serialOpts()
{
    ExperimentOptions opts;
    opts.threads = 1;
    opts.traceOps = 1500;
    return opts;
}

// ------------------------------------------------------------ serialization

TEST(TraceSerialize, RoundTripIsByteStableAndLossless)
{
    Trace t = generateTrace(twoSpecs()[0]);
    t.snoops.push_back({ 17, 0xdeadbe00 });

    auto bytes = serializeTrace(t);
    Trace back;
    ASSERT_TRUE(deserializeTrace(bytes, back));

    EXPECT_EQ(back.name, t.name);
    EXPECT_EQ(back.category, t.category);
    EXPECT_EQ(back.numArchRegs, t.numArchRegs);
    ASSERT_EQ(back.ops.size(), t.ops.size());
    for (size_t i = 0; i < t.ops.size(); ++i) {
        EXPECT_EQ(back.ops[i].pc, t.ops[i].pc);
        EXPECT_EQ(back.ops[i].cls, t.ops[i].cls);
        EXPECT_EQ(back.ops[i].effAddr, t.ops[i].effAddr);
        EXPECT_EQ(back.ops[i].value, t.ops[i].value);
    }
    ASSERT_EQ(back.snoops.size(), t.snoops.size());
    EXPECT_EQ(back.snoops.back().addr, 0xdeadbe00u);

    // Byte stability: re-encoding the decoded trace reproduces the bytes.
    EXPECT_EQ(serializeTrace(back), bytes);
}

TEST(TraceSerialize, RejectsCorruptionAndTruncation)
{
    Trace t = generateTrace(twoSpecs()[0]);
    auto bytes = serializeTrace(t);

    Trace out;
    EXPECT_FALSE(deserializeTrace({}, out));

    auto truncated = bytes;
    truncated.resize(bytes.size() / 2);
    EXPECT_FALSE(deserializeTrace(truncated, out));

    auto flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    EXPECT_FALSE(deserializeTrace(flipped, out));

    auto wrongMagic = bytes;
    wrongMagic[0] ^= 0xff;
    EXPECT_FALSE(deserializeTrace(wrongMagic, out));

    // A resealed file passes the checksum, so the record decoder must
    // reject every field the core could not interpret or index (src = 40
    // would index renameMap out of bounds). Offsets are into op 0's record.
    const size_t op0 = firstOpOffset(t);
    auto validEdit = bytes;
    validEdit[op0 + 10] = kMaxArchRegs - 1;
    reseal(validEdit);
    EXPECT_TRUE(deserializeTrace(validEdit, out)) << "control edit";
    struct FieldCase
    {
        const char* field;
        size_t offset;
        uint8_t value;
    };
    const FieldCase cases[] = {
        { "op class", 8, static_cast<uint8_t>(OpClass::Nop) + 1 },
        { "address mode", 9, static_cast<uint8_t>(AddrMode::RegRel) + 1 },
        { "src[0]", 10, 40 },
        { "src[1]", 11, kMaxArchRegs },
        { "src[2]", 12, 0xfe },
        { "dst", 13, 40 },
        { "size 0", 14, 0 },
        { "size 9", 14, 9 },
        { "taken", 15, 2 },
    };
    for (const FieldCase& c : cases) {
        auto bad = bytes;
        bad[op0 + c.offset] = c.value;
        reseal(bad);
        EXPECT_FALSE(deserializeTrace(bad, out)) << c.field;
    }
}

TEST(TraceSerialize, OpRecordIsTheInMemoryMicroOp)
{
    static_assert(sizeof(MicroOp) == 32 &&
                  std::is_trivially_copyable_v<MicroOp>);
    static_assert(sizeof(MicroOp) == kTraceOpRecordBytes);
    Trace t = generateTrace(twoSpecs()[0]);
    t.snoops.push_back({ 3, 0x1000 });
    EXPECT_EQ(serializeTrace(t).size(),
              firstOpOffset(t) + t.ops.size() * kTraceOpRecordBytes + 8 +
                  16 * t.snoops.size() + 8);
}

TEST(RunResultSerialize, RoundTripPreservesStatsBitExactly)
{
    auto specs = twoSpecs();
    Trace t = generateTrace(specs[0]);
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    r.stats.set("test.awkward", 0.1 + 0.2); // not exactly representable

    auto bytes = serializeRunResult(r);
    RunResult back;
    ASSERT_TRUE(deserializeRunResult(bytes, back));

    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.instructions, r.instructions);
    EXPECT_EQ(back.threadInstructions, r.threadInstructions);
    EXPECT_EQ(back.threadFinishCycle, r.threadFinishCycle);
    EXPECT_EQ(back.goldenCheckFailed, r.goldenCheckFailed);
    // The full named map, doubles compared bit-exactly via ==.
    EXPECT_EQ(back.stats.all(), r.stats.all());
    EXPECT_EQ(serializeRunResult(back), bytes);

    auto truncated = bytes;
    truncated.resize(bytes.size() - 9);
    EXPECT_FALSE(deserializeRunResult(truncated, back));
}

TEST(TraceSerialize, SpecHashSeparatesSpecs)
{
    auto specs = twoSpecs();
    EXPECT_NE(specHash(specs[0]), specHash(specs[1]));

    WorkloadSpec scaled = specs[0];
    scaled.targetOps *= 2; // CONSTABLE_TRACE_OPS must invalidate the cache
    EXPECT_NE(specHash(scaled), specHash(specs[0]));

    WorkloadSpec apx = specs[0];
    apx.numArchRegs = 32;
    EXPECT_NE(specHash(apx), specHash(specs[0]));
}

// -------------------------------------------------------------- trace cache

class TraceCache : public TempDirTest
{};

TEST_F(TraceCache, WarmCacheSkipsGenerationAndIsIdentical)
{
    ExperimentOptions opts = serialOpts();
    opts.traceDir = dir;

    Suite cold = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(cold.cacheMisses(), 2u);
    EXPECT_EQ(cold.cacheHits(), 0u);

    // Second invocation: every trace comes from disk, none regenerated.
    Suite warm = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(warm.cacheHits(), 2u);
    EXPECT_EQ(warm.cacheMisses(), 0u);

    // Cached traces are byte-identical to freshly generated ones.
    ExperimentOptions noCache = serialOpts();
    Suite fresh = Suite::fromSpecs(twoSpecs(), noCache);
    for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(serializeTrace(warm.trace(i)),
                  serializeTrace(fresh.trace(i)));
    }
}

TEST_F(TraceCache, CacheHitProducesIdenticalRunResult)
{
    ExperimentOptions opts = serialOpts();
    opts.traceDir = dir;

    auto runBoth = [&](const Suite& suite) {
        return Experiment("cachecheck", suite, opts)
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .run();
    };
    Suite cold = Suite::fromSpecs(twoSpecs(), opts);
    Suite warm = Suite::fromSpecs(twoSpecs(), opts);
    ASSERT_EQ(warm.cacheHits(), 2u);

    auto a = runBoth(cold);
    auto b = runBoth(warm);
    EXPECT_EQ(a.matrix().fingerprint(), b.matrix().fingerprint());
    EXPECT_EQ(a.matrix().aggregateStats().all(),
              b.matrix().aggregateStats().all());
}

TEST_F(TraceCache, CorruptOrTruncatedFilesFallBackToRegeneration)
{
    ExperimentOptions opts = serialOpts();
    opts.traceDir = dir;
    Suite cold = Suite::fromSpecs(twoSpecs(), opts);
    ASSERT_EQ(cold.cacheMisses(), 2u);

    // Truncate one cache file, corrupt the other in place.
    std::vector<std::string> files;
    for (const auto& e : fs::directory_iterator(dir))
        files.push_back(e.path().string());
    ASSERT_EQ(files.size(), 2u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 3);
    {
        std::fstream f(files[1],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(64);
        f.put('\x7f');
    }

    // No crash: both entries regenerate (and rewrite the cache)...
    Suite repaired = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(repaired.cacheMisses(), 2u);
    Suite fresh = Suite::fromSpecs(twoSpecs(), serialOpts());
    for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(serializeTrace(repaired.trace(i)),
                  serializeTrace(fresh.trace(i)));
    }
    // ...and the rewritten files serve hits again.
    Suite warm = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(warm.cacheHits(), 2u);

    // A cache directory from before the 32-byte record: the same paths
    // (the spec hash does not cover the trace version), the previous
    // encoding. Both entries fail to load and regenerate to a cold build.
    auto specs = twoSpecs();
    for (size_t i = 0; i < specs.size(); ++i) {
        std::string path = traceCachePath(dir, specs[i]);
        ASSERT_TRUE(
            writeFileAtomic(path, legacyV1TraceBytes(fresh.trace(i))));
        Trace stale;
        EXPECT_FALSE(loadTrace(path, stale));
    }
    Suite upgraded = Suite::fromSpecs(specs, opts);
    EXPECT_EQ(upgraded.cacheMisses(), 2u);
    for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(serializeTrace(upgraded.trace(i)),
                  serializeTrace(fresh.trace(i)));
    }
    EXPECT_EQ(Suite::fromSpecs(specs, opts).cacheHits(), 2u);
}

// --------------------------------------------------- streamed trace encoding

class TraceStream : public TempDirTest
{};

TEST_F(TraceStream, SavedFileAndContentHashMatchTheBufferedEncoding)
{
    WorkloadSpec spec = twoSpecs()[0];
    spec.targetOps = 3 * kTraceChunkBytes / kTraceOpRecordBytes;
    Trace t = generateTrace(spec);
    t.snoops.push_back({ 5, 0xdeadbe00 });
    auto bytes = serializeTrace(t);
    ASSERT_GT(bytes.size(), 3 * kTraceChunkBytes); // several chunks

    std::string path = dir + "/multi-chunk.trace";
    ASSERT_TRUE(saveTrace(path, t));
    std::vector<uint8_t> onDisk;
    ASSERT_TRUE(readFileBytes(path, onDisk));
    EXPECT_EQ(onDisk, bytes);
    EXPECT_EQ(traceContentHash(t), fnv1a(bytes.data(), bytes.size()));

    Trace back;
    ASSERT_TRUE(loadTrace(path, back));
    EXPECT_EQ(serializeTrace(back), bytes);
}

// --------------------------------------------------------- checkpoint/resume

class Checkpoint : public TempDirTest
{};

TEST_F(Checkpoint, ResumeFromPartialCheckpointIsBitIdentical)
{
    ExperimentOptions opts = serialOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);

    auto makeExp = [&](const ExperimentOptions& o) {
        Experiment e("resume", suite, o);
        e.add("baseline", mechFor("baseline"))
            .add("eves", mechFor("eves"))
            .add("constable", mechFor("constable"));
        return e;
    };

    // Uninterrupted reference, no checkpointing.
    auto ref = makeExp(opts).run();

    // Full checkpointed run, then drop half the cells to model a kill.
    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    auto first = makeExp(ck).run();
    EXPECT_EQ(first.resumedCells(), 0u);
    EXPECT_EQ(first.matrix().fingerprint(), ref.matrix().fingerprint());

    std::vector<std::string> cells;
    for (const auto& sub : fs::directory_iterator(dir)) {
        for (const auto& f : fs::directory_iterator(sub.path())) {
            if (f.path().extension() == ".rr") // skip the sweep manifest
                cells.push_back(f.path().string());
        }
    }
    ASSERT_EQ(cells.size(), 6u); // 2 rows x 3 configs
    std::sort(cells.begin(), cells.end());
    for (size_t i = 0; i < cells.size() / 2; ++i)
        fs::remove(cells[i]);

    // Resume: half the cells load from disk, the rest re-simulate; the
    // merged result must be bit-identical to the uninterrupted run.
    auto resumed = makeExp(ck).run();
    EXPECT_EQ(resumed.resumedCells(), 3u);
    EXPECT_EQ(resumed.matrix().fingerprint(), ref.matrix().fingerprint());
    EXPECT_EQ(resumed.matrix().aggregateStats().all(),
              ref.matrix().aggregateStats().all());

    // A fully warm checkpoint resumes every cell.
    auto warm = makeExp(ck).run();
    EXPECT_EQ(warm.resumedCells(), 6u);
    EXPECT_EQ(warm.matrix().fingerprint(), ref.matrix().fingerprint());
}

/**
 * The 0-byte-cell regression: a checkpoint cell truncated to nothing (a
 * crash between open and first write, or an enospc-starved writer) and one
 * holding garbage must both be treated as corrupt — regenerated with a
 * counted warning, never trusted, never fatal — and the resumed sweep must
 * stay bit-identical to an uninterrupted run.
 */
TEST_F(Checkpoint, ZeroByteAndGarbageCellsAreRegeneratedNotTrusted)
{
    ExperimentOptions opts = serialOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);
    auto makeExp = [&](const ExperimentOptions& o) {
        Experiment e("zerobyte", suite, o);
        e.add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"));
        return e;
    };
    auto ref = makeExp(opts).run();

    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    makeExp(ck).run();
    std::vector<std::string> cells;
    for (const auto& sub : fs::directory_iterator(dir))
        for (const auto& f : fs::directory_iterator(sub.path()))
            if (f.path().extension() == ".rr")
                cells.push_back(f.path().string());
    ASSERT_EQ(cells.size(), 4u); // 2 rows x 2 configs
    std::sort(cells.begin(), cells.end());
    fs::resize_file(cells[0], 0);              // the classic 0-byte cell
    std::ofstream(cells[1]) << "not a cell";   // and a garbage sibling

    auto resumed = makeExp(ck).run();
    EXPECT_EQ(resumed.resumedCells(), 2u); // only the intact pair loads
    EXPECT_EQ(resumed.matrix().fingerprint(), ref.matrix().fingerprint());
    EXPECT_EQ(resumed.matrix().aggregateStats().all(),
              ref.matrix().aggregateStats().all());

    // The regenerated cells are back on disk and trusted on the next run.
    auto warm = makeExp(ck).run();
    EXPECT_EQ(warm.resumedCells(), 4u);
    EXPECT_EQ(warm.matrix().fingerprint(), ref.matrix().fingerprint());
}

/** Stored cells (*.rr) in a checkpoint root's cell store. */
size_t
storedCells(const std::string& root)
{
    size_t n = 0;
    for (const auto& f : fs::directory_iterator(cellStoreDir(root)))
        n += f.path().extension() == ".rr";
    return n;
}

TEST_F(Checkpoint, SmtSweepCheckpointsSeparatelyFromNoSmt)
{
    ExperimentOptions ck = serialOpts();
    ck.checkpointDir = dir;
    Suite suite = Suite::fromSpecs(twoSpecs(), ck);

    auto makeExp = [&]() {
        Experiment e("smt-vs-not", suite, ck);
        e.add("baseline", mechFor("baseline"));
        return e;
    };
    auto plain = makeExp().run();
    EXPECT_EQ(storedCells(dir), 2u); // 2 rows x 1 config
    auto smt = makeExp().runSmt();
    EXPECT_EQ(smt.resumedCells(), 0u); // distinct key: no cross-pollution
    EXPECT_EQ(storedCells(dir), 3u);   // + 1 pair x 1 config, same store
    EXPECT_NE(plain.matrix().fingerprint(), smt.matrix().fingerprint());

    auto smtAgain = makeExp().runSmt();
    EXPECT_EQ(smtAgain.resumedCells(), 1u); // 1 pair x 1 config
    EXPECT_EQ(smtAgain.matrix().fingerprint(), smt.matrix().fingerprint());
}

// --------------------------------------------------------------- cell store

class CellStore : public TempDirTest
{
  protected:
    void TearDown() override
    {
        obsReset();
        TempDirTest::TearDown();
    }
};

/** Every cell of two results is byte-identical. */
void
expectSameCells(const ExperimentResult& a, const ExperimentResult& b)
{
    ASSERT_EQ(a.matrix().results.size(), b.matrix().results.size());
    for (size_t c = 0; c < a.matrix().results.size(); ++c) {
        EXPECT_EQ(serializeRunResult(a.matrix().results[c]),
                  serializeRunResult(b.matrix().results[c]))
            << "cell " << c;
    }
}

/**
 * The stale-name hazard: a column whose parameters change under an
 * unchanged experiment and config name must miss the store and match a
 * run with no checkpoint directory, never be served the old cells.
 */
TEST_F(CellStore, ParameterChangeUnderAnUnchangedNameMissesTheStore)
{
    ExperimentOptions opts = serialOpts();
    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);

    auto run = [&](const ExperimentOptions& o, MechanismConfig mech,
                   CoreConfig core) {
        return Experiment("hazard", suite, o)
            .add("constable", std::move(mech), core)
            .run();
    };
    auto original = run(ck, mechFor("constable"), CoreConfig{});
    EXPECT_EQ(original.resumedCells(), 0u);

    CoreConfig narrow;
    narrow.loadPorts = 1;
    auto changedCore = run(ck, mechFor("constable"), narrow);
    EXPECT_EQ(changedCore.resumedCells(), 0u);
    EXPECT_NE(changedCore.matrix().fingerprint(),
              original.matrix().fingerprint());
    expectSameCells(changedCore, run(opts, mechFor("constable"), narrow));

    MechanismConfig eager = mechFor("constable");
    eager.constable.sld.confThreshold = 2;
    auto changedMech = run(ck, eager, CoreConfig{});
    EXPECT_EQ(changedMech.resumedCells(), 0u);
    expectSameCells(changedMech, run(opts, eager, CoreConfig{}));

    // The unchanged column still resumes from its own cells.
    auto again = run(ck, mechFor("constable"), CoreConfig{});
    EXPECT_EQ(again.resumedCells(), 2u);
    expectSameCells(again, original);
}

/**
 * Identically configured columns under different experiment and config
 * names are the same cells: the second experiment simulates nothing and
 * is bit-identical to a fresh run.
 */
TEST_F(CellStore, IdenticalColumnsUnderOtherNamesShareCells)
{
    ExperimentOptions opts = serialOpts();
    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);

    Experiment("first", suite, ck)
        .addPreset("baseline")
        .addPreset("constable")
        .addPreset("ideal-constable")
        .run();

    obsArm();
    ObsCounter& misses = obsCounter("ckpt.cell.miss");
    ObsCounter& hits = obsCounter("ckpt.cell.hit");
    uint64_t missesBefore = misses.value();
    uint64_t hitsBefore = hits.value();
    auto build = [&](const ExperimentOptions& o) {
        Experiment e("second", suite, o);
        e.add("base", mechFor("baseline"))
            .add("elim", mechFor("constable"))
            .addPreset("ideal-constable");
        return e;
    };
    auto second = build(ck).run();
    EXPECT_EQ(misses.value() - missesBefore, 0u); // simulated nothing
    EXPECT_EQ(hits.value() - hitsBefore, 6u);
    EXPECT_EQ(second.resumedCells(), second.matrix().results.size());
    expectSameCells(second, build(opts).run());
    EXPECT_EQ(storedCells(dir), 6u);
}

/** Two columns of one sweep with one configuration simulate once. */
TEST_F(CellStore, DuplicateColumnsInOneSweepSimulateOnce)
{
    ExperimentOptions opts = serialOpts();
    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);
    auto build = [&](const ExperimentOptions& o) {
        Experiment e("dup", suite, o);
        e.add("baseline", mechFor("baseline"))
            .add("baseline-again", mechFor("baseline"));
        return e;
    };
    auto res = build(ck).run();
    EXPECT_EQ(res.resumedCells(), 2u); // one duplicate per row
    EXPECT_EQ(storedCells(dir), 2u);
    expectSameCells(res, build(opts).run());
}

/** Keys separate every input a cell's result depends on. */
TEST_F(CellStore, KeysSeparateWhatTheCellsSimulate)
{
    ExperimentOptions opts = serialOpts();
    Suite inspected = Suite::fromSpecs(twoSpecs(), opts);
    Suite plain = Suite::fromSpecs(twoSpecs(), opts, /*inspect=*/false);
    auto keys = [](const Suite& s, const ExperimentOptions& o, bool smt) {
        Experiment e("keys", s, o);
        e.add("baseline", mechFor("baseline"));
        return e.manifest(smt).cellKeys;
    };
    auto disjoint = [](const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
        for (uint64_t k : a) {
            if (std::find(b.begin(), b.end(), k) != b.end())
                return false;
        }
        return true;
    };
    const auto base = keys(inspected, opts, false);
    ASSERT_EQ(base.size(), 2u);
    EXPECT_NE(base[0], base[1]);
    EXPECT_EQ(base, keys(inspected, opts, false)); // deterministic

    // SMT pairs vs single-thread rows; inspected vs uninspected suites.
    EXPECT_TRUE(disjoint(base, keys(inspected, opts, true)));
    EXPECT_TRUE(disjoint(base, keys(plain, opts, false)));

    // Sampled cells (spec and seed) are separated by
    // SampleCheckpoint.SampledAndFullCellsNeverCollide.

    // Oracle presets key on their global-stable set, not its order.
    std::unordered_set<PC> a = { 0x400, 0x404, 0x408 };
    std::unordered_set<PC> b = { 0x400, 0x404, 0x40c };
    std::unordered_set<PC> aReordered;
    aReordered.reserve(64);
    for (PC pc : { 0x408, 0x400, 0x404 })
        aReordered.insert(pc);
    auto oracle = [](const std::unordered_set<PC>& gs) {
        return configHash({ CoreConfig{}, mechFor("ideal-constable", &gs) });
    };
    EXPECT_NE(oracle(a), oracle(b));
    EXPECT_EQ(oracle(a), oracle(aReordered));

    // An edited hand-built trace changes its row key
    // (Suite.FromTracesSupportsHandBuiltWorkloads), and so its cells' keys.
}

// ----------------------------------------------------------- option parsing

TEST(Options, StrictParserAcceptsPlainDecimal)
{
    EXPECT_EQ(parseU64Strict("X", "42"), 42u);
    EXPECT_EQ(parseU64Strict("X", "0"), 0u);
    EXPECT_EQ(parseU64Strict("X", " 7"), 7u);
    EXPECT_EQ(parseU64Strict("X", "18446744073709551615"), UINT64_MAX);
}

TEST(OptionsDeathTest, StrictParserRejectsGarbage)
{
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", "abc"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", "4x"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", ""),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", "-3"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SEED",
                               "99999999999999999999999999"),
                ::testing::ExitedWithCode(1), "non-negative integer");
}

TEST(OptionsDeathTest, OctalAndHexSurprisesAreFatalNotRebased)
{
    // The historical bug: strtoull(..., 0) auto-detected the base, so
    // CONSTABLE_SHARDS=010 silently meant 8 workers and 0x10 meant 16.
    // Both now terminate instead of being silently reinterpreted.
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SHARDS", "010"),
                ::testing::ExitedWithCode(1), "base-10");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SHARDS", "0x10"),
                ::testing::ExitedWithCode(1), "base-10");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SHARDS", "00"),
                ::testing::ExitedWithCode(1), "base-10");
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_SHARDS", "010", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_SHARDS");
}

TEST(OptionsDeathTest, MalformedEnvIsFatalNotSilent)
{
    // The historical bug: CONSTABLE_THREADS=abc silently became 0 (all
    // cores). Now it must terminate with a clear message.
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_THREADS", "abc", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_THREADS");
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_TRACE_OPS", "0", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_TRACE_OPS");
}

TEST(Options, FromArgsOverridesEnv)
{
    setenv("CONSTABLE_THREADS", "2", 1);
    const char* argv[] = { "prog", "--threads=5", "--seed", "42",
                           "--trace-ops=4000", "--suite-limit=3",
                           "--trace-dir=/tmp/x", "--checkpoint-dir",
                           "/tmp/y" };
    auto opts = ExperimentOptions::fromArgs(
        static_cast<int>(std::size(argv)), const_cast<char**>(argv));
    unsetenv("CONSTABLE_THREADS");

    EXPECT_EQ(opts.threads, 5u);
    EXPECT_EQ(opts.seed, 42u);
    EXPECT_EQ(opts.traceOps, 4000u);
    EXPECT_EQ(opts.suiteLimit, 3u);
    EXPECT_EQ(opts.traceDir, "/tmp/x");
    EXPECT_EQ(opts.checkpointDir, "/tmp/y");
}

TEST(OptionsDeathTest, UnknownFlagIsFatal)
{
    const char* argv[] = { "prog", "--no-such-flag=1" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(1), "unknown argument");
}

// ------------------------------------------------------------- facade shape

TEST(Experiment, MatchesDirectRunTraceBitExactly)
{
    ExperimentOptions opts = serialOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);

    auto res = Experiment("parity", suite, opts)
                   .add("baseline", mechFor("baseline"))
                   .add("constable", mechFor("constable"))
                   .run();

    // The same cells run by hand, row-major, each through runTrace with
    // its row's stats-classification set.
    std::vector<SystemConfig> configs = {
        { CoreConfig{}, mechFor("baseline") },
        { CoreConfig{}, mechFor("constable") },
    };
    MatrixResult direct;
    direct.numRows = suite.size();
    direct.numConfigs = configs.size();
    direct.results.resize(direct.numRows * direct.numConfigs);
    forEachJob(direct.results.size(), [&](size_t job, Rng&) {
        size_t row = job / direct.numConfigs;
        direct.results[job] =
            runTrace(suite.trace(row), configs[job % direct.numConfigs],
                     &suite.globalStablePcs(row));
    }, opts.batch());

    ASSERT_EQ(res.matrix().results.size(), direct.results.size());
    EXPECT_EQ(res.matrix().fingerprint(), direct.fingerprint());
    EXPECT_EQ(res.matrix().aggregateStats().all(),
              direct.aggregateStats().all());
    // Name-addressed accessors hit the right cells.
    EXPECT_EQ(res.at(1, "constable").cycles, direct.at(1, 1).cycles);
    EXPECT_EQ(res.speedups("constable", "baseline")[0],
              speedup(direct.at(0, 1), direct.at(0, 0)));
}

TEST(ExperimentDeathTest, UnknownConfigNameIsFatal)
{
    ExperimentOptions opts = serialOpts();
    auto specs = twoSpecs();
    specs.resize(1);
    Suite suite = Suite::fromSpecs(specs, opts);
    auto res = Experiment("names", suite, opts)
                   .add("baseline", mechFor("baseline"))
                   .run();
    EXPECT_EXIT(res.at(0, "typo"), ::testing::ExitedWithCode(1),
                "no configuration named");
}

TEST(Suite, FromTracesSupportsHandBuiltWorkloads)
{
    auto specs = twoSpecs();
    std::vector<Trace> traces;
    traces.push_back(generateTrace(specs[0]));
    traces.push_back(generateTrace(specs[1]));
    std::string name0 = traces[0].name;

    Suite suite = Suite::fromTraces(std::move(traces));
    EXPECT_EQ(suite.size(), 2u);
    EXPECT_EQ(suite.spec(0).name, name0);
    EXPECT_TRUE(suite.inspected());
    EXPECT_EQ(suite.gsPtrs().size(), 2u);

    // Cells key on the trace bytes: an edited hand-built trace with the
    // same name must change its row key.
    std::vector<Trace> edited;
    edited.push_back(generateTrace(specs[0]));
    edited.push_back(generateTrace(specs[1]));
    edited[0].ops[0].value ^= 1;
    Suite editedSuite = Suite::fromTraces(std::move(edited));
    EXPECT_NE(editedSuite.rowKey(0), suite.rowKey(0));
    EXPECT_EQ(editedSuite.rowKey(1), suite.rowKey(1));
}

// ----------------------------------------------------------- cache trimming

class CacheTrim : public TempDirTest
{
  protected:
    /** Drop a file of @p bytes into the cache dir, backdated by @p ageSec. */
    std::string
    put(const std::string& name, size_t bytes, uint64_t age_sec = 0)
    {
        std::string p = dir + "/" + name;
        std::ofstream f(p, std::ios::binary);
        f << std::string(bytes, 'x');
        f.close();
        if (age_sec) {
            fs::last_write_time(p, fs::file_time_type::clock::now() -
                                       std::chrono::seconds(age_sec));
        }
        return p;
    }

    size_t
    filesLeft() const
    {
        size_t n = 0;
        for (const auto& e : fs::directory_iterator(dir)) {
            (void)e;
            ++n;
        }
        return n;
    }
};

TEST_F(CacheTrim, DisabledPolicyIsNoOp)
{
    put("a.trace", 1000, 3600);
    put("b.trace", 1000);
    EXPECT_EQ(trimTraceCache(dir, TraceCacheTrimPolicy{}), 0u);
    EXPECT_EQ(filesLeft(), 2u);
}

TEST_F(CacheTrim, MissingDirectoryIsNoOp)
{
    TraceCacheTrimPolicy p;
    p.maxBytes = 1;
    EXPECT_EQ(trimTraceCache(dir + "/does-not-exist", p), 0u);
}

TEST_F(CacheTrim, AgeCapDropsOnlyOldEntries)
{
    put("old.trace", 100, 10'000);
    put("fresh.trace", 100);
    TraceCacheTrimPolicy p;
    p.maxAgeSeconds = 5'000;
    EXPECT_EQ(trimTraceCache(dir, p), 1u);
    EXPECT_FALSE(fs::exists(dir + "/old.trace"));
    EXPECT_TRUE(fs::exists(dir + "/fresh.trace"));
}

TEST_F(CacheTrim, SizeCapEvictsLeastRecentlyModifiedFirst)
{
    put("oldest.trace", 600, 3000);
    put("middle.trace", 600, 2000);
    put("newest.trace", 600, 1000);
    TraceCacheTrimPolicy p;
    p.maxBytes = 1300; // fits two of three
    EXPECT_EQ(trimTraceCache(dir, p), 1u);
    EXPECT_FALSE(fs::exists(dir + "/oldest.trace"));
    EXPECT_TRUE(fs::exists(dir + "/middle.trace"));
    EXPECT_TRUE(fs::exists(dir + "/newest.trace"));
}

TEST_F(CacheTrim, NonTraceFilesAreNeverTouched)
{
    put("huge.bin", 100'000, 50'000);
    put("cache.trace", 100, 50'000);
    TraceCacheTrimPolicy p;
    p.maxBytes = 1; // far exceeded, but only by the non-trace file
    p.maxAgeSeconds = 1;
    EXPECT_EQ(trimTraceCache(dir, p), 1u);
    EXPECT_TRUE(fs::exists(dir + "/huge.bin"));
    EXPECT_FALSE(fs::exists(dir + "/cache.trace"));
}

TEST_F(CacheTrim, SuitePreparationAppliesPolicyAndKeepsLiveEntries)
{
    // A stale multi-MB entry from a long-gone spec shares the dir with the
    // live suite: the size cap must evict the stale file, never the traces
    // the suite just wrote or (touched) re-read.
    put("stale.trace", 2 * 1024 * 1024, 100'000);
    ExperimentOptions opts = serialOpts();
    opts.traceDir = dir;
    opts.traceCacheMaxMB = 1;

    Suite cold = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(cold.cacheMisses(), 2u);
    EXPECT_FALSE(fs::exists(dir + "/stale.trace"));

    // The live entries survived the trim and serve hits.
    Suite warm = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(warm.cacheHits(), 2u);
}

} // namespace
} // namespace constable
