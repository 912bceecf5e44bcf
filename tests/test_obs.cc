/**
 * @file
 * Tests for the observability tier (common/obs.hh): the armed/disarmed
 * gate never perturbs simulated results (RunResult bytes are bit-identical
 * either way), the span ring drops and counts on overflow, status.json is
 * atomically rewritten (a concurrent reader never sees a torn file), the
 * emitted Chrome trace-event and metrics JSON parse under the strict
 * reader (common/json.hh) to the recorded values, and a static destructor
 * may still touch obs at exit. Plus the CONSTABLE_LOG_LEVEL satellite:
 * warnOnce/warnEvery dedup state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

/** Fresh temp dir per test; obs state reset on both ends so test order
 *  never matters (counters/lanes are process-global). */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obsReset();
        std::string tmpl = fs::temp_directory_path() /
                           "constable-obs-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        obsReset();
        fs::remove_all(dir);
    }

    std::string dir;
};

/** Parse a file the obs layer wrote; a malformed file fails the test. */
JsonValue
readJson(const std::string& path)
{
    std::string text = obsReadStatus(path);
    JsonValue doc;
    EXPECT_TRUE(parseJson(text, doc)) << text;
    return doc;
}

/** Member @p key, or a null value when absent, so a chained lookup in a
 *  failing test reports a mismatch instead of crashing. */
const JsonValue&
member(const JsonValue& v, const std::string& key)
{
    static const JsonValue kNull;
    const JsonValue* m = v.find(key);
    return m ? *m : kNull;
}

// --------------------------------------------------------- registry gate

TEST_F(ObsTest, ArmedRunIsBitIdenticalToDisarmed)
{
    auto specs = smokeSuite(1200);
    Trace t = generateTrace(specs[0]);
    SystemConfig cfg { CoreConfig{}, mechFor("constable") };

    ASSERT_FALSE(obsArmed());
    std::vector<uint8_t> disarmed = serializeRunResult(runTrace(t, cfg));

    obsArm();
    ASSERT_TRUE(obsArmed());
    std::vector<uint8_t> armed = serializeRunResult(runTrace(t, cfg));

    // Obs state lives strictly outside RunResult: arming the registry
    // must never reach the simulated bytes (golden fingerprints depend
    // on this).
    EXPECT_EQ(armed, disarmed);
    // ...but the armed run did observe something (the idle fast-forward
    // flush at minimum fires once per core run).
    EXPECT_GT(obsCounter("sim.idle_ff_cycles").value(), 0u);
}

TEST_F(ObsTest, CountersGaugesHistogramsGateOnArmed)
{
    ObsCounter& c = obsCounter("test.gate.counter");
    ObsGauge& g = obsGauge("test.gate.gauge");
    ObsHistogram& h = obsHistogram("test.gate.hist");

    c.add(5);
    g.set(7);
    h.record(9);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0u);
    EXPECT_EQ(h.count(), 0u);

    obsArm();
    c.add(5);
    g.set(7);
    h.record(9);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g.value(), 7u);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 9u);
    // Power-of-two buckets: 0 and 1 -> bucket 0, 2..3 -> 1, 1024 -> 10.
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(1024);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u); // 9 lives in [8,16)
    EXPECT_EQ(h.bucket(10), 1u);
}

// --------------------------------------------------------- span recorder

TEST_F(ObsTest, SpanRingOverflowDropsAndCounts)
{
    obsArm();
    const size_t emitted = 5000; // ring capacity is 4096 per lane
    for (size_t i = 0; i < emitted; ++i)
        obsEmitSpan("overflow-lane", "span", "test", i, 1);
    EXPECT_EQ(obsSpanCount(), 4096u);
    EXPECT_EQ(obsSpansDropped(), emitted - 4096u);

    // The drop total must survive into the metrics snapshot.
    std::string path = dir + "/metrics.json";
    ASSERT_TRUE(obsWriteMetrics(path));
    JsonValue doc = readJson(path);
    EXPECT_EQ(member(member(doc, "spans"), "dropped").number,
              static_cast<double>(emitted - 4096));
}

TEST_F(ObsTest, TraceEventJsonIsWellFormedWithLaneMetadata)
{
    obsArm();
    {
        ObsSpan s("outer", "test");
        ObsSpan inner("inner", "test");
    }
    obsEmitSpan("shard-3", "cell.compute", "cell", 10, 20);
    obsEmitSpan("fleet:web", "dispatch:\"quoted\"", "fleet", 5, 1);

    std::string path = dir + "/trace.json";
    ASSERT_TRUE(obsWriteTrace(path));
    JsonValue doc = readJson(path);
    const JsonValue& events = member(doc, "traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);

    // One thread_name metadata record per lane, and the lanes we named.
    std::vector<std::string> lanes;
    bool quoted = false, timed = false;
    for (const JsonValue& e : events.items) {
        const std::string& ph = member(e, "ph").str;
        const std::string& name = member(e, "name").str;
        if (ph == "M" && name == "thread_name")
            lanes.push_back(member(member(e, "args"), "name").str);
        // The quoted span name must come back intact (it was escaped).
        quoted |= ph == "X" && name == "dispatch:\"quoted\"";
        // Complete events carry the X phase with timestamps.
        timed |= ph == "X" && name == "cell.compute" &&
                 member(e, "ts").number == 10 &&
                 member(e, "dur").number == 20;
    }
    EXPECT_NE(std::find(lanes.begin(), lanes.end(), "shard-3"), lanes.end());
    EXPECT_NE(std::find(lanes.begin(), lanes.end(), "fleet:web"),
              lanes.end());
    EXPECT_TRUE(quoted);
    EXPECT_TRUE(timed);
}

TEST_F(ObsTest, MetricsSnapshotIsWellFormedJson)
{
    obsArm();
    obsCounter("test.snapshot.counter").add(3);
    obsHistogram("test.snapshot.hist").record(42);
    std::string path = dir + "/metrics.json";
    ASSERT_TRUE(obsWriteMetrics(path));
    JsonValue doc = readJson(path);
    EXPECT_EQ(
        member(member(doc, "counters"), "test.snapshot.counter").number, 3);
    const JsonValue& hist =
        member(member(doc, "histograms"), "test.snapshot.hist");
    EXPECT_EQ(member(hist, "count").number, 1);
    EXPECT_EQ(member(hist, "sum").number, 42);
    EXPECT_EQ(member(hist, "buckets").items.size(), ObsHistogram::kBuckets);
}

// ------------------------------------------------------ exit-time teardown

/** Touches obs from a static destructor, as a pool worker still running
 *  at exit would: a new thread registers a lane, and a counter recorded
 *  before exit must still read back (a destroyed registry loses or
 *  garbles it, or crashes the lookup). */
struct ExitTimeObsUser
{
    ~ExitTimeObsUser()
    {
        std::thread([] { obsSetThreadLane("exit-time"); }).join();
        if (obsCounter("test.exit_time.counter").value() != 1)
            std::_Exit(3);
    }
};

/**
 * Static-lifetime objects and pool worker threads may reach obs after
 * static destruction has begun. Here the user is built before obs's
 * registry is first touched, so a function-local-static registry would
 * be destroyed first and the user's destructor would touch freed memory.
 */
TEST(ObsDeathTest, StaticDestructorTouchingObsExitsCleanly)
{
    // Threadsafe style re-executes the binary, so obs is untouched in
    // the child until the statement below touches it.
    std::string style = ::testing::GTEST_FLAG(death_test_style);
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            static ExitTimeObsUser user;
            obsArm();
            obsSetThreadLane("main");
            obsCounter("test.exit_time.counter").add();
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    ::testing::GTEST_FLAG(death_test_style) = style;
}

// --------------------------------------------------------- live progress

TEST_F(ObsTest, StatusJsonIsAtomicUnderConcurrentReader)
{
    // The second label needs escaping in status.json; the formatter must
    // show it as given, not as its escaped spelling.
    for (const std::string label :
         { "atomic-test", "fig \"11\" C:\\sweeps\\a" }) {
        std::string path = dir + "/status.json";
        std::atomic<bool> stop { false };
        std::atomic<uint64_t> reads { 0 };
        std::atomic<uint64_t> tornReads { 0 };

        std::thread reader([&] {
            while (!stop.load()) {
                std::string json = obsReadStatus(path);
                if (json.empty())
                    continue; // not written yet, or mid-rename: both fine
                ++reads;
                // Every observed file content must render: a torn write
                // would fail to parse and format to "".
                if (obsFormatStatus(json).empty())
                    ++tornReads;
            }
        });

        ObsProgressConfig cfg;
        cfg.label = label;
        cfg.total = 4;
        cfg.statusPath = path;
        cfg.intervalSec = 0; // no stderr chatter from the test
        for (int iter = 0; iter < 200; ++iter) {
            obsProgressBegin(cfg);
            obsProgressCellDone(1'000'000);
            obsProgressUpdate(3);
            obsProgressEnd(); // final: unconditional atomic rewrite
        }
        stop.store(true);
        reader.join();

        EXPECT_GT(reads.load(), 0u);
        EXPECT_EQ(tornReads.load(), 0u);

        // The final status is "done" and renders with the label.
        std::string line = obsFormatStatus(obsReadStatus(path));
        EXPECT_NE(line.find("'" + label + "'"), std::string::npos) << line;
        EXPECT_NE(line.find("done"), std::string::npos) << line;
    }
}

TEST_F(ObsTest, StatusFormatterRejectsGarbage)
{
    EXPECT_EQ(obsFormatStatus(""), "");
    EXPECT_EQ(obsFormatStatus("{\"experiment\":\"x\"}"), "");
    EXPECT_EQ(obsFormatStatus("hello"), "");
    std::string ok =
        "{\"experiment\":\"fig11\",\"state\":\"running\","
        "\"cells_done\":3,\"cells_total\":16,\"mops\":1.250,"
        "\"eta_sec\":40,\"elapsed_sec\":9.5,\"owner\":\"pid-7\","
        "\"updated_unix_sec\":1}";
    std::string line = obsFormatStatus(ok);
    EXPECT_NE(line.find("fig11"), std::string::npos) << line;
    EXPECT_NE(line.find("3/16"), std::string::npos) << line;
    EXPECT_NE(line.find("pid-7"), std::string::npos) << line;
}

// ------------------------------------------------- logging satellites

TEST(LogOnce, FirstOccurrenceAndEveryNth)
{
    // warnOnce/warnEvery route through these; the print itself depends on
    // CONSTABLE_LOG_LEVEL, the dedup state does not.
    EXPECT_TRUE(logdetail::firstOccurrence("obs-test-once-key"));
    EXPECT_FALSE(logdetail::firstOccurrence("obs-test-once-key"));
    EXPECT_TRUE(logdetail::firstOccurrence("obs-test-once-key-2"));

    int fired = 0;
    for (int i = 0; i < 25; ++i) {
        if (logdetail::everyNth("obs-test-nth-key", 10))
            ++fired;
    }
    EXPECT_EQ(fired, 3); // occurrences 1, 11, 21
}

} // namespace
} // namespace constable
