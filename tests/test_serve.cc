/**
 * @file
 * Tests for the fleet serving tier: the machine/task class scenario
 * grammar (including the stripLine '#'-in-value regression and the fatal
 * paths for malformed blocks), the pure discrete-event simulation against
 * closed-form fixed-arrival expectations, seeded Poisson determinism,
 * unpinned dispatch, and the end-to-end runFleetScenario fingerprint
 * contract across thread counts and checkpoint-resumed calibrations.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "serve/fleet.hh"
#include "sim/scenario.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

/** Fresh temp directory per test, removed on teardown. */
class FleetTempDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = fs::temp_directory_path() /
                           "constable-serve-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

/** A one-machine / one-task fleet whose arrival process and calibration
 *  are hand-specified, so every report figure has a closed form. */
Scenario
analyticScenario()
{
    Scenario sc;
    sc.name = "analytic";
    FleetMachineClass m;
    m.name = "solo";
    m.mech = "baseline";
    m.cores = 1;
    m.replicas = 1;
    m.idlePjPerCycle = 0;
    sc.machines.push_back(m);
    FleetTaskClass t;
    t.name = "steady";
    t.machine = "solo";
    t.interArrival = 100;
    t.expectedOps = 150;
    t.sla = SlaTier::Sla2;
    t.seed = 7;
    t.start = 0;
    t.end = 1000;
    t.poisson = false;
    sc.tasks.push_back(t);
    return sc;
}

// ------------------------------------------------------------ fleet grammar

TEST(FleetScenario, ParsesMachineAndTaskClassBlocks)
{
    Scenario sc = parseScenarioText(
        "name my-fleet   # trailing comment\n"
        "# machine classes first, cloudsim style '{' on its own line\n"
        "machine class\n"
        "{\n"
        "    name big\n"
        "    mech constable\n"
        "    cores 8\n"
        "    replicas 2\n"
        "    idle-pj-per-cycle 12\n"
        "}\n"
        "machine class {\n"
        "    name small\n"
        "    mech baseline\n"
        "}\n"
        "task class {\n"
        "    name web#frontend\n"
        "    machine big\n"
        "    inter-arrival 2500\n"
        "    expected-ops 40000\n"
        "    sla SLA0\n"
        "    seed 99\n"
        "    start 1000\n"
        "    end 500000\n"
        "    arrivals fixed\n"
        "}\n"
        "task class {\n"
        "    name batch\n"
        "    inter-arrival 9000\n"
        "    expected-ops 90000\n"
        "    end 400000\n"
        "}\n",
        "test");
    EXPECT_TRUE(sc.isFleet());
    EXPECT_EQ(sc.name, "my-fleet");
    ASSERT_EQ(sc.machines.size(), 2u);
    EXPECT_EQ(sc.machines[0].name, "big");
    EXPECT_EQ(sc.machines[0].mech, "constable");
    EXPECT_EQ(sc.machines[0].cores, 8u);
    EXPECT_EQ(sc.machines[0].replicas, 2u);
    EXPECT_EQ(sc.machines[0].idlePjPerCycle, 12u);
    EXPECT_EQ(sc.machines[1].name, "small");
    EXPECT_EQ(sc.machines[1].cores, 1u); // defaults
    EXPECT_EQ(sc.machines[1].replicas, 1u);
    EXPECT_EQ(sc.machines[1].idlePjPerCycle, 0u);

    ASSERT_EQ(sc.tasks.size(), 2u);
    // stripLine regression: '#' embedded in a value is not a comment.
    EXPECT_EQ(sc.tasks[0].name, "web#frontend");
    EXPECT_EQ(sc.tasks[0].machine, "big");
    EXPECT_EQ(sc.tasks[0].interArrival, 2500u);
    EXPECT_EQ(sc.tasks[0].expectedOps, 40000u);
    EXPECT_EQ(sc.tasks[0].sla, SlaTier::Sla0);
    EXPECT_EQ(sc.tasks[0].seed, 99u);
    EXPECT_EQ(sc.tasks[0].start, 1000u);
    EXPECT_EQ(sc.tasks[0].end, 500000u);
    EXPECT_FALSE(sc.tasks[0].poisson);
    // Defaults: unpinned, poisson, start 0, SLA2, per-name seed.
    EXPECT_TRUE(sc.tasks[1].machine.empty());
    EXPECT_TRUE(sc.tasks[1].poisson);
    EXPECT_EQ(sc.tasks[1].start, 0u);
    EXPECT_EQ(sc.tasks[1].sla, SlaTier::Sla2);
    EXPECT_NE(sc.tasks[1].seed, 0u);
    EXPECT_NE(sc.tasks[1].seed, sc.tasks[0].seed);
}

TEST(FleetScenarioDeathTest, MalformedBlocksAreFatalNotSilent)
{
    auto parse = [](const std::string& text) {
        return parseScenarioText(text, "scn");
    };
    const std::string machine =
        "machine class {\nname m\nmech baseline\n}\n";
    const std::string task =
        "task class {\nname t\nmachine m\ninter-arrival 100\n"
        "expected-ops 50\nend 1000\n}\n";

    EXPECT_EXIT(parse("machine class {\nmech baseline\n}\n" + task),
                ::testing::ExitedWithCode(1), "needs a 'name'");
    EXPECT_EXIT(parse("machine class {\nname m\n}\n" + task),
                ::testing::ExitedWithCode(1), "needs a 'mech' preset");
    EXPECT_EXIT(parse("machine class {\nname m\nmech warp-drive\n}\n"),
                ::testing::ExitedWithCode(1), "unknown mechanism preset");
    EXPECT_EXIT(
        parse("machine class {\nname m\nmech baseline\nspeed 9\n}\n"),
        ::testing::ExitedWithCode(1), "unknown machine-class key");
    EXPECT_EXIT(
        parse("machine class {\nname m\nmech baseline\ncores 0\n}\n"),
        ::testing::ExitedWithCode(1), "cores");
    EXPECT_EXIT(
        parse("machine class {\nname m\nname m2\nmech baseline\n}\n"),
        ::testing::ExitedWithCode(1), "duplicate 'name'");
    EXPECT_EXIT(parse(machine + machine + task),
                ::testing::ExitedWithCode(1), "duplicate machine class");
    EXPECT_EXIT(parse("machine class\nname m\n"),
                ::testing::ExitedWithCode(1), "expected '\\{'");
    EXPECT_EXIT(parse("machine class {\nname m\nmech baseline\n"),
                ::testing::ExitedWithCode(1), "unterminated");

    EXPECT_EXIT(
        parse(machine + "task class {\nname t\nmachine m\n"
                        "inter-arrival 100\nexpected-ops 50\nend 1000\n"
                        "priority high\n}\n"),
        ::testing::ExitedWithCode(1), "unknown task-class key");
    EXPECT_EXIT(
        parse(machine + "task class {\nname t\ninter-arrival 100\n"
                        "expected-ops 50\nend 1000\nsla SLA9\n}\n"),
        ::testing::ExitedWithCode(1), "'sla' must be");
    EXPECT_EXIT(
        parse(machine + "task class {\nname t\nexpected-ops 50\n"
                        "end 1000\n}\n"),
        ::testing::ExitedWithCode(1), "needs an 'inter-arrival'");
    EXPECT_EXIT(
        parse(machine + "task class {\nname t\ninter-arrival 100\n"
                        "end 1000\n}\n"),
        ::testing::ExitedWithCode(1), "needs 'expected-ops'");
    EXPECT_EXIT(
        parse(machine + "task class {\nname t\ninter-arrival 100\n"
                        "expected-ops 50\n}\n"),
        ::testing::ExitedWithCode(1), "'end' greater than its 'start'");
    EXPECT_EXIT(
        parse(machine + "task class {\nname t\ninter-arrival 100\n"
                        "expected-ops 50\nstart 500\nend 500\n}\n"),
        ::testing::ExitedWithCode(1), "'end' greater than its 'start'");
    EXPECT_EXIT(
        parse(machine + "task class {\nname t\nmachine ghost\n"
                        "inter-arrival 100\nexpected-ops 50\nend 1000\n}\n"),
        ::testing::ExitedWithCode(1), "unknown machine class 'ghost'");
    EXPECT_EXIT(parse(machine + task + task),
                ::testing::ExitedWithCode(1), "duplicate task class");
    EXPECT_EXIT(
        parse(machine + "task class {\nname t\ninter-arrival 100 200\n"
                        "expected-ops 50\nend 1000\n}\n"),
        ::testing::ExitedWithCode(1), "exactly one value");

    // Fleet blocks and classic sweep directives are mutually exclusive,
    // and a half-declared fleet is an error, not an empty sweep.
    EXPECT_EXIT(parse("mech constable\n" + machine + task),
                ::testing::ExitedWithCode(1), "mutually exclusive");
    EXPECT_EXIT(parse("smt on\n" + machine + task),
                ::testing::ExitedWithCode(1),
                "'smt' does not apply to fleet");
    EXPECT_EXIT(parse(machine), ::testing::ExitedWithCode(1),
                "no 'task class' block");
    EXPECT_EXIT(parse("task class {\nname t\ninter-arrival 100\n"
                      "expected-ops 50\nend 1000\n}\n"),
                ::testing::ExitedWithCode(1), "no 'machine class' block");
}

TEST(FleetScenarioDeathTest, RunScenarioRedirectsFleetsToConstableServe)
{
    Scenario sc = analyticScenario();
    ExperimentOptions opts;
    opts.threads = 1;
    EXPECT_EXIT(runScenario(sc, opts), ::testing::ExitedWithCode(1),
                "constable-serve");
}

// ------------------------------------------------------- pure simulation

TEST(FleetSim, FixedArrivalsMatchClosedForm)
{
    Scenario sc = analyticScenario();
    std::vector<MachineCalibration> calib(1);
    calib[0].mech = "baseline";
    calib[0].cyclesPerOp = 1.0;
    calib[0].pjPerOp = 100.0;

    FleetReport rep = simulateFleet(sc, calib);

    // Fixed gaps of 100 over [0, 1000): arrivals at 100..900, service
    // 150 cycles each on one core, so request k's latency is 100 + 50k.
    EXPECT_EQ(rep.totalRequests, 9u);
    ASSERT_EQ(rep.machines.size(), 1u);
    const MachineReport& m = rep.machines[0];
    EXPECT_EQ(m.requests, 9u);
    EXPECT_DOUBLE_EQ(m.servedOps, 9.0 * 150.0);
    EXPECT_DOUBLE_EQ(m.busyCycles, 9.0 * 150.0);
    // Last completion 100 + 9*150 = 1450 extends the horizon past 'end'.
    EXPECT_DOUBLE_EQ(rep.horizonCycles, 1450.0);
    EXPECT_DOUBLE_EQ(m.utilization, 1350.0 / 1450.0);
    EXPECT_DOUBLE_EQ(m.requestsPerMcycle, 9.0 * 1e6 / 1450.0);
    // 9 * 150 ops * 100 pJ/op, no idle draw, over 9 requests, in uJ.
    EXPECT_DOUBLE_EQ(m.uJPerRequest, 0.015);

    const SlaReport& s2 = rep.sla[static_cast<size_t>(SlaTier::Sla2)];
    EXPECT_EQ(s2.requests, 9u);
    EXPECT_DOUBLE_EQ(s2.p50, 350.0);
    EXPECT_DOUBLE_EQ(s2.p95, 530.0);
    EXPECT_DOUBLE_EQ(s2.p99, 546.0);
    // SLA2 budget is 2x the 150-cycle service time; latencies above 300
    // are the last five of 150, 200, ..., 550.
    EXPECT_DOUBLE_EQ(s2.violationFrac, 5.0 / 9.0);
    EXPECT_DOUBLE_EQ(s2.latency.min, 150.0);
    EXPECT_DOUBLE_EQ(s2.latency.max, 550.0);
    EXPECT_DOUBLE_EQ(s2.latency.q1, 250.0);
    EXPECT_DOUBLE_EQ(s2.latency.q3, 450.0);
    EXPECT_EQ(s2.latency.n, 9u);

    // Untouched tiers stay empty rather than inventing figures.
    EXPECT_EQ(rep.sla[static_cast<size_t>(SlaTier::Sla0)].requests, 0u);
    EXPECT_DOUBLE_EQ(rep.sla[static_cast<size_t>(SlaTier::Sla0)].p99, 0.0);

    // Pure function: a re-run fingerprints identically.
    EXPECT_EQ(rep.fingerprint(), simulateFleet(sc, calib).fingerprint());
}

TEST(FleetSim, PoissonArrivalsAreSeedDeterministic)
{
    Scenario sc = analyticScenario();
    sc.tasks[0].poisson = true;
    sc.tasks[0].end = 20000;
    std::vector<MachineCalibration> calib(1);
    calib[0].mech = "baseline";
    calib[0].cyclesPerOp = 1.0;
    calib[0].pjPerOp = 100.0;

    FleetReport a = simulateFleet(sc, calib);
    FleetReport b = simulateFleet(sc, calib);
    EXPECT_GT(a.totalRequests, 0u);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // A different seed is a different arrival stream.
    sc.tasks[0].seed += 1;
    FleetReport c = simulateFleet(sc, calib);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(FleetSim, UnpinnedRequestsPickTheFastestCompletion)
{
    Scenario sc = analyticScenario();
    sc.machines.push_back(sc.machines[0]);
    sc.machines[1].name = "slow";
    sc.tasks[0].machine.clear(); // unpinned: dispatcher's choice

    std::vector<MachineCalibration> calib(2);
    calib[0].mech = calib[1].mech = "baseline";
    calib[0].pjPerOp = calib[1].pjPerOp = 100.0;
    calib[0].cyclesPerOp = 1.0;
    calib[1].cyclesPerOp = 5.0;

    FleetReport rep = simulateFleet(sc, calib);
    EXPECT_EQ(rep.machines[0].requests, rep.totalRequests);
    EXPECT_EQ(rep.machines[1].requests, 0u);

    // Swap the speeds and every request migrates to the other class.
    std::swap(calib[0].cyclesPerOp, calib[1].cyclesPerOp);
    FleetReport swapped = simulateFleet(sc, calib);
    EXPECT_EQ(swapped.machines[0].requests, 0u);
    EXPECT_EQ(swapped.machines[1].requests, swapped.totalRequests);
}

TEST(FleetSimDeathTest, RunawayArrivalStreamsFailLoudly)
{
    Scenario sc = analyticScenario();
    sc.tasks[0].interArrival = 1;
    sc.tasks[0].end = 50'000'000;
    std::vector<MachineCalibration> calib(1);
    calib[0].cyclesPerOp = 1.0;
    EXPECT_EXIT(simulateFleet(sc, calib), ::testing::ExitedWithCode(1),
                "arrivals");
}

// --------------------------------------------------- end-to-end determinism

class FleetEndToEnd : public FleetTempDirTest
{};

TEST_F(FleetEndToEnd, FingerprintSurvivesThreadsAndCheckpointResume)
{
    Scenario sc = parseScenarioText(
        "name e2e\n"
        "machine class {\n"
        "    name node\n"
        "    mech baseline\n"
        "    cores 2\n"
        "}\n"
        "task class {\n"
        "    name load\n"
        "    machine node\n"
        "    inter-arrival 3000\n"
        "    expected-ops 5000\n"
        "    sla SLA1\n"
        "    seed 41\n"
        "    end 120000\n"
        "}\n",
        "test");

    ExperimentOptions opts;
    opts.threads = 1;
    opts.traceOps = 1200;
    opts.suiteLimit = 2;

    FleetReport serial = runFleetScenario(sc, opts);
    EXPECT_GT(serial.totalRequests, 0u);
    EXPECT_NE(serial.calibFingerprint, 0u);
    EXPECT_EQ(serial.resumedCells, 0u);

    // Calibration parallelism must not leak into the report.
    ExperimentOptions threaded = opts;
    threaded.threads = 2;
    EXPECT_EQ(runFleetScenario(sc, threaded).fingerprint(),
              serial.fingerprint());

    // A checkpointed calibration, then a warm resume of every cell: the
    // resumed report must fingerprint identically to the fresh one.
    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    FleetReport fresh = runFleetScenario(sc, ck);
    EXPECT_EQ(fresh.fingerprint(), serial.fingerprint());
    FleetReport resumed = runFleetScenario(sc, ck);
    EXPECT_GT(resumed.resumedCells, 0u);
    EXPECT_EQ(resumed.fingerprint(), serial.fingerprint());

    // A second trace length into the same checkpoint dir, then back: each
    // report matches that length's own run without a checkpoint dir, and
    // the store holds cells only (no side files, nothing quarantined).
    ExperimentOptions longer = opts;
    longer.traceOps = 1600;
    uint64_t longerFp = runFleetScenario(sc, longer).fingerprint();
    EXPECT_NE(longerFp, serial.fingerprint());
    ExperimentOptions ckLonger = longer;
    ckLonger.checkpointDir = dir;
    EXPECT_EQ(runFleetScenario(sc, ckLonger).fingerprint(), longerFp);
    FleetReport back = runFleetScenario(sc, ck);
    EXPECT_GT(back.resumedCells, 0u);
    EXPECT_EQ(back.fingerprint(), serial.fingerprint());
    for (const auto& e : fs::recursive_directory_iterator(dir))
        EXPECT_NE(e.path().extension().string(), ".calib") << e.path();
    EXPECT_FALSE(fs::exists(dir + "/quarantine"));
}

} // namespace
} // namespace constable
