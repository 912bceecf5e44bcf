/**
 * @file
 * Fleet serving tier: the datacenter layer above Experiment. A fleet
 * scenario (sim/scenario.hh) declares *machine classes* — pools of
 * identical replicas, each `cores` wide, all running one mechanism preset —
 * and *task classes* — open-loop arrival processes of fixed-size trace-job
 * requests carrying an SLA tier, in the style of the cloudsim EEC
 * machine-class/task-class testcases.
 *
 * Per-op service rates and energies are measured, not assumed: every
 * preset a machine class names is calibrated by a real Experiment sweep
 * over the workload suite (reusing the trace cache and per-cell checkpoint
 * machinery, so a killed calibration resumes bit-identically), yielding
 * cycles-per-op and picojoules-per-op as geomeans over the suite rows. A
 * deterministic discrete-event simulation then drives arrivals onto
 * replica cores and reports, per machine class, throughput / utilization /
 * joules-per-request, and per SLA tier, p50/p95/p99 latency plus the
 * fraction of requests over their tier's latency budget.
 *
 * Everything is single-threaded and seed-driven past calibration, so the
 * report's FNV fingerprint is bit-identical across thread counts, shard
 * counts, and checkpoint-resumed calibration runs — the property the CI
 * fleet-smoke job locks.
 */

#ifndef CONSTABLE_SERVE_FLEET_HH
#define CONSTABLE_SERVE_FLEET_HH

#include <array>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/scenario.hh"

namespace constable {

/** Measured serving characteristics of one machine class's preset. */
struct MachineCalibration
{
    std::string mech;       ///< registry preset name
    double cyclesPerOp = 0; ///< geomean cycles per retired op over the suite
    double pjPerOp = 0;     ///< geomean dynamic pJ per retired op
};

/** SLA latency budget as a multiple of a request's pure service time:
 *  SLA0 1.2x, SLA1 1.5x, SLA2 2.0x (strictest tier, tightest budget). */
double slaBudgetMultiplier(SlaTier tier);

/** Printable tier name ("SLA0"...). */
const char* slaTierName(SlaTier tier);

/** Per-SLA-tier latency report (latencies in cycles). */
struct SlaReport
{
    uint64_t requests = 0;
    double p50 = 0, p95 = 0, p99 = 0; ///< request latency percentiles
    double violationFrac = 0;         ///< latency > budget * service time
    BoxWhisker latency;               ///< full five-number summary
};

/** Per-machine-class serving report. */
struct MachineReport
{
    std::string name;
    std::string mech;
    unsigned replicas = 0;
    unsigned cores = 0;
    uint64_t requests = 0;        ///< requests this class served
    double servedOps = 0;         ///< trace-ops executed
    double busyCycles = 0;        ///< per-core busy cycles, summed
    double utilization = 0;       ///< busy / (servers * horizon)
    double requestsPerMcycle = 0; ///< served requests per million cycles
    double uJPerRequest = 0;      ///< dynamic + idle-static energy / request
};

/** A finished fleet simulation. */
struct FleetReport
{
    std::string name;
    double horizonCycles = 0;  ///< last completion (>= latest task end)
    uint64_t totalRequests = 0;
    std::vector<MachineReport> machines;
    std::array<SlaReport, kNumSlaTiers> sla;
    /** MatrixResult::fingerprint() of the calibration sweep's matrix. */
    uint64_t calibFingerprint = 0;
    /** Calibration cells restored from checkpoints (not fingerprinted —
     *  a resumed run must fingerprint identically to a fresh one). */
    size_t resumedCells = 0;

    /** FNV over every reported figure, bit-exact on the doubles; the
     *  determinism contract of the serving tier. */
    uint64_t fingerprint() const;

    /** Human-readable report, ending in "fleet fingerprint: <16 hex>". */
    void print() const;
};

/** Derive per-machine-class calibrations from a finished calibration
 *  sweep; @p res must contain a config per distinct machine-class preset.
 *  Rows with zero retired instructions are skipped by the geomeans. */
std::vector<MachineCalibration>
calibrateMachines(const Scenario& sc, const ExperimentResult& res);

/**
 * Pure fleet simulation: open-loop arrivals over [start, end) per task
 * class (seeded, exponential or fixed gaps), FIFO dispatch onto the
 * earliest-free core of the pinned class — or, unpinned, of whichever
 * class completes the request first (ties to the earlier class block).
 * @p calib is parallel to sc.machines. Deterministic and single-threaded;
 * unit-testable without running any Experiment.
 */
FleetReport simulateFleet(const Scenario& sc,
                          const std::vector<MachineCalibration>& calib);

/**
 * The full serving-tier driver behind constable-serve: scale opts by the
 * scenario's trace-ops/suite-limit, prepare the suite (trace cache),
 * run — or checkpoint-resume — the calibration sweep for every distinct
 * machine-class preset, then simulate the fleet. fatal() when @p sc is
 * not a fleet scenario.
 */
FleetReport runFleetScenario(const Scenario& sc, ExperimentOptions opts);

} // namespace constable

#endif
