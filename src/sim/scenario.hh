/**
 * @file
 * Declarative scenario files and run-time mechanism selection: new sweeps
 * without recompiling. A scenario is a small line-based text file,
 *
 *     # Fig 13 without the binary's compiled-in preset table
 *     name addr-modes
 *     mech baseline constable-pcrel constable-stackrel
 *     mech constable-regrel constable
 *     smt off
 *     trace-ops 3000      # optional; inherits --trace-ops when absent
 *     suite-limit 6       # optional; inherits --suite-limit when absent
 *
 * naming registry presets (sim/mechanisms.hh). Every bench driver calls
 * runNamedSweepIfRequested() first: `--mech=<name>[,<name>...]` or
 * `--scenario=<file>` (CONSTABLE_MECH / CONSTABLE_SCENARIO) replaces the
 * bench's compiled-in figure with the named sweep. The generic runner
 * prints per-config geomean speedups over the first named config plus the
 * byte-level FNV result fingerprint, so a scenario run can be diffed for
 * bit-identity against the preset-table path (the CI scenario-smoke job
 * does exactly that). Parsing is strict: unknown directives, malformed
 * numbers, duplicate scalars and unknown preset names all fatal().
 *
 * Scenarios can also declare a *fleet* (the serving tier, serve/fleet.hh)
 * with brace-delimited blocks in the style of the cloudsim EEC testcases:
 *
 *     name web-fleet
 *     machine class {
 *         name big            # unique machine-class name
 *         mech constable      # registry preset serving this class
 *         cores 8             # cores per replica
 *         replicas 4          # replicas (machines) of this class
 *         idle-pj-per-cycle 8 # optional static draw per idle core-cycle
 *     }
 *     task class {
 *         name steady-web
 *         machine big         # optional pin; absent = dispatcher's choice
 *         inter-arrival 2000  # mean gap between arrivals (cycles)
 *         expected-ops 40000  # trace-ops of work per request
 *         sla SLA0            # SLA0 | SLA1 | SLA2 (strictest first)
 *         seed 520030         # arrival-process RNG stream (optional)
 *         start 0             # first arrivals no earlier than this cycle
 *         end 1500000         # arrivals stop here (required, > start)
 *         arrivals poisson    # poisson (default) | fixed gaps
 *     }
 *
 * Fleet scenarios are driven by `constable-serve`; the top-level `mech`
 * and `smt` directives are mutually exclusive with fleet blocks, while
 * `trace-ops` / `suite-limit` still scale the calibration sweep.
 */

#ifndef CONSTABLE_SIM_SCENARIO_HH
#define CONSTABLE_SIM_SCENARIO_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace constable {

/** SLA tiers of the fleet serving grammar, strictest first (mirroring the
 *  cloudsim testcases). The tier sets a request's latency budget as a
 *  multiple of its pure service time (serve/fleet.hh). */
enum class SlaTier : uint8_t { Sla0 = 0, Sla1 = 1, Sla2 = 2 };

/** Number of SLA tiers (array sizing for per-tier reports). */
inline constexpr size_t kNumSlaTiers = 3;

/** One `machine class { ... }` block: a pool of identical replicas, each
 *  with `cores` cores, all running one mechanism preset. */
struct FleetMachineClass
{
    std::string name;            ///< unique class name
    std::string mech;            ///< registry preset serving this class
    unsigned cores = 1;          ///< cores per replica
    unsigned replicas = 1;       ///< replicas (machines) of this class
    uint64_t idlePjPerCycle = 0; ///< static draw per idle core-cycle (pJ)
};

/** One `task class { ... }` block: an open-loop arrival process of
 *  fixed-size trace-job requests carrying an SLA tier. */
struct FleetTaskClass
{
    std::string name;          ///< unique class name
    std::string machine;       ///< pin to a machine class; empty = any
    uint64_t interArrival = 0; ///< mean gap between arrivals (cycles)
    uint64_t expectedOps = 0;  ///< trace-ops of work per request
    SlaTier sla = SlaTier::Sla2;
    uint64_t seed = 0;         ///< arrival-process RNG stream
    uint64_t start = 0;        ///< first arrivals no earlier than this
    uint64_t end = 0;          ///< arrivals stop here (exclusive)
    bool poisson = true;       ///< exponential gaps; false = fixed gaps
};

/** A parsed scenario: which presets over which suite, SMT or not — or a
 *  fleet of machine/task classes for the serving tier. */
struct Scenario
{
    std::string name = "scenario";      ///< experiment/checkpoint identity
    std::vector<std::string> mechs;     ///< registry preset names, >= 1
    bool smt = false;                   ///< run the SMT2 pair matrix
    size_t traceOps = 0;                ///< 0 = inherit ExperimentOptions
    size_t suiteLimit = 0;              ///< 0 = inherit ExperimentOptions
    std::vector<FleetMachineClass> machines; ///< fleet machine classes
    std::vector<FleetTaskClass> tasks;       ///< fleet task classes

    /** True when the scenario declares a fleet (serve/fleet.hh); such
     *  scenarios run under constable-serve, not the bench sweep path. */
    bool isFleet() const { return !machines.empty(); }
};

/** Parse scenario text; @p what names the source in fatal() messages. */
Scenario parseScenarioText(const std::string& text, const std::string& what);

/** Load and parse a scenario file; fatal() on I/O or parse errors. */
Scenario loadScenarioFile(const std::string& path);

/** Print the standard "result fingerprint: <16 hex>" line. */
void printResultFingerprint(const ExperimentResult& res);

/** Prepare the suite and run @p sc through the Experiment API (honoring
 *  checkpoints/shards from @p opts), then print the generic report. */
void runScenario(const Scenario& sc, ExperimentOptions opts);

/**
 * The bench-driver entry point: when @p opts names mechanisms (--mech) or
 * a scenario file (--scenario), run that sweep instead of the caller's
 * compiled-in figure and return true (the bench should exit 0). Returns
 * false when neither was requested. fatal() when both are.
 */
bool runNamedSweepIfRequested(const std::string& bench_name,
                              const ExperimentOptions& opts);

} // namespace constable

#endif
