/**
 * @file
 * constable-serve: the fleet serving-tier CLI (serve/fleet.hh). Takes a
 * fleet scenario — machine class / task class blocks, sim/scenario.hh —
 * calibrates every named mechanism preset with a real Experiment sweep
 * (trace cache, checkpoints and shards all apply), then simulates the
 * open-loop fleet and prints per-machine-class throughput / utilization /
 * joules-per-request plus per-SLA-tier p50/p95/p99 latency, ending in a
 * byte-level fleet fingerprint.
 *
 *   constable-serve --scenario=examples/scenarios/fleet/burst_cycle.scn
 *
 * The fingerprint is bit-identical across --threads, --shards, and
 * checkpoint-resumed calibration runs (the CI fleet-smoke job diffs it).
 */

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "serve/fleet.hh"
#include "sim/scenario.hh"

namespace constable {
namespace {

int
serveMain(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::printf(
                "constable-serve: fleet serving tier. Requires\n"
                "  --scenario=FILE   a fleet scenario (machine class /\n"
                "                    task class blocks; see\n"
                "                    examples/scenarios/fleet/)\n"
                "plus the generic experiment options below (threads,\n"
                "trace cache, checkpoints, shards all shape the preset\n"
                "calibration sweep). --trace-out adds a 'fleet.sweep'\n"
                "span (that sweep) and one lane per machine class to the\n"
                "Perfetto trace.\n\n");
        }
    }

    ExperimentOptions opts = ExperimentOptions::fromArgs(argc, argv);
    if (!opts.mechNames.empty()) {
        fatal("constable-serve runs fleet scenarios; pass --scenario=FILE "
              "(not --mech)");
    }
    if (opts.scenarioFile.empty()) {
        fatal("constable-serve needs --scenario=FILE naming a fleet "
              "scenario (machine class / task class blocks; see "
              "examples/scenarios/fleet/)");
    }

    Scenario sc = loadScenarioFile(opts.scenarioFile);
    if (!sc.isFleet()) {
        fatal("scenario '" + sc.name + "' has no machine/task class "
              "blocks; run it through a bench or constable-sweep instead");
    }

    FleetReport rep = runFleetScenario(sc, opts);
    if (!opts.printsReport())
        return 0;
    std::printf("calibration cells resumed from checkpoints: %zu\n",
                rep.resumedCells);
    rep.print();
    return 0;
}

} // namespace
} // namespace constable

int
main(int argc, char** argv)
{
    return constable::serveMain(argc, argv);
}
