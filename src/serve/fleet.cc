#include "serve/fleet.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>

#include "common/logging.hh"
#include "common/obs.hh"
#include "common/rng.hh"
#include "power/power.hh"
#include "trace/serialize.hh"

namespace constable {

namespace {

/** Arrival-count backstop: a misconfigured inter-arrival/end pair should
 *  fail loudly, not allocate the machine away. */
constexpr size_t kMaxArrivals = 5'000'000;

/** One request entering the fleet. */
struct Arrival
{
    double time;   ///< cycle of arrival
    uint32_t task; ///< task-class index
    uint32_t seq;  ///< per-class sequence number (deterministic tie-break)
};

void
fingerprintBox(ByteWriter& b, const BoxWhisker& w)
{
    b.f64(w.min);
    b.f64(w.q1);
    b.f64(w.median);
    b.f64(w.q3);
    b.f64(w.max);
    b.f64(w.whiskerLo);
    b.f64(w.whiskerHi);
    b.f64(w.meanVal);
    b.u64(w.n);
}

} // namespace

double
slaBudgetMultiplier(SlaTier tier)
{
    switch (tier) {
      case SlaTier::Sla0: return 1.2;
      case SlaTier::Sla1: return 1.5;
      case SlaTier::Sla2: return 2.0;
    }
    panic("unreachable SLA tier");
}

const char*
slaTierName(SlaTier tier)
{
    switch (tier) {
      case SlaTier::Sla0: return "SLA0";
      case SlaTier::Sla1: return "SLA1";
      case SlaTier::Sla2: return "SLA2";
    }
    panic("unreachable SLA tier");
}

std::vector<MachineCalibration>
calibrateMachines(const Scenario& sc, const ExperimentResult& res)
{
    std::vector<MachineCalibration> out;
    out.reserve(sc.machines.size());
    for (const FleetMachineClass& m : sc.machines) {
        MachineCalibration c;
        c.mech = m.mech;
        std::vector<double> cpos, pjs;
        for (size_t row = 0; row < res.numRows(); ++row) {
            const RunResult& rr = res.at(row, m.mech);
            double insts = static_cast<double>(rr.instructions);
            // ratio() maps a zero-instruction row to 0, which the guarded
            // geomean then skips instead of collapsing the mean.
            cpos.push_back(ratio(static_cast<double>(rr.cycles), insts));
            pjs.push_back(ratio(computePower(rr.stats).total(), insts));
        }
        c.cyclesPerOp = geomean(cpos);
        c.pjPerOp = geomean(pjs);
        if (c.cyclesPerOp <= 0.0) {
            fatal("fleet calibration for preset '" + m.mech +
                  "' produced no usable cycles-per-op (empty suite?)");
        }
        out.push_back(std::move(c));
    }
    return out;
}

FleetReport
simulateFleet(const Scenario& sc,
              const std::vector<MachineCalibration>& calib)
{
    if (sc.machines.empty() || sc.tasks.empty())
        fatal("simulateFleet needs a fleet scenario (machine+task classes)");
    if (calib.size() != sc.machines.size())
        fatal("simulateFleet needs one calibration per machine class");
    const uint64_t dispatchStartUs = obsArmed() ? obsTimestampUs() : 0;

    // ---- open-loop arrival generation, one seeded stream per task class.
    std::vector<Arrival> arrivals;
    for (size_t ti = 0; ti < sc.tasks.size(); ++ti) {
        const FleetTaskClass& t = sc.tasks[ti];
        Rng rng(t.seed);
        const double mean = static_cast<double>(t.interArrival);
        double time = static_cast<double>(t.start);
        uint32_t seq = 0;
        for (;;) {
            // First arrival lands one gap after the window opens; fixed
            // gaps make closed-form testcases, poisson models live load.
            double gap =
                t.poisson ? -mean * std::log(1.0 - rng.uniform()) : mean;
            time += gap;
            if (time >= static_cast<double>(t.end))
                break;
            arrivals.push_back(
                { time, static_cast<uint32_t>(ti), seq++ });
            if (arrivals.size() > kMaxArrivals) {
                fatal("fleet scenario '" + sc.name + "' generates more "
                      "than " + std::to_string(kMaxArrivals) +
                      " arrivals; raise inter-arrival or shrink [start, "
                      "end)");
            }
        }
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival& a, const Arrival& b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.task != b.task)
                      return a.task < b.task;
                  return a.seq < b.seq;
              });

    // ---- dispatch onto per-class pools of (replicas * cores) servers.
    using MinHeap = std::priority_queue<double, std::vector<double>,
                                        std::greater<double>>;
    std::vector<MinHeap> freeAt(sc.machines.size());
    for (size_t mi = 0; mi < sc.machines.size(); ++mi) {
        const FleetMachineClass& m = sc.machines[mi];
        for (size_t s = 0;
             s < static_cast<size_t>(m.replicas) * m.cores; ++s)
            freeAt[mi].push(0.0);
    }
    // Pinned classes resolved once (names were validated at parse).
    std::vector<size_t> pin(sc.tasks.size(), SIZE_MAX);
    for (size_t ti = 0; ti < sc.tasks.size(); ++ti) {
        if (sc.tasks[ti].machine.empty())
            continue;
        for (size_t mi = 0; mi < sc.machines.size(); ++mi) {
            if (sc.machines[mi].name == sc.tasks[ti].machine)
                pin[ti] = mi;
        }
    }

    FleetReport rep;
    rep.name = sc.name;
    rep.machines.resize(sc.machines.size());
    for (size_t mi = 0; mi < sc.machines.size(); ++mi) {
        MachineReport& mr = rep.machines[mi];
        mr.name = sc.machines[mi].name;
        mr.mech = sc.machines[mi].mech;
        mr.replicas = sc.machines[mi].replicas;
        mr.cores = sc.machines[mi].cores;
    }
    std::array<std::vector<double>, kNumSlaTiers> latencies;
    std::array<uint64_t, kNumSlaTiers> violations {};

    double horizon = 0;
    for (const FleetTaskClass& t : sc.tasks)
        horizon = std::max(horizon, static_cast<double>(t.end));

    for (const Arrival& a : arrivals) {
        const FleetTaskClass& t = sc.tasks[a.task];
        const double ops = static_cast<double>(t.expectedOps);
        // Choose the serving class: the pin, or whichever class would
        // complete this request first (FIFO within a class; earlier class
        // block wins ties deterministically).
        size_t mi = pin[a.task];
        if (mi == SIZE_MAX) {
            double best = 0;
            for (size_t c = 0; c < sc.machines.size(); ++c) {
                double fin = std::max(a.time, freeAt[c].top()) +
                             ops * calib[c].cyclesPerOp;
                if (mi == SIZE_MAX || fin < best) {
                    mi = c;
                    best = fin;
                }
            }
        }
        const double service = ops * calib[mi].cyclesPerOp;
        const double begin = std::max(a.time, freeAt[mi].top());
        freeAt[mi].pop();
        freeAt[mi].push(begin + service);

        const double latency = begin + service - a.time;
        horizon = std::max(horizon, begin + service);
        MachineReport& mr = rep.machines[mi];
        mr.requests += 1;
        mr.servedOps += ops;
        mr.busyCycles += service;
        const size_t tier = static_cast<size_t>(t.sla);
        latencies[tier].push_back(latency);
        if (latency > slaBudgetMultiplier(t.sla) * service)
            violations[tier] += 1;
        rep.totalRequests += 1;
    }
    rep.horizonCycles = horizon;

    // ---- per-class rollups.
    for (size_t mi = 0; mi < sc.machines.size(); ++mi) {
        const FleetMachineClass& m = sc.machines[mi];
        MachineReport& mr = rep.machines[mi];
        const double servers =
            static_cast<double>(m.replicas) * m.cores;
        mr.utilization = ratio(mr.busyCycles, servers * horizon);
        mr.requestsPerMcycle =
            ratio(static_cast<double>(mr.requests) * 1e6, horizon);
        const double idleCycles =
            std::max(0.0, servers * horizon - mr.busyCycles);
        const double energyPj =
            mr.servedOps * calib[mi].pjPerOp +
            idleCycles * static_cast<double>(m.idlePjPerCycle);
        // pJ -> uJ: requests are ~1e6 pJ each at these op counts.
        mr.uJPerRequest =
            ratio(energyPj, static_cast<double>(mr.requests)) * 1e-6;
    }

    // ---- per-tier latency tails.
    for (size_t tier = 0; tier < kNumSlaTiers; ++tier) {
        std::vector<double>& lats = latencies[tier];
        std::sort(lats.begin(), lats.end());
        SlaReport& sr = rep.sla[tier];
        sr.requests = lats.size();
        sr.p50 = percentileSorted(lats, 0.50);
        sr.p95 = percentileSorted(lats, 0.95);
        sr.p99 = percentileSorted(lats, 0.99);
        sr.violationFrac =
            ratio(static_cast<double>(violations[tier]),
                  static_cast<double>(lats.size()));
        sr.latency = BoxWhisker::from(lats);
    }

    // One synthetic trace lane per machine class: a single span covering
    // this dispatch pass, named so the Perfetto track reads
    // "fleet:<class>" with the scenario and request count on the slice.
    if (obsArmed()) {
        const uint64_t durUs =
            std::max<uint64_t>(1, obsTimestampUs() - dispatchStartUs);
        for (const MachineReport& mr : rep.machines) {
            obsEmitSpan("fleet:" + mr.name, "dispatch:" + sc.name, "fleet",
                        dispatchStartUs, durUs);
        }
    }
    return rep;
}

uint64_t
FleetReport::fingerprint() const
{
    ByteWriter b;
    b.u64(fnv1a(name));
    b.f64(horizonCycles);
    b.u64(totalRequests);
    b.u64(calibFingerprint);
    for (const MachineReport& m : machines) {
        b.u64(fnv1a(m.name));
        b.u64(fnv1a(m.mech));
        b.u64(m.replicas);
        b.u64(m.cores);
        b.u64(m.requests);
        b.f64(m.servedOps);
        b.f64(m.busyCycles);
        b.f64(m.utilization);
        b.f64(m.requestsPerMcycle);
        b.f64(m.uJPerRequest);
    }
    for (const SlaReport& s : sla) {
        b.u64(s.requests);
        b.f64(s.p50);
        b.f64(s.p95);
        b.f64(s.p99);
        b.f64(s.violationFrac);
        fingerprintBox(b, s.latency);
    }
    return fnv1a(b.bytes().data(), b.bytes().size());
}

void
FleetReport::print() const
{
    std::printf("fleet '%s': %zu machine classes, %llu requests, horizon "
                "%.0f cycles\n",
                name.c_str(), machines.size(),
                static_cast<unsigned long long>(totalRequests),
                horizonCycles);
    std::printf("calibration fingerprint: %016llx\n",
                static_cast<unsigned long long>(calibFingerprint));
    std::printf("%-14s %-18s %11s %9s %10s %8s %9s\n", "machine class",
                "mech", "repl x cores", "requests", "req/Mcyc", "util",
                "uJ/req");
    for (const MachineReport& m : machines) {
        char geom[24];
        std::snprintf(geom, sizeof(geom), "%u x %u", m.replicas, m.cores);
        std::printf("%-14s %-18s %11s %9llu %10.3f %7.1f%% %9.3f\n",
                    m.name.c_str(), m.mech.c_str(), geom,
                    static_cast<unsigned long long>(m.requests),
                    m.requestsPerMcycle, 100.0 * m.utilization,
                    m.uJPerRequest);
    }
    std::printf("%-8s %9s %11s %11s %11s %8s\n", "SLA tier", "requests",
                "p50", "p95", "p99", "viol");
    for (size_t tier = 0; tier < sla.size(); ++tier) {
        const SlaReport& s = sla[tier];
        std::printf("%-8s %9llu %11.1f %11.1f %11.1f %7.1f%%\n",
                    slaTierName(static_cast<SlaTier>(tier)),
                    static_cast<unsigned long long>(s.requests), s.p50,
                    s.p95, s.p99, 100.0 * s.violationFrac);
        if (s.requests > 0) {
            std::printf("  latency %s\n", s.latency.str().c_str());
        }
    }
    std::printf("fleet fingerprint: %016llx\n",
                static_cast<unsigned long long>(fingerprint()));
}

FleetReport
runFleetScenario(const Scenario& sc, ExperimentOptions opts)
{
    if (!sc.isFleet()) {
        fatal("scenario '" + sc.name + "' declares no machine/task class "
              "blocks; run it through a bench or constable-sweep instead");
    }
    if (sc.traceOps)
        opts.traceOps = sc.traceOps;
    if (sc.suiteLimit)
        opts.suiteLimit = sc.suiteLimit;

    // Calibration sweep over every distinct machine-class preset, through
    // the full Experiment machinery: trace cache, checkpoint/resume, and
    // sharding all apply, and the result is bit-identical regardless.
    std::vector<MachineCalibration> calib;
    uint64_t calibFp = 0;
    size_t resumed = 0;
    {
        ObsSpan calibSpan("fleet.sweep", "fleet");
        Suite suite = Suite::prepare(opts, /*inspect=*/true);
        Experiment exp("fleet-" + sc.name, suite, opts);
        std::vector<std::string> added;
        for (const FleetMachineClass& m : sc.machines) {
            if (std::find(added.begin(), added.end(), m.mech) ==
                added.end()) {
                exp.addPreset(m.mech);
                added.push_back(m.mech);
            }
        }
        ExperimentResult res = exp.run();
        calib = calibrateMachines(sc, res);
        calibFp = res.matrix().fingerprint();
        resumed = res.resumedCells();
    }

    FleetReport rep = simulateFleet(sc, calib);
    rep.calibFingerprint = calibFp;
    rep.resumedCells = resumed;
    return rep;
}

} // namespace constable
