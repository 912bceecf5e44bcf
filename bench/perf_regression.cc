/**
 * @file
 * Wall-clock regression bench for the simulator itself (not the modeled
 * core): times a {suite x mechanism-preset} sweep through the Experiment
 * API and reports simulated mega-ops per wall-second per preset, so every
 * PR leaves a recorded performance trajectory.
 *
 * Output is machine-readable JSON (BENCH_perf.json by default). With
 * --check-against=FILE the bench compares its total throughput against a
 * previously recorded file and exits non-zero on a regression beyond
 * --max-regression (CI gate).
 *
 *   ./build/bench/perf_regression                      # measure + write
 *   ./build/bench/perf_regression --repeats=3 \
 *       --check-against=bench/BENCH_perf_baseline.json # gate vs baseline
 *
 * Build Release (-O2, NDEBUG) for meaningful numbers; per-cell checkpoints
 * are force-disabled so every cell really simulates.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "trace/serialize.hh"

namespace constable {
namespace {

struct PerfFlags
{
    std::string jsonOut = "BENCH_perf.json";
    std::string checkAgainst;
    double maxRegression = 0.25;
    unsigned repeats = 1;
    /** Also time every preset in phase-sampled mode and record the
     *  effective (extrapolated-instructions / sampled-wall) throughput as
     *  its own series. Empty spec: the built-in sampling defaults. */
    bool sampledLeg = false;
    std::string sampledSpec;
};

struct PresetTiming
{
    std::string name;
    size_t cells = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double wallSeconds = 0.0;
    uint64_t fingerprint = 0; ///< MatrixResult::fingerprint() of the run

    double mopsPerSec() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(instructions) / wallSeconds / 1e6;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
perfMain(int argc, char** argv)
{
    // Split this bench's own flags from the shared Experiment options.
    PerfFlags flags;
    std::vector<char*> rest;
    rest.push_back(argc > 0 ? argv[0] : const_cast<char*>("perf_regression"));
    auto valueOf = [&](const std::string& arg, int& i) -> std::string {
        if (auto eq = arg.find('='); eq != std::string::npos)
            return arg.substr(eq + 1);
        if (i + 1 >= argc)
            fatal(arg + " requires a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string flag = arg.substr(0, arg.find('='));
        if (flag == "--json-out") {
            flags.jsonOut = valueOf(arg, i);
        } else if (flag == "--check-against") {
            flags.checkAgainst = valueOf(arg, i);
        } else if (flag == "--max-regression") {
            flags.maxRegression = std::strtod(valueOf(arg, i).c_str(),
                                              nullptr);
        } else if (flag == "--repeats") {
            flags.repeats = static_cast<unsigned>(
                parseU64InRange("--repeats", valueOf(arg, i), 1, 1000));
        } else if (flag == "--sampled-leg") {
            flags.sampledLeg = true;
            if (arg.find('=') != std::string::npos)
                flags.sampledSpec = valueOf(arg, i);
        } else {
            if (flag == "--help" || flag == "-h") {
                std::printf(
                    "perf_regression extra options:\n"
                    "  --json-out=PATH        result JSON (default "
                    "BENCH_perf.json)\n"
                    "  --check-against=PATH   fail on throughput regression "
                    "vs this file\n"
                    "  --max-regression=F     allowed fractional slowdown "
                    "(default 0.25)\n"
                    "  --repeats=N            timed repeats, best-of "
                    "(default 1)\n"
                    "  --sampled-leg[=SPEC]   also time every preset "
                    "phase-sampled and record the\n                     "
                    "    effective Mops/s series (default spec if omitted)\n");
            }
            rest.push_back(argv[i]);
        }
    }

    ExperimentOptions opts = ExperimentOptions::fromArgs(
        static_cast<int>(rest.size()), rest.data());
    // A perf measurement must simulate every cell: checkpoint resume would
    // turn the sweep into file reads and time nothing.
    opts.checkpointDir.clear();

    std::printf("preparing suite (workloads x %zu ops)...\n", opts.traceOps);
    Suite suite = Suite::prepare(opts, /*inspect=*/false);

    const std::vector<std::pair<std::string, MechanismConfig>> presets = {
        { "baseline", mechFor("baseline") },
        { "constable", mechFor("constable") },
        { "eves", mechFor("eves") },
        { "eves+constable", mechFor("eves+constable") },
        { "elar+constable", mechFor("elar+constable") },
        { "rfp+constable", mechFor("rfp+constable") },
    };

    // Best-of-repeats wall time of one preset over the suite; repeats are
    // identical, so the first run supplies the counts and fingerprint.
    auto timePreset = [&](const std::string& exp_name, const std::string& name,
                          const MechanismConfig& mech,
                          const ExperimentOptions& o) {
        Experiment exp(exp_name, suite, o);
        exp.add(name, mech);
        PresetTiming t;
        t.name = name;
        t.cells = suite.size();
        for (unsigned rep = 0; rep < flags.repeats; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            ExperimentResult res = exp.run();
            double secs = secondsSince(t0);
            t.wallSeconds = rep == 0 ? secs : std::min(t.wallSeconds, secs);
            if (rep != 0)
                continue;
            t.fingerprint = res.matrix().fingerprint();
            for (size_t row = 0; row < res.numRows(); ++row) {
                t.instructions += res.at(row, 0).instructions;
                t.cycles += res.at(row, 0).cycles;
            }
        }
        return t;
    };

    std::vector<PresetTiming> timings;
    uint64_t determinism = 0;
    for (const auto& [name, mech] : presets) {
        const PresetTiming& t =
            timings.emplace_back(timePreset("perf_" + name, name, mech, opts));
        determinism ^= t.fingerprint;
        std::printf("%-18s %6.3fs  %8.2f Mops/s  (%zu cells, %llu insts)\n",
                    name.c_str(), t.wallSeconds, t.mopsPerSec(), t.cells,
                    static_cast<unsigned long long>(t.instructions));
    }

    double totalSecs = 0.0;
    uint64_t totalInsts = 0;
    for (const PresetTiming& t : timings) {
        totalSecs += t.wallSeconds;
        totalInsts += t.instructions;
    }
    double totalMops =
        totalSecs <= 0.0 ? 0.0
                         : static_cast<double>(totalInsts) / totalSecs / 1e6;
    std::printf("total              %6.3fs  %8.2f Mops/s  (determinism "
                "%016llx)\n",
                totalSecs, totalMops,
                static_cast<unsigned long long>(determinism));

    // --------------------------------------------------------- sampled leg
    // Same presets in phase-sampled mode. A sampled RunResult reports
    // extrapolated whole-trace instructions, so mopsPerSec() here is
    // *effective* throughput — directly comparable to the full series
    // above, and only meaningfully >1x on long traces (see README
    // "Sampled simulation").
    std::vector<PresetTiming> sampledTimings;
    SampleOptions sampleSpec;
    double sampledSecs = 0.0, sampledMops = 0.0, sampledSpeedup = 0.0;
    if (flags.sampledLeg) {
        sampleSpec = flags.sampledSpec.empty()
                         ? [] {
                               SampleOptions s;
                               s.enabled = true;
                               return s;
                           }()
                         : SampleOptions::parse(flags.sampledSpec);
        ExperimentOptions sopts = opts;
        sopts.sample = sampleSpec;
        uint64_t sampledInsts = 0;
        for (const auto& [name, mech] : presets) {
            const PresetTiming& t = sampledTimings.emplace_back(
                timePreset("perf_sampled_" + name, name, mech, sopts));
            sampledSecs += t.wallSeconds;
            sampledInsts += t.instructions;
            std::printf("%-18s %6.3fs  %8.2f eff-Mops/s  (sampled)\n",
                        name.c_str(), t.wallSeconds, t.mopsPerSec());
        }
        sampledMops = sampledSecs <= 0.0
                          ? 0.0
                          : static_cast<double>(sampledInsts) /
                                sampledSecs / 1e6;
        sampledSpeedup = totalMops > 0.0 ? sampledMops / totalMops : 0.0;
        std::printf("sampled total      %6.3fs  %8.2f eff-Mops/s  "
                    "(%.2fx vs full, spec %s)\n",
                    sampledSecs, sampledMops, sampledSpeedup,
                    sampleSpec.spec().c_str());
    }

    // ------------------------------------------------------------- JSON out
    JsonWriter w(2);
    w.beginObject().key("schema").str("constable-perf-v1").key("suite");
    w.beginObject().key("workloads").u64(suite.size());
    w.key("trace_ops").u64(opts.traceOps).key("threads").u64(opts.threads);
    w.key("repeats").u64(flags.repeats).endObject();
    w.key("presets").beginArray();
    for (const PresetTiming& t : timings) {
        w.beginObject().key("name").str(t.name).key("cells").u64(t.cells);
        w.key("instructions").u64(t.instructions).key("cycles").u64(t.cycles);
        w.key("wall_seconds").f64(t.wallSeconds, 6);
        w.key("mops_per_sec").f64(t.mopsPerSec(), 3).endObject();
    }
    w.endArray();
    if (flags.sampledLeg) {
        w.key("sampled").beginObject().key("spec").str(sampleSpec.spec());
        w.key("presets").beginArray();
        for (const PresetTiming& t : sampledTimings) {
            w.beginObject().key("name").str(t.name);
            w.key("wall_seconds").f64(t.wallSeconds, 6);
            w.key("effective_mops_per_sec").f64(t.mopsPerSec(), 3).endObject();
        }
        w.endArray().key("wall_seconds").f64(sampledSecs, 6);
        w.key("effective_mops_per_sec").f64(sampledMops, 3);
        w.key("speedup_vs_full").f64(sampledSpeedup, 3).endObject();
    }
    w.key("total").beginObject().key("wall_seconds").f64(totalSecs, 6);
    w.key("mops_per_sec").f64(totalMops, 3).endObject().endObject();
    std::string json = w.take();
    if (!writeFileAtomic(flags.jsonOut,
                         std::vector<uint8_t>(json.begin(), json.end())))
        fatal("cannot write " + flags.jsonOut);
    std::printf("wrote %s\n", flags.jsonOut.c_str());

    // ------------------------------------------------------ regression gate
    // Gates per-preset Mops/s as well as the total: a regression confined
    // to one mechanism's hook path (e.g. constable's stability tables)
    // barely moves the 6-preset total, and the total-only gate used to
    // let exactly that class of slowdown through.
    if (!flags.checkAgainst.empty()) {
        std::string text;
        JsonValue baseline;
        if (!readFileText(flags.checkAgainst, text))
            fatal("cannot read baseline " + flags.checkAgainst);
        double baseMops = 0.0;
        const JsonValue* total = nullptr;
        if (!parseJson(text, baseline) ||
            !(total = baseline.find("total")) ||
            !total->get("mops_per_sec", baseMops))
            fatal("baseline " + flags.checkAgainst +
                  " has no total mops_per_sec");
        int regressions = 0;
        // Full-fidelity presets only: the top-level "presets" array, never
        // the sampled section's entries (which share names).
        std::map<std::string, double> baseOf;
        if (const JsonValue* presets = baseline.find("presets")) {
            for (const JsonValue& e : presets->items) {
                std::string name;
                double mops;
                if (e.get("name", name) && e.get("mops_per_sec", mops))
                    baseOf.emplace(name, mops);
            }
        }
        for (const PresetTiming& t : timings) {
            auto it = baseOf.find(t.name);
            if (it == baseOf.end()) {
                std::printf("  %-18s no baseline entry; skipped\n",
                            t.name.c_str());
                continue;
            }
            double base = it->second;
            double presetFloor = base * (1.0 - flags.maxRegression);
            std::printf("  %-18s current %8.2f vs baseline %8.2f Mops/s "
                        "(floor %8.2f)%s\n",
                        t.name.c_str(), t.mopsPerSec(), base, presetFloor,
                        t.mopsPerSec() < presetFloor ? "  REGRESSED" : "");
            if (t.mopsPerSec() < presetFloor) {
                std::fprintf(stderr,
                             "PERF REGRESSION: preset %s at %.2f Mops/s is "
                             "%.1f%% below baseline %.2f\n",
                             t.name.c_str(), t.mopsPerSec(),
                             100.0 * (1.0 - t.mopsPerSec() / base), base);
                ++regressions;
            }
        }
        double floor = baseMops * (1.0 - flags.maxRegression);
        std::printf("regression gate: current %.2f vs baseline %.2f Mops/s "
                    "(floor %.2f)\n",
                    totalMops, baseMops, floor);
        if (totalMops < floor) {
            std::fprintf(stderr,
                         "PERF REGRESSION: %.2f Mops/s is %.1f%% below "
                         "baseline %.2f\n",
                         totalMops, 100.0 * (1.0 - totalMops / baseMops),
                         baseMops);
            ++regressions;
        }
        if (regressions > 0)
            return 1;
        std::printf("regression gate passed (%zu presets + total)\n",
                    timings.size());
    }
    return 0;
}

} // namespace constable

int
main(int argc, char** argv)
{
    return constable::perfMain(argc, argv);
}
