/**
 * @file
 * The simulator benchmark's measuring program. It drives the simulator only
 * through public functions and measures each layer from outside, by timing
 * the calls into it. simbench/run.py builds this program, runs it, derives
 * the pool and checkpoint metrics from the Perfetto trace of a traced run,
 * and prints the result line.
 *
 *   simbench --workload=NAME --seed=N --seconds=S --traced=0|1 --dir=DIR
 *            [--plant-corruption]
 *
 * Workloads (the reasons are in simbench/README.md):
 *   suite-sweep  90 paper traces x 60k ops, generated into an empty trace
 *                cache; one Experiment over six presets at the pool.
 *   long-trace   one 2M-op trace per category; runTrace trace-major over
 *                four presets on one thread, then runSampledTrace on the
 *                same cells.
 *   repro        every Experiment the figure benches run, over one
 *                inspected suite loaded from a warm trace cache, committing
 *                every cell to a fresh checkpoint root.
 *
 * The last stdout line is "SIMBENCH_RESULT {json}". Correctness gate: every
 * cell must retire exactly its trace's ops and reproduce the digest (FNV-1a
 * over serializeRunResult bytes) it had on the first pass: on every timed
 * pass, in the traced pass, under fork shards and on checkpoint read-back.
 * A golden-check failure aborts the simulator itself, so it fails the run
 * outright.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "inspector/load_inspector.hh"
#include "power/power.hh"
#include "sim/experiment.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "sim/sample.hh"
#include "trace/generator.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace fs = std::filesystem;
using namespace constable;

namespace {

using Clock = std::chrono::steady_clock;

/** Benchmark seed whose specs are exactly today's paperSuite(). */
constexpr uint64_t kPaperSeed = 0;
constexpr size_t kSweepOps = 60'000;
constexpr size_t kLongOps = 2'000'000;
/** A third of the figure benches' 60k ops: the full-length figure set
 *  takes about 45 s per pass on 4 CPUs, beyond the measuring window. */
constexpr size_t kReproOps = 20'000;
/** Set-ups per run: at least kSetupReps, and more until they took
 *  kSetupSeconds in all; setup_s is their median. */
constexpr size_t kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
/** Traces the pool warm-ups run every configuration over. */
constexpr size_t kWarmupTraces = 12;
/** Bare core constructions timed for cpu.core_setup_ms. */
constexpr unsigned kCoreSetupReps = 25;
/** The host clock one reference second stands for: the nominal clock of
 *  the 4-CPU Xeon the bounds were set on. */
constexpr double kRefGhz = 2.1;
/** Pool threads and fork shards: never more than the host's CPUs. */
const unsigned kThreads =
    std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

/** Presets whose per-preset layer metrics every workload reports. */
const std::vector<std::string> kCorePresets = { "baseline", "constable",
                                                "eves", "eves+constable" };
/** suite-sweep's matrix: the historical perf_regression preset set. */
const std::vector<std::string> kSweepPresets = {
    "baseline",       "constable",      "eves", "eves+constable",
    "elar+constable", "rfp+constable",
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Samples the host CPU clock while a set-up or timed pass runs. The host's
 * clock moves by a quarter to a half between periods minutes long, which
 * would swamp the changes a run should show. So set-up and pass times are
 * reported in reference seconds: host seconds x sampled clock / kRefGhz.
 * A sample times a dependent 64-bit multiply chain (3 cycles a multiply on
 * x86-64 cores) for about 0.1 ms, every 20 ms, on a thread of its own.
 */
class ClockSampler
{
  public:
    ClockSampler() : thread_([this] { loop(); }) {}
    ~ClockSampler() { stop(); }
    ClockSampler(const ClockSampler&) = delete;
    ClockSampler& operator=(const ClockSampler&) = delete;

    /** Stops sampling; the median sampled clock in GHz. */
    double
    ghz()
    {
        stop();
        return medianOf(samples_);
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        do {
            lk.unlock();
            double g = sampleOnce();
            lk.lock();
            samples_.push_back(g);
        } while (!cv_.wait_for(lk, std::chrono::milliseconds(20),
                               [this] { return stopping_; }));
    }

    static double
    sampleOnce()
    {
        constexpr int kIters = 100'000;
        uint64_t x = 0x9e3779b97f4a7c15ull;
        auto t0 = Clock::now();
        for (int i = 0; i < kIters; ++i) {
            x *= 0x9e3779b97f4a7c15ull;
            asm volatile("" : "+r"(x));
        }
        double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        return 3.0 * kIters / ns;
    }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;       ///< guarded by mu_
    std::vector<double> samples_; ///< guarded by mu_ until joined
    std::thread thread_;          ///< last: starts after what it uses
};

/** One timed piece of work: host seconds, the clock sampled meanwhile,
 *  and the simulated micro-ops it requested. */
struct Timing
{
    double hostSecs = 0.0;
    double ghz = 0.0;
    uint64_t ops = 0;

    double refSecs() const { return hostSecs * ghz / kRefGhz; }
    double
    mops() const
    {
        return static_cast<double>(ops) / refSecs() / 1e6;
    }
};

/** Time `fn` in host seconds while sampling the clock. */
template <class F>
Timing
timeIt(F&& fn)
{
    ClockSampler clock;
    auto t0 = Clock::now();
    fn();
    Timing t;
    t.hostSecs = secondsSince(t0);
    t.ghz = clock.ghz();
    return t;
}

double
medianMops(const std::vector<Timing>& ts)
{
    std::vector<double> v;
    for (const Timing& t : ts)
        v.push_back(t.mops());
    return medianOf(v);
}

/** Metric names may not carry '+': preset "eves+constable" -> "eves-constable". */
std::string
metricSuffix(std::string preset)
{
    std::replace(preset.begin(), preset.end(), '+', '-');
    return preset;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------- reporting

struct Metric
{
    double value = 0.0;
    std::string unit;
    std::string better; ///< "higher"/"lower"; empty for per-layer metrics
};

struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> layer;
    /** "metric: reason" for per-layer metrics this workload cannot
     *  measure; they are reported as 0. */
    std::vector<std::string> absent;
    std::vector<std::string> notes;

    void
    e2e(const std::string& name, double v, const char* unit,
        const char* better)
    {
        endToEnd[name] = { v, unit, better };
    }
    void
    per(const std::string& name, double v, const char* unit)
    {
        layer[name] = { v, unit, "" };
    }
    void
    missing(const std::string& name, const char* unit,
            const std::string& why)
    {
        per(name, 0.0, unit);
        absent.push_back(name + ": " + why);
    }
};

// ------------------------------------------------------ correctness gate

uint64_t
cellDigest(const RunResult& r)
{
    std::vector<uint8_t> bytes = serializeRunResult(r);
    return fnv1a(bytes.data(), bytes.size());
}

/** One pass's cells in a fixed order: digest, row (an SMT pair's row is
 *  told apart from a trace's), whether the cell retired exactly its
 *  trace's ops, and the micro-ops requested. */
struct CellSet
{
    std::vector<uint64_t> digests;
    std::vector<std::pair<bool, size_t>> rows;
    std::vector<uint8_t> retiredOk;
    uint64_t ops = 0;

    void
    add(const RunResult& r, uint64_t expected_ops, size_t row,
        bool smt = false)
    {
        digests.push_back(cellDigest(r));
        rows.emplace_back(smt, row);
        retiredOk.push_back(!r.goldenCheckFailed &&
                            r.instructions == expected_ops);
        ops += expected_ops;
    }
};

/** Counts attempted and failed cells; the first pass it sees is the
 *  reference every later pass (timed repeats, the traced pass, the
 *  checkpoint read-back) must reproduce digest for digest. */
class Gate
{
  public:
    void
    check(const CellSet& c)
    {
        attempted_ += c.digests.size();
        if (!ref_) {
            ref_ = c;
            fingerprint_ = fnv1a(
                reinterpret_cast<const uint8_t*>(c.digests.data()),
                c.digests.size() * sizeof(uint64_t));
        }
        if (c.digests.size() != ref_->digests.size()) {
            failed_ += c.digests.size();
            mismatch_ = true;
            return;
        }
        for (size_t i = 0; i < c.digests.size(); ++i) {
            bool same = ref_->digests[i] == c.digests[i];
            mismatch_ |= !same;
            if (!same || !c.retiredOk[i])
                ++failed_;
        }
    }

    /** Fold in another gate's counts (a second stream of cells). */
    void
    absorb(const Gate& g)
    {
        attempted_ += g.attempted_;
        failed_ += g.failed_;
        mismatch_ |= g.mismatch_;
    }

    void fail(uint64_t n) { failed_ += n; }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    uint64_t fingerprint() const { return fingerprint_; }
    bool mismatch() const { return mismatch_; }
    /** The first pass's cells. */
    const CellSet& reference() const { return *ref_; }

  private:
    std::optional<CellSet> ref_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t fingerprint_ = 0;
    bool mismatch_ = false;
};

/**
 * Run `pass` once, then again for as long as one more pass, taking as long
 * as the slowest so far, would still end within `budget` seconds of the
 * start. Every pass goes through the gate.
 */
std::vector<Timing>
timedPasses(double budget, const std::function<CellSet()>& pass, Gate& gate,
            bool traced)
{
    std::vector<Timing> passes;
    double slowest = 0.0;
    auto start = Clock::now();
    do {
        CellSet cells;
        Timing t = timeIt([&] {
            std::optional<ObsSpan> span;
            if (traced)
                span.emplace("bench.timed", "bench");
            cells = pass();
        });
        t.ops = cells.ops;
        slowest = std::max(slowest, t.hostSecs);
        gate.check(cells);
        passes.push_back(t);
    } while (secondsSince(start) + slowest <= budget);
    return passes;
}

// ----------------------------------------------------------- workloads

/** The paper suite re-seeded from the benchmark seed: spec i's trace seed
 *  is derived from (seed, i); kPaperSeed keeps paperSuite()'s own seeds. */
std::vector<WorkloadSpec>
seededSuite(size_t ops, uint64_t seed)
{
    std::vector<WorkloadSpec> specs;
    {
        ObsSpan span("bench.paperSuite", "bench");
        specs = paperSuite(ops);
    }
    if (seed != kPaperSeed) {
        for (size_t i = 0; i < specs.size(); ++i)
            specs[i].seed = Rng::splitmix(Rng::splitmix(seed) + i);
    }
    return specs;
}

/** long-trace's specs: the first paper-suite spec of each category. */
std::vector<WorkloadSpec>
longSpecs(uint64_t seed)
{
    std::vector<WorkloadSpec> out;
    for (WorkloadSpec& s : seededSuite(kLongOps, seed)) {
        if (out.empty() || out.back().category != s.category)
            out.push_back(std::move(s));
    }
    return out;
}

/** The first `n` traces of a suite as a suite of their own: a warm-up
 *  over it runs every configuration of a timed pass on every pool thread,
 *  so the threads' heaps have grown before timing starts, at a fraction of
 *  a pass's cost. */
Suite
headOf(const Suite& s, size_t n)
{
    std::vector<Trace> traces;
    for (size_t i = 0; i < std::min(n, s.size()); ++i)
        traces.push_back(s.trace(i));
    return Suite::fromTraces(std::move(traces));
}

/** A fresh, empty directory. */
std::string
freshDir(const std::string& path)
{
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

uint64_t
dirBytes(const std::string& path)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto& e : fs::recursive_directory_iterator(path, ec)) {
        if (e.is_regular_file())
            total += e.file_size();
    }
    return total;
}

struct Args
{
    std::string workload;
    uint64_t seed = kPaperSeed;
    double seconds = 10.0;
    bool traced = false;
    std::string dir;
    bool plantCorruption = false;
};

/** Experiment options shared by every workload: the pool at kThreads,
 *  no progress chatter, no checkpoints unless a workload sets a root. */
ExperimentOptions
baseOptions()
{
    ExperimentOptions o;
    o.threads = kThreads;
    o.progressSec = 0;
    return o;
}

/** Rows of each preset, for the model-side metrics and paper claims. */
using PresetRows = std::map<std::string, std::vector<const RunResult*>>;

PresetRows
rowsOf(const ExperimentResult& res, const std::vector<std::string>& presets)
{
    PresetRows rows;
    for (const std::string& p : presets) {
        for (size_t r = 0; r < res.numRows(); ++r)
            rows[p].push_back(&res.at(r, p));
    }
    return rows;
}

double
sumStat(const std::vector<const RunResult*>& rows, const std::string& key)
{
    double s = 0.0;
    for (const RunResult* r : rows)
        s += r->stats.get(key);
    return s;
}

double
sumInsts(const std::vector<const RunResult*>& rows)
{
    double s = 0.0;
    for (const RunResult* r : rows)
        s += static_cast<double>(r->instructions);
    return s;
}

double
perKop(const std::vector<const RunResult*>& rows, const std::string& key)
{
    return 1000.0 * sumStat(rows, key) / sumInsts(rows);
}

double
geomeanSpeedup(const PresetRows& rows, const std::string& test)
{
    const auto& base = rows.at("baseline");
    const auto& t = rows.at(test);
    std::vector<double> v;
    for (size_t i = 0; i < t.size(); ++i)
        v.push_back(speedup(*t[i], *base[i]));
    return geomean(v);
}

/** Fig 16's definition: mean over rows of (eliminated + value-predicted)
 *  loads / retired loads. */
double
evesCoverage(const PresetRows& rows)
{
    std::vector<double> v;
    for (const RunResult* r : rows.at("eves")) {
        v.push_back(ratio(r->stats.get("loads.eliminated") +
                              r->stats.get("loads.vp"),
                          r->stats.get("loads.retired")));
    }
    return mean(v);
}

/** Fig 19's definition: summed core dynamic energy, constable/baseline. */
double
constableEnergy(const PresetRows& rows)
{
    ObsSpan span("bench.computePower", "bench");
    auto total = [&](const std::string& p) {
        double e = 0.0;
        for (const RunResult* r : rows.at(p))
            e += computePower(r->stats).total();
        return e;
    };
    return total("constable") / total("baseline");
}

struct Claim
{
    const char* figure;
    const char* metric;
    double repo;
    double paper;
};

/** Mean |repo/paper - 1| in percent, with one printed line per claim. */
double
paperError(const std::vector<Claim>& claims)
{
    double err = 0.0;
    for (const Claim& c : claims) {
        double e = std::fabs(c.repo / c.paper - 1.0);
        err += e;
        std::printf("  claim %-7s %-32s repo %.4f  paper %.4f  err %.2f%%\n",
                    c.figure, c.metric, c.repo, c.paper, 100.0 * e);
    }
    return 100.0 * err / static_cast<double>(claims.size());
}

/** The four claims any matrix over kCorePresets can check. */
std::vector<Claim>
coreClaims(const PresetRows& rows)
{
    return {
        { "Fig11", "constable speedup", geomeanSpeedup(rows, "constable"),
          1.051 },
        { "Fig11", "eves speedup", geomeanSpeedup(rows, "eves"), 1.047 },
        { "Fig16", "eves load coverage", evesCoverage(rows), 0.273 },
        { "Fig19", "constable core energy", constableEnergy(rows), 0.966 },
    };
}

/** Simulated-machine metrics: must stay identical under any change that
 *  only speeds the simulator up. */
void
modelMetrics(const PresetRows& rows, Report& rep)
{
    for (const std::string& p : kCorePresets) {
        const auto& r = rows.at(p);
        double cycles = 0.0;
        for (const RunResult* x : r)
            cycles += static_cast<double>(x->cycles);
        rep.per("cpu.ipc." + metricSuffix(p), sumInsts(r) / cycles,
                "op/cycle");
    }
    const auto& base = rows.at("baseline");
    const auto& con = rows.at("constable");
    const auto& eves = rows.at("eves");
    rep.per("core.elim_frac",
            sumStat(con, "loads.eliminated") / sumStat(con, "loads.retired"),
            "frac");
    rep.per("core.sld_arms", perKop(con, "constable.sld.arms"), "1/kop");
    rep.per("core.amt_invalidations",
            perKop(con, "constable.amt.invalidations"), "1/kop");
    rep.per("vp.eves_coverage", evesCoverage(rows), "frac");
    rep.per("vp.flushes_per_kop", perKop(eves, "vp.flushes"), "1/kop");
    rep.per("mem.l1d_mpki", perKop(base, "mem.l1d.misses"), "1/kop");
    rep.per("mem.llc_mpki", perKop(base, "mem.llc.misses"), "1/kop");
    rep.per("mem.dtlb_mpki", perKop(base, "mem.dtlb.misses"), "1/kop");
    rep.per("predictor.branch_mpki", perKop(base, "branch.mispredicts"),
            "1/kop");
    rep.per("cpu.ordering_violations_per_kop",
            perKop(con, "ordering.violations"), "1/kop");
    rep.per("power.core_energy.constable", constableEnergy(rows), "ratio");
}

// ------------------------------------------------------- layer probes

/**
 * Traced runs only: call the trace, trace-cache and inspector layers one
 * trace at a time on this thread, each call inside a benchmark span, and
 * report the summed host seconds per layer.
 */
void
traceLayerProbe(const std::vector<WorkloadSpec>& specs,
                const std::string& dir, Report& rep)
{
    freshDir(dir);
    double gen = 0, save = 0, load = 0, inspect = 0;
    double ops = 0, diskBytes = 0, memBytes = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        std::string path = dir + "/probe-" + std::to_string(i) + ".trace";
        auto t0 = Clock::now();
        Trace t;
        {
            ObsSpan span("bench.generateTrace", "bench");
            t = generateTrace(specs[i]);
        }
        gen += secondsSince(t0);
        ops += static_cast<double>(t.size());
        memBytes += static_cast<double>(
            t.ops.capacity() * sizeof(MicroOp) +
            t.snoops.capacity() * sizeof(SnoopEvent) + sizeof(Trace));
        t0 = Clock::now();
        {
            ObsSpan span("bench.saveTrace", "bench");
            if (!saveTrace(path, t))
                fatal("probe cannot write " + path);
        }
        save += secondsSince(t0);
        diskBytes += static_cast<double>(fs::file_size(path));
        t = Trace{};
        t0 = Clock::now();
        {
            ObsSpan span("bench.loadTrace", "bench");
            if (!loadTrace(path, t))
                fatal("probe cannot read back " + path);
        }
        load += secondsSince(t0);
        t0 = Clock::now();
        {
            ObsSpan span("bench.inspectLoads", "bench");
            LoadInspectorResult r = inspectLoads(t);
            (void)r;
        }
        inspect += secondsSince(t0);
        fs::remove(path);
    }
    rep.per("trace.generate_s", gen, "s");
    rep.per("trace.save_s", save, "s");
    rep.per("trace.load_s", load, "s");
    rep.per("inspector.inspect_s", inspect, "s");
    rep.per("trace.disk_bytes_per_op", diskBytes / ops, "B/op");
    rep.per("trace.mem_bytes_per_op", memBytes / ops, "B/op");
}

/** Bare OooCore construction (no run), median of kCoreSetupReps. */
void
coreSetupProbe(const Suite& suite, Report& rep)
{
    SystemConfig cfg{ CoreConfig{}, mechFor("constable") };
    std::vector<double> ms;
    for (unsigned i = 0; i < kCoreSetupReps; ++i) {
        auto t0 = Clock::now();
        {
            ObsSpan span("bench.OooCore", "bench");
            OooCore core(cfg.core, cfg.mech, { &suite.trace(0) },
                         &suite.globalStablePcs(0));
        }
        ms.push_back(1e3 * secondsSince(t0));
    }
    rep.per("cpu.core_setup_ms", medianOf(ms), "ms");
}

/** Host ns per simulated op and per simulated cycle, per preset. */
void
nsPerOp(const std::map<std::string, std::tuple<double, double, double>>&
            secs_ops_cycles,
        Report& rep)
{
    for (const auto& [p, t] : secs_ops_cycles) {
        auto [secs, ops, cycles] = t;
        rep.per("cpu.ns_per_op." + metricSuffix(p), 1e9 * secs / ops, "ns");
        rep.per("cpu.ns_per_cycle." + metricSuffix(p), 1e9 * secs / cycles,
                "ns");
    }
}

/** suite-sweep and repro: runTrace serially over the first trace of each
 *  category, per core preset (long-trace times its own full phase). */
void
runTraceProbe(const Suite& suite, Report& rep)
{
    std::map<std::string, std::tuple<double, double, double>> acc;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (i > 0 && suite.spec(i).category == suite.spec(i - 1).category)
            continue;
        for (const std::string& p : kCorePresets) {
            SystemConfig cfg{ CoreConfig{}, mechFor(p) };
            auto t0 = Clock::now();
            RunResult r;
            {
                ObsSpan span("bench.runTrace", "bench");
                r = runTrace(suite.trace(i), cfg, &suite.globalStablePcs(i));
            }
            auto& [s, o, c] = acc[p];
            s += secondsSince(t0);
            o += static_cast<double>(r.instructions);
            c += static_cast<double>(r.cycles);
        }
    }
    nsPerOp(acc, rep);
}

void
sampleAbsent(Report& rep, const char* why)
{
    rep.missing("sampled_mops", "Mop/s", why);
    rep.missing("sample_err_pct", "%", why);
    rep.missing("sample.detail_frac", "frac", why);
    rep.missing("sample.ci95_pct", "%", why);
    for (const std::string& p : kCorePresets)
        rep.missing("sample.cell_s." + metricSuffix(p), "s", why);
}

/** Cells requested/computed/reused and how many were distinct: two cells
 *  over the same row whose result bytes agree count once. */
void
cellAccounting(const CellSet& cells, uint64_t reused, Report& rep)
{
    std::set<std::tuple<bool, size_t, uint64_t>> distinct;
    for (size_t i = 0; i < cells.digests.size(); ++i) {
        distinct.emplace(cells.rows[i].first, cells.rows[i].second,
                         cells.digests[i]);
    }
    double n = static_cast<double>(cells.digests.size());
    rep.per("repro.cells_requested", n, "count");
    rep.per("repro.cells_computed", n - static_cast<double>(reused),
            "count");
    rep.per("repro.cells_reused", static_cast<double>(reused), "count");
    rep.per("repro.distinct_cell_frac",
            static_cast<double>(distinct.size()) / n, "frac");
}

/** Trace-cache hits over lookups in the armed set-up (obs counters). */
double
cacheHitFrac()
{
    double hits = static_cast<double>(obsCounter("trace.cache.hit").value());
    double misses =
        static_cast<double>(obsCounter("trace.cache.miss").value());
    return hits / (hits + misses);
}

/** The per-layer metrics every workload's traced run measures alike. */
void
commonLayers(const Args& a, const std::vector<WorkloadSpec>& specs,
             const Suite& suite, const PresetRows& rows,
             const CellSet& cells, uint64_t reused, Report& rep)
{
    modelMetrics(rows, rep);
    traceLayerProbe(specs, a.dir + "/probe", rep);
    coreSetupProbe(suite, rep);
    rep.per("trace.cache_hit_frac", cacheHitFrac(), "frac");
    cellAccounting(cells, reused, rep);
}

// -------------------------------------------------------- correctness

/**
 * --plant-corruption: rebuild the suite through Suite::fromTraces with
 * corrupted load values in trace 0. The last instance of each of its eight
 * most frequent global-stable loads now disagrees with the value Constable
 * holds, so the golden check must fail the run.
 */
Suite
plantCorruption(const Suite& suite)
{
    std::vector<Trace> traces;
    for (size_t i = 0; i < suite.size(); ++i)
        traces.push_back(suite.trace(i));
    std::vector<StaticLoadInfo> stable;
    for (const auto& [pc, info] : suite.inspection(0).loads) {
        if (info.globalStable)
            stable.push_back(info);
    }
    std::sort(stable.begin(), stable.end(), [](const auto& a, const auto& b) {
        return std::tie(a.dynCount, a.pc) > std::tie(b.dynCount, b.pc);
    });
    stable.resize(std::min<size_t>(stable.size(), 8));
    std::vector<MicroOp>& ops = traces[0].ops;
    for (const StaticLoadInfo& s : stable) {
        for (size_t k = ops.size(); k-- > 0;) {
            if (ops[k].isLoad() && ops[k].pc == s.pc) {
                ops[k].value ^= 0x5a5a;
                break;
            }
        }
    }
    std::printf("planted corrupted load values at %zu PCs of %s\n",
                stable.size(), traces[0].name.c_str());
    return Suite::fromTraces(std::move(traces));
}

// ----------------------------------------------------------- run loop

/** Everything a workload hands the shared run loop. */
struct Workload
{
    /** Build the suite (timed as set-up). */
    std::function<Suite()> setup;
    /** Untimed, after each set-up: drop a cold cache's files so no
     *  writeback of them overlaps a timed phase. */
    std::function<void()> afterSetup;
    /** Untimed warm-up before the timed phase. */
    std::function<void(const Suite&)> warmup;
    /** One timed full-fidelity pass. */
    std::function<CellSet(const Suite&)> pass;
    /** Traced runs: extra measurements made before obs is armed. */
    std::function<void(const Suite&)> beforeArming;
};

struct RunState
{
    Report rep;
    Gate gate;
};

/** set-up reps, warm-up, timed passes (and, traced, an armed re-run). */
std::optional<Suite>
drive(const Args& a, const Workload& w, RunState& st)
{
    std::optional<Suite> suite;
    std::vector<double> setup, setupHost;
    double setupTotal = 0.0;
    while (setup.empty() ||
           (!a.traced &&
            (setup.size() < kSetupReps || setupTotal < kSetupSeconds))) {
        suite.reset();
        Timing t = timeIt([&] { suite.emplace(w.setup()); });
        setup.push_back(t.refSecs());
        setupHost.push_back(t.hostSecs);
        setupTotal += t.hostSecs;
        if (w.afterSetup)
            w.afterSetup();
    }
    if (a.plantCorruption)
        suite.emplace(plantCorruption(*suite));
    w.warmup(*suite);
    double budget = a.traced ? a.seconds / 2 : a.seconds;
    std::vector<Timing> passes = timedPasses(
        budget, [&] { return w.pass(*suite); }, st.gate, false);
    st.rep.e2e("setup_s", medianOf(setup), "s", "lower");
    st.rep.e2e("sim_mops", medianMops(passes), "Mop/s", "higher");
    std::vector<double> ghz;
    std::printf("set-up: %zu, median %.4f host s\ntimed passes: %zu, "
                "host Mop/s @ sampled GHz:",
                setup.size(), medianOf(setupHost), passes.size());
    for (const Timing& t : passes) {
        std::printf(" %.3f@%.2f", static_cast<double>(t.ops) / t.hostSecs /
                                      1e6, t.ghz);
        ghz.push_back(t.ghz);
    }
    std::printf("\n");
    st.rep.per("host.clock_ghz", medianOf(ghz), "GHz");
    if (a.traced) {
        if (w.beforeArming)
            w.beforeArming(*suite);
        obsArm();
        suite.reset();
        {
            ObsSpan span("bench.setup", "bench");
            suite.emplace(w.setup());
        }
        if (w.afterSetup)
            w.afterSetup();
        w.warmup(*suite);
        std::vector<Timing> armed = timedPasses(
            budget, [&] { return w.pass(*suite); }, st.gate, true);
        st.rep.per("obs.overhead_frac",
                   medianMops(passes) / medianMops(armed) - 1.0, "frac");
        st.rep.notes.push_back("armed sim Mop/s " +
                               std::to_string(medianMops(armed)));
    }
    return suite;
}

void
runSuiteSweep(const Args& a, RunState& st)
{
    auto specs = seededSuite(kSweepOps, a.seed);
    const std::string cache = a.dir + "/cache";
    std::optional<ExperimentResult> first;
    auto sweep = [](const Suite& s, const ExperimentOptions& o,
                    const char* name) {
        Experiment e(name, s, o);
        for (const std::string& p : kSweepPresets)
            e.addPreset(p);
        ObsSpan span("bench.Experiment.run", "bench");
        return e.run();
    };
    auto cellsOf = [](const Suite& s, const ExperimentResult& res) {
        CellSet c;
        for (size_t r = 0; r < res.numRows(); ++r) {
            for (size_t k = 0; k < kSweepPresets.size(); ++k)
                c.add(res.at(r, k), s.trace(r).size(), r);
        }
        return c;
    };
    Workload w;
    w.setup = [&] {
        ExperimentOptions o = baseOptions();
        o.traceDir = cache;
        ObsSpan span("bench.Suite.fromSpecs", "bench");
        return Suite::fromSpecs(specs, o);
    };
    w.afterSetup = [&] { fs::remove_all(cache); };
    w.warmup = [&](const Suite& s) {
        sweep(headOf(s, kWarmupTraces), baseOptions(), "warmup");
    };
    w.pass = [&](const Suite& s) {
        ExperimentResult res = sweep(s, baseOptions(), "suite-sweep");
        if (!first)
            first.emplace(res);
        return cellsOf(s, res);
    };
    // Fork-vs-threads: the same matrix under kThreads fork shards (cells
    // travel through a checkpoint directory) against kThreads threads.
    // Timed before obs is armed: fork children would carry the parent's
    // spans into their partials.
    double forkOverThreads = 0.0;
    w.beforeArming = [&](const Suite& s) {
        auto t0 = Clock::now();
        ExperimentResult tres = sweep(s, baseOptions(), "fork-vs-threads");
        double thrSecs = secondsSince(t0);
        ExperimentOptions frk = baseOptions();
        frk.threads = 1;
        frk.shards = kThreads;
        frk.checkpointDir = freshDir(a.dir + "/shards");
        t0 = Clock::now();
        ExperimentResult fres = sweep(s, frk, "fork-vs-threads");
        double frkSecs = secondsSince(t0);
        st.gate.check(cellsOf(s, tres));
        st.gate.check(cellsOf(s, fres));
        forkOverThreads = frkSecs / thrSecs;
        st.rep.notes.push_back("fork shards " + std::to_string(frkSecs) +
                               " s vs threads " + std::to_string(thrSecs) +
                               " s");
    };

    std::optional<Suite> suite = drive(a, w, st);
    Report& rep = st.rep;
    PresetRows rows = rowsOf(*first, kCorePresets);
    rep.e2e("paper_err_pct", paperError(coreClaims(rows)), "%", "lower");
    if (!a.traced)
        return;

    commonLayers(a, specs, *suite, rows, st.gate.reference(), 0, rep);
    runTraceProbe(*suite, rep);
    sampleAbsent(rep, "suite-sweep runs no sampled phase");
    rep.missing("ckpt.bytes_per_cell", "B",
                "suite-sweep runs without checkpoints");
    rep.per("shard.fork_over_threads", forkOverThreads, "ratio");
}

void
runLongTrace(const Args& a, RunState& st)
{
    auto specs = longSpecs(a.seed);
    const std::string cache = a.dir + "/cache";
    struct Cell
    {
        RunResult full, sampled;
        double fullSecs = 0, sampledSecs = 0;
    };
    std::vector<Cell> cells; // trace-major: [trace][preset]
    const size_t np = kCorePresets.size();
    SampleOptions sample;
    sample.enabled = true;
    const uint64_t sampleSeed = ExperimentOptions{}.seed;

    Workload w;
    w.setup = [&] {
        ExperimentOptions o = baseOptions();
        o.traceDir = cache;
        ObsSpan span("bench.Suite.fromSpecs", "bench");
        return Suite::fromSpecs(specs, o);
    };
    w.afterSetup = [&] { fs::remove_all(cache); };
    w.warmup = [&](const Suite& s) {
        // One short trace through the core before the long ones.
        WorkloadSpec small = s.spec(0);
        small.targetOps = 100'000;
        runTrace(generateTrace(small),
                 SystemConfig{ CoreConfig{}, mechFor("baseline") });
    };
    w.pass = [&](const Suite& s) {
        // Trace-major: every preset of a trace runs back to back, so all
        // presets see the same host noise.
        cells.assign(s.size() * np, Cell{});
        CellSet c;
        for (size_t t = 0; t < s.size(); ++t) {
            for (size_t k = 0; k < np; ++k) {
                SystemConfig cfg{ CoreConfig{}, mechFor(kCorePresets[k]) };
                Cell& cell = cells[t * np + k];
                auto t0 = Clock::now();
                {
                    ObsSpan span("bench.runTrace", "bench");
                    cell.full =
                        runTrace(s.trace(t), cfg, &s.globalStablePcs(t));
                }
                cell.fullSecs = secondsSince(t0);
                c.add(cell.full, s.trace(t).size(), t);
            }
        }
        return c;
    };

    std::optional<Suite> suite = drive(a, w, st);
    Report& rep = st.rep;
    const Suite& s = *suite;

    // Sampled phase on the same cells, also trace-major, after one
    // untimed warm-up call; its cells go through their own gate.
    runSampledTrace(s.trace(0), CoreConfig{}, mechFor("baseline"), sample,
                    sampleSeed);
    Gate sampledGate;
    std::vector<Timing> sampledPasses = timedPasses(
        std::max(1.0, a.seconds / 5),
        [&] {
            CellSet pass;
            for (size_t t = 0; t < s.size(); ++t) {
                for (size_t k = 0; k < np; ++k) {
                    SystemConfig cfg{ CoreConfig{},
                                      mechFor(kCorePresets[k]) };
                    Cell& cell = cells[t * np + k];
                    auto t0 = Clock::now();
                    {
                        ObsSpan span("bench.runSampledTrace", "bench");
                        cell.sampled = runSampledTrace(
                            s.trace(t), cfg.core, cfg.mech, sample,
                            sampleSeed, &s.globalStablePcs(t));
                    }
                    cell.sampledSecs = secondsSince(t0);
                    pass.add(cell.sampled, s.trace(t).size(), t);
                }
            }
            return pass;
        },
        sampledGate, false);
    st.gate.absorb(sampledGate);

    double err = 0.0;
    PresetRows rows;
    std::map<std::string, std::tuple<double, double, double>> full;
    std::map<std::string, std::vector<double>> sampledSecs;
    double detail = 0.0, ci95 = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        const std::string& p = kCorePresets[i % np];
        err += std::fabs(static_cast<double>(c.sampled.cycles) /
                             static_cast<double>(c.full.cycles) -
                         1.0);
        rows[p].push_back(&c.full);
        auto& [secs, ops, cyc] = full[p];
        secs += c.fullSecs;
        ops += static_cast<double>(c.full.instructions);
        cyc += static_cast<double>(c.full.cycles);
        sampledSecs[p].push_back(c.sampledSecs);
        detail += c.sampled.stats.get("sample.coverage");
        ci95 += 100.0 * c.sampled.stats.get("sample.cpi.ci95") /
                c.sampled.stats.get("sample.cpi");
    }
    double n = static_cast<double>(cells.size());
    double sampleErr = 100.0 * err / n;
    rep.e2e("paper_err_pct", paperError(coreClaims(rows)), "%", "lower");
    rep.e2e("sampled_mops", medianMops(sampledPasses), "Mop/s", "higher");
    rep.e2e("sample_err_pct", sampleErr, "%", "lower");
    if (!a.traced)
        return;

    rep.per("sampled_mops", medianMops(sampledPasses), "Mop/s");
    rep.per("sample_err_pct", sampleErr, "%");
    rep.per("sample.detail_frac", detail / n, "frac");
    rep.per("sample.ci95_pct", ci95 / n, "%");
    for (const auto& [p, v] : sampledSecs)
        rep.per("sample.cell_s." + metricSuffix(p), mean(v), "s");
    nsPerOp(full, rep);
    commonLayers(a, specs, s, rows, st.gate.reference(), 0, rep);
    rep.missing("ckpt.bytes_per_cell", "B",
                "long-trace runs without checkpoints");
    rep.missing("shard.fork_over_threads", "ratio",
                "measured on suite-sweep only");
}

/** One figure bench's Experiment, as the bench defines it. */
struct ReproExperiment
{
    const char* name;
    bool smt;
    std::function<void(Experiment&)> columns;
};

Experiment&
presets(Experiment& e, std::initializer_list<const char*> names)
{
    for (const char* p : names)
        e.addPreset(p);
    return e;
}

/** Every Experiment of bench/fig*.cc, in bench order, with the benches'
 *  experiment names, columns and core configurations. */
const std::vector<ReproExperiment>&
reproExperiments()
{
    static const std::vector<ReproExperiment> exps = {
        { "fig06", false, [](Experiment& e) { presets(e, { "eves" }); } },
        { "fig07", false,
          [](Experiment& e) {
              CoreConfig wide;
              wide.loadPorts *= 2;
              presets(e, { "baseline", "ideal-stable-lvp",
                           "ideal-stable-lvp-nofetch" });
              e.add("width2", mechFor("baseline"), wide);
              e.addPreset("ideal-constable");
          } },
        { "fig09", false,
          [](Experiment& e) {
              MechanismConfig noWp = mechFor("constable");
              noWp.constable.wrongPathUpdates = false;
              e.addPreset("constable").add("noWrongPath", noWp);
          } },
        { "fig11", false,
          [](Experiment& e) {
              presets(e, { "baseline", "eves", "constable", "eves+constable",
                           "eves+ideal-constable" });
          } },
        { "fig12", false,
          [](Experiment& e) {
              presets(e, { "baseline", "eves", "constable",
                           "eves+constable" });
          } },
        { "fig13", false,
          [](Experiment& e) {
              presets(e, { "baseline", "constable-pcrel",
                           "constable-stackrel", "constable-regrel",
                           "constable" });
          } },
        { "fig14", true,
          [](Experiment& e) {
              presets(e, { "baseline", "eves", "constable",
                           "eves+constable" });
          } },
        { "fig15", false,
          [](Experiment& e) {
              presets(e, { "baseline", "elar", "rfp", "constable",
                           "elar+constable", "rfp+constable" });
          } },
        { "fig16", false,
          [](Experiment& e) {
              presets(e, { "eves", "constable", "eves+constable",
                           "eves+ideal-constable" });
          } },
        { "fig17", false,
          [](Experiment& e) { presets(e, { "constable" }); } },
        { "fig18", false,
          [](Experiment& e) { presets(e, { "baseline", "constable" }); } },
        { "fig19", false,
          [](Experiment& e) {
              presets(e, { "baseline", "eves", "constable",
                           "eves+constable" });
          } },
        { "fig20a-width", false,
          [](Experiment& e) {
              for (unsigned w = 3; w <= 6; ++w) {
                  CoreConfig core;
                  core.loadPorts = w;
                  e.add("base-w" + std::to_string(w), mechFor("baseline"),
                        core);
                  e.add("const-w" + std::to_string(w), mechFor("constable"),
                        core);
              }
          } },
        { "fig20b-depth", false,
          [](Experiment& e) {
              for (unsigned d = 1; d <= 4; ++d) {
                  CoreConfig core;
                  core.depthScale = static_cast<double>(d);
                  e.add("base-d" + std::to_string(d), mechFor("baseline"),
                        core);
                  e.add("const-d" + std::to_string(d), mechFor("constable"),
                        core);
              }
          } },
        { "fig21", false,
          [](Experiment& e) { presets(e, { "baseline", "constable" }); } },
        { "fig22", false,
          [](Experiment& e) {
              presets(e, { "baseline", "constable", "constable-amt-i" });
          } },
    };
    return exps;
}

void
runRepro(const Args& a, RunState& st)
{
    auto specs = seededSuite(kReproOps, a.seed);
    const std::string cache = freshDir(a.dir + "/cache");
    {
        // Warm the trace cache before anything is timed.
        ExperimentOptions o = baseOptions();
        o.traceDir = cache;
        Suite::fromSpecs(specs, o, /*inspect=*/false);
    }
    unsigned passNo = 0;
    std::vector<ExperimentResult> first;
    std::vector<double> figSecs(reproExperiments().size(), 0.0);

    // Runs every experiment into `root`; returns the results in order.
    auto runAll = [&](const Suite& s, const std::string& root,
                      std::vector<double>* secs) {
        ExperimentOptions o = baseOptions();
        o.checkpointDir = root;
        std::vector<ExperimentResult> out;
        for (size_t i = 0; i < reproExperiments().size(); ++i) {
            const ReproExperiment& x = reproExperiments()[i];
            Experiment e(x.name, s, o);
            x.columns(e);
            auto t0 = Clock::now();
            {
                ObsSpan span("bench.Experiment.run", "bench");
                out.push_back(x.smt ? e.runSmt() : e.run());
            }
            if (secs)
                (*secs)[i] += secondsSince(t0);
        }
        return out;
    };
    auto cellsOf = [](const Suite& s,
                      const std::vector<ExperimentResult>& res) {
        CellSet c;
        auto pairs = smtPairs(s.size());
        for (size_t i = 0; i < res.size(); ++i) {
            const MatrixResult& m = res[i].matrix();
            for (size_t r = 0; r < m.numRows; ++r) {
                uint64_t expect =
                    reproExperiments()[i].smt
                        ? s.trace(pairs[r].first).size() +
                              s.trace(pairs[r].second).size()
                        : s.trace(r).size();
                for (size_t k = 0; k < m.numConfigs; ++k)
                    c.add(m.at(r, k), expect, r, reproExperiments()[i].smt);
            }
        }
        return c;
    };

    Workload w;
    w.setup = [&] {
        ExperimentOptions o = baseOptions();
        o.traceDir = cache;
        ObsSpan span("bench.Suite.fromSpecs", "bench");
        return Suite::fromSpecs(specs, o);
    };
    w.warmup = [&](const Suite& s) {
        runAll(headOf(s, kWarmupTraces), freshDir(a.dir + "/ckpt-warmup"),
               nullptr);
    };
    std::string lastRoot;
    w.pass = [&](const Suite& s) {
        lastRoot = freshDir(a.dir + "/ckpt-" + std::to_string(passNo++));
        std::vector<ExperimentResult> res =
            runAll(s, lastRoot, first.empty() ? &figSecs : nullptr);
        CellSet c = cellsOf(s, res);
        if (first.empty())
            first = std::move(res);
        return c;
    };

    std::optional<Suite> suite = drive(a, w, st);
    Report& rep = st.rep;
    const Suite& s = *suite;

    // Read-back: the same experiments over the last pass's checkpoint
    // root must restore every cell, bit-identical, without simulating.
    std::vector<ExperimentResult> back = runAll(s, lastRoot, nullptr);
    uint64_t cellsTotal = 0, resumed = 0;
    for (const ExperimentResult& r : back) {
        cellsTotal += r.matrix().results.size();
        resumed += r.resumedCells();
    }
    st.gate.check(cellsOf(s, back));
    st.gate.fail(cellsTotal - resumed);

    auto result = [&](const std::string& name) -> const ExperimentResult& {
        for (size_t i = 0; i < first.size(); ++i) {
            if (reproExperiments()[i].name == name)
                return first[i];
        }
        fatal("no repro experiment " + name);
    };
    PresetRows rows = rowsOf(result("fig19"), kCorePresets);
    PresetRows fig11 = rowsOf(result("fig11"), { "baseline", "eves",
                                                 "constable",
                                                 "eves+ideal-constable" });
    PresetRows fig14 = rowsOf(result("fig14"),
                              { "baseline", "constable", "eves+constable" });
    std::vector<Claim> claims = {
        { "Fig11", "constable speedup", geomeanSpeedup(fig11, "constable"),
          1.051 },
        { "Fig11", "eves speedup", geomeanSpeedup(fig11, "eves"), 1.047 },
        { "Fig11", "eves+ideal-constable speedup",
          geomeanSpeedup(fig11, "eves+ideal-constable"), 1.103 },
        { "Fig14", "SMT constable speedup",
          geomeanSpeedup(fig14, "constable"), 1.088 },
        { "Fig14", "SMT eves+constable speedup",
          geomeanSpeedup(fig14, "eves+constable"), 1.113 },
        { "Fig16", "eves load coverage",
          evesCoverage(rowsOf(result("fig16"), { "eves" })), 0.273 },
        { "Fig19", "constable core energy", constableEnergy(rows), 0.966 },
    };
    rep.e2e("paper_err_pct", paperError(claims), "%", "lower");
    for (size_t i = 0; i < figSecs.size(); ++i) {
        std::printf("  %-13s %7.3f s  (%zu cells)\n",
                    reproExperiments()[i].name, figSecs[i],
                    first[i].matrix().results.size());
    }
    if (!a.traced)
        return;

    uint64_t reused = 0;
    for (const ExperimentResult& r : first)
        reused += r.resumedCells();
    commonLayers(a, specs, s, rows, st.gate.reference(), reused, rep);
    runTraceProbe(s, rep);
    rep.per("ckpt.bytes_per_cell",
            static_cast<double>(dirBytes(lastRoot)) /
                static_cast<double>(cellsTotal),
            "B");
    sampleAbsent(rep, "repro runs no sampled phase");
    rep.missing("shard.fork_over_threads", "ratio",
                "measured on suite-sweep only");
}

// ------------------------------------------------------------ host

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

/** Refuse to time a build whose numbers would mean nothing. */
void
requireReleaseBuild()
{
    bool sanitized = std::string(SIMBENCH_SANITIZE) != "";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
#ifndef NDEBUG
    fatal("simbench: refusing to time a build with assertions enabled "
          "(build type '" SIMBENCH_BUILD_TYPE "'); configure Release");
#endif
    if (std::string(SIMBENCH_BUILD_TYPE) != "Release")
        fatal("simbench: refusing to time a '" SIMBENCH_BUILD_TYPE
              "' build; configure Release");
    if (sanitized)
        fatal("simbench: refusing to time a sanitized build");
}

void
printResult(const Args& a, const RunState& st)
{
    const Report& rep = st.rep;
    std::string out = "{\"workload\":\"" + a.workload + "\",\"seed\":" +
                      std::to_string(a.seed) + ",\"traced\":" +
                      (a.traced ? "true" : "false");
    out += ",\"attempted\":" + std::to_string(st.gate.attempted());
    out += ",\"failed\":" + std::to_string(st.gate.failed());
    out += ",\"fingerprint\":\"" + hex64(st.gate.fingerprint()) + "\"";
    out += ",\"fingerprints_agree\":";
    out += st.gate.mismatch() ? "false" : "true";
    out += ",\"host\":{\"cpu\":\"" + jsonEscape(cpuModel()) +
           "\",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"threads\":" + std::to_string(kThreads) +
           ",\"compiler\":\"" + jsonEscape(SIMBENCH_COMPILER) +
           "\",\"build_type\":\"" SIMBENCH_BUILD_TYPE "\"}";
    auto metrics = [&](const char* key,
                       const std::map<std::string, Metric>& ms) {
        out += std::string(",\"") + key + "\":{";
        bool firstM = true;
        for (const auto& [name, m] : ms) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", m.value);
            out += std::string(firstM ? "" : ",") + "\"" + name +
                   "\":{\"value\":" + num + ",\"unit\":\"" + m.unit +
                   "\",\"better\":\"" + m.better + "\"}";
            firstM = false;
        }
        out += "}";
    };
    metrics("end_to_end", rep.endToEnd);
    metrics("per_layer", rep.layer);
    auto strings = [&](const char* key, const std::vector<std::string>& v) {
        out += std::string(",\"") + key + "\":[";
        for (size_t i = 0; i < v.size(); ++i)
            out += (i ? ",\"" : "\"") + jsonEscape(v[i]) + "\"";
        out += "]";
    };
    strings("absent", rep.absent);
    strings("notes", rep.notes);
    out += "}";
    std::printf("SIMBENCH_RESULT %s\n", out.c_str());
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTraced = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        size_t eq = arg.find('=');
        std::string flag = arg.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = parseU64Strict("--seed", val);
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(
                parseU64InRange("--seconds", val, 1, 600));
            haveSeconds = true;
        } else if (flag == "--traced") {
            a.traced = parseU64InRange("--traced", val, 0, 1) == 1;
            haveTraced = true;
        } else if (flag == "--dir") {
            a.dir = val;
        } else if (flag == "--plant-corruption") {
            a.plantCorruption = true;
        } else {
            fatal("simbench: unknown argument '" + arg + "'");
        }
    }
    if (a.workload != "suite-sweep" && a.workload != "long-trace" &&
        a.workload != "repro")
        fatal("simbench: --workload must be suite-sweep, long-trace or repro");
    if (!haveSeed || !haveSeconds || !haveTraced || a.dir.empty())
        fatal("simbench: --seed, --seconds, --traced and --dir are required");
    return a;
}

} // namespace

int
main(int argc, char** argv)
{
    requireReleaseBuild();
    Args a = parseArgs(argc, argv);
    fs::create_directories(a.dir);
    std::printf("host: %s, nproc %u, %s, " SIMBENCH_BUILD_TYPE
                ", pool threads %u\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                SIMBENCH_COMPILER, kThreads);
    std::fflush(stdout);

    RunState st;
    if (a.workload == "suite-sweep")
        runSuiteSweep(a, st);
    else if (a.workload == "long-trace")
        runLongTrace(a, st);
    else
        runRepro(a, st);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    st.rep.e2e("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
               "MB", "lower");
    st.rep.e2e("cell_fail_frac",
               static_cast<double>(st.gate.failed()) /
                   static_cast<double>(std::max<uint64_t>(
                       1, st.gate.attempted())),
               "frac", "lower");
    if (a.traced) {
        if (uint64_t dropped = obsSpansDropped())
            st.rep.notes.push_back("obs dropped " + std::to_string(dropped) +
                                   " spans; span-derived metrics undercount");
        if (!obsWriteTrace(a.dir + "/trace.json"))
            fatal("simbench: cannot write the Perfetto trace");
    }
    printResult(a, st);
    return 0;
}
