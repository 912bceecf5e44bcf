#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <system_error>
#include <unordered_map>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "common/stats.hh"
#include "sim/cell_key.hh"
#include "trace/serialize.hh"

namespace constable {

namespace {

void
makeDirs(const std::string& dir, const char* what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal(std::string(what) + " directory '" + dir +
              "' cannot be created: " + ec.message());
}

/** Parse the comma-separated registry preset names in @p list into out
 *  via the shared strict parser; fatal() when the list names nothing. */
void
appendMechNames(const std::string& what, const std::string& list,
                std::vector<std::string>& out)
{
    if (appendPresetNames(what, list, out) == 0)
        fatal(what + " names no mechanism presets (known: " +
              MechanismRegistry::instance().nameList() + ")");
}

[[noreturn]] void
printUsage(const char* prog, int exit_code)
{
    std::FILE* out = exit_code == 0 ? stdout : stderr;
    std::fprintf(out,
        "usage: %s [options]\n"
        "  --threads=N         batch threads (0 = all cores, 1 = serial)\n"
        "  --seed=N            master seed for per-job RNG streams\n"
        "  --trace-ops=N       dynamic micro-ops per generated trace\n"
        "  --suite-limit=N     truncate the suite to its first N traces\n"
        "  --trace-dir=PATH    on-disk trace cache (generate once, then "
        "load)\n"
        "  --checkpoint-dir=PATH  content-addressed cell store; sweeps "
        "resume and\n                      share cells (one root may serve "
        "every bench)\n"
        "  --trace-cache-max-mb=N       LRU-trim the trace cache to N MB "
        "(0 = off)\n"
        "  --trace-cache-max-age-days=N drop cache entries older than N "
        "days (0 = off)\n"
        "  --shards=N          fleet size with --shard-id; alone, run N "
        "batch threads\n"
        "  --shard-id=K        join an externally launched fleet as worker "
        "K\n                      (requires --shards and a shared "
        "--checkpoint-dir)\n"
        "  --lease-ttl-sec=N   reclaim a worker's cell lease after N "
        "seconds\n"
        "  --shard-poll-ms=N   poll interval while waiting on other "
        "shards\n"
        "  --mech=NAME[,NAME...]  run these registry presets instead of "
        "the\n                      bench's compiled-in figure\n"
        "  --scenario=FILE     run a declarative scenario file (see "
        "README)\n"
        "  --sample=SPEC       phase-sampled simulation: phases:N,window:K "
        "(or\n                      'off'); see README \"Sampled "
        "simulation\"\n"
        "  --fault-plan=SPEC   arm deterministic I/O fault injection "
        "(see\n                      README \"Fault injection & "
        "recovery\")\n"
        "  --trace-out=FILE    write a Chrome/Perfetto trace-event JSON "
        "at exit\n"
        "  --metrics-out=FILE  write an obs metrics snapshot JSON at "
        "exit\n"
        "  --progress-sec=N    seconds between one-line progress reports "
        "(0 = off)\n"
        "  --help              this text\n"
        "Mechanism presets: %s\n"
        "Environment: CONSTABLE_THREADS, CONSTABLE_SEED, "
        "CONSTABLE_TRACE_OPS,\nCONSTABLE_SUITE_LIMIT, CONSTABLE_TRACE_DIR, "
        "CONSTABLE_CHECKPOINT_DIR,\nCONSTABLE_TRACE_CACHE_MAX_MB, "
        "CONSTABLE_TRACE_CACHE_MAX_AGE_DAYS,\nCONSTABLE_SHARDS, "
        "CONSTABLE_SHARD_ID, CONSTABLE_LEASE_TTL_SEC,\n"
        "CONSTABLE_SHARD_POLL_MS, CONSTABLE_MECH,\n"
        "CONSTABLE_SCENARIO, CONSTABLE_SAMPLE, CONSTABLE_FAULT_PLAN, "
        "CONSTABLE_FAULT_MARKER_DIR,\nCONSTABLE_FAULT_SEED, "
        "CONSTABLE_TRACE_OUT, CONSTABLE_METRICS_OUT,\n"
        "CONSTABLE_PROGRESS_SEC, CONSTABLE_LOG_LEVEL "
        "(strict-parsed; CLI flags override env).\n",
        prog, MechanismRegistry::instance().nameList().c_str());
    std::exit(exit_code);
}

} // namespace

// -------------------------------------------------------- ExperimentOptions

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opts;
    if (auto v = envU64("CONSTABLE_THREADS")) {
        opts.threads = static_cast<unsigned>(
            std::min<uint64_t>(*v, ThreadPool::kMaxConcurrency));
    }
    if (auto v = envU64("CONSTABLE_SEED"))
        opts.seed = *v;
    if (auto v = envU64("CONSTABLE_TRACE_OPS")) {
        if (*v == 0)
            fatal("CONSTABLE_TRACE_OPS must be >= 1");
        opts.traceOps = static_cast<size_t>(*v);
    }
    if (auto v = envU64("CONSTABLE_SUITE_LIMIT")) {
        if (*v == 0)
            fatal("CONSTABLE_SUITE_LIMIT must be >= 1");
        opts.suiteLimit = static_cast<size_t>(*v);
    }
    if (auto v = envStr("CONSTABLE_TRACE_DIR"))
        opts.traceDir = *v;
    if (auto v = envStr("CONSTABLE_CHECKPOINT_DIR"))
        opts.checkpointDir = *v;
    if (auto v = envU64("CONSTABLE_TRACE_CACHE_MAX_MB"))
        opts.traceCacheMaxMB = *v;
    if (auto v = envU64("CONSTABLE_TRACE_CACHE_MAX_AGE_DAYS"))
        opts.traceCacheMaxAgeDays = *v;
    if (auto v = envU64InRange("CONSTABLE_SHARDS", 1,
                               ShardOptions::kMaxShards))
        opts.shards = static_cast<unsigned>(*v);
    if (auto v = envU64InRange("CONSTABLE_SHARD_ID", 0,
                               ShardOptions::kMaxShards - 1))
        opts.shardId = static_cast<int>(*v);
    if (auto v = envU64InRange("CONSTABLE_LEASE_TTL_SEC", 1, 7 * 86400))
        opts.leaseTtlSec = static_cast<unsigned>(*v);
    if (auto v = envU64InRange("CONSTABLE_SHARD_POLL_MS", 1, 60'000))
        opts.shardPollMs = static_cast<unsigned>(*v);
    if (auto v = envStr("CONSTABLE_MECH"))
        appendMechNames("CONSTABLE_MECH", *v, opts.mechNames);
    if (auto v = envStr("CONSTABLE_SCENARIO"))
        opts.scenarioFile = *v;
    if (auto v = envStr("CONSTABLE_SAMPLE"))
        opts.sample = SampleOptions::parse(*v);
    if (auto v = envStr("CONSTABLE_TRACE_OUT"))
        opts.traceOutPath = *v;
    if (auto v = envStr("CONSTABLE_METRICS_OUT"))
        opts.metricsOutPath = *v;
    if (auto v = envU64InRange("CONSTABLE_PROGRESS_SEC", 0, 86400))
        opts.progressSec = static_cast<unsigned>(*v);
    obsConfigureOutputs(opts.traceOutPath, opts.metricsOutPath);
    // Malformed CONSTABLE_FAULT_PLAN should die here, at startup, not at
    // the first I/O call deep inside a sweep.
    faultLoadEnvPlan();
    return opts;
}

ExperimentOptions
ExperimentOptions::fromArgs(int argc, char** argv)
{
    ExperimentOptions opts = fromEnv();
    const char* prog = argc > 0 ? argv[0] : "bench";
    // A sweep selection on the command line replaces one from the
    // environment ("CLI overrides env"), while repeated CLI --mech flags
    // still accumulate; --mech also displaces an env scenario and vice
    // versa, so the mutual-exclusion check only fires within one layer.
    bool mechFromCli = false;
    bool scenarioFromCli = false;

    auto next = [&](int& i, const std::string& flag) -> std::string {
        if (i + 1 >= argc)
            fatal(flag + " requires a value (see --help)");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string flag = arg, value;
        bool inlineValue = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            flag = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            inlineValue = true;
        }
        auto val = [&]() {
            return inlineValue ? value : next(i, flag);
        };
        if (flag == "--help" || flag == "-h") {
            printUsage(prog, 0);
        } else if (flag == "--threads") {
            opts.threads = static_cast<unsigned>(
                std::min<uint64_t>(parseU64Strict(flag, val()),
                                   ThreadPool::kMaxConcurrency));
        } else if (flag == "--seed") {
            opts.seed = parseU64Strict(flag, val());
        } else if (flag == "--trace-ops") {
            uint64_t v = parseU64Strict(flag, val());
            if (v == 0)
                fatal("--trace-ops must be >= 1");
            opts.traceOps = static_cast<size_t>(v);
        } else if (flag == "--suite-limit") {
            uint64_t v = parseU64Strict(flag, val());
            if (v == 0)
                fatal("--suite-limit must be >= 1");
            opts.suiteLimit = static_cast<size_t>(v);
        } else if (flag == "--trace-dir") {
            opts.traceDir = val();
        } else if (flag == "--checkpoint-dir") {
            opts.checkpointDir = val();
        } else if (flag == "--trace-cache-max-mb") {
            opts.traceCacheMaxMB = parseU64Strict(flag, val());
        } else if (flag == "--trace-cache-max-age-days") {
            opts.traceCacheMaxAgeDays = parseU64Strict(flag, val());
        } else if (flag == "--shards") {
            opts.shards = static_cast<unsigned>(
                parseU64InRange(flag, val(), 1, ShardOptions::kMaxShards));
        } else if (flag == "--shard-id") {
            opts.shardId = static_cast<int>(
                parseU64InRange(flag, val(), 0,
                                ShardOptions::kMaxShards - 1));
        } else if (flag == "--lease-ttl-sec") {
            opts.leaseTtlSec = static_cast<unsigned>(
                parseU64InRange(flag, val(), 1, 7 * 86400));
        } else if (flag == "--shard-poll-ms") {
            opts.shardPollMs = static_cast<unsigned>(
                parseU64InRange(flag, val(), 1, 60'000));
        } else if (flag == "--mech") {
            if (!mechFromCli) {
                opts.mechNames.clear();
                mechFromCli = true;
                if (!scenarioFromCli)
                    opts.scenarioFile.clear();
            }
            appendMechNames(flag, val(), opts.mechNames);
        } else if (flag == "--scenario") {
            opts.scenarioFile = val();
            scenarioFromCli = true;
            if (!mechFromCli)
                opts.mechNames.clear();
        } else if (flag == "--sample") {
            opts.sample = SampleOptions::parse(val());
        } else if (flag == "--fault-plan") {
            installFaultPlan(val(),
                             envStr("CONSTABLE_FAULT_MARKER_DIR")
                                 .value_or(std::string()));
        } else if (flag == "--trace-out") {
            opts.traceOutPath = val();
        } else if (flag == "--metrics-out") {
            opts.metricsOutPath = val();
        } else if (flag == "--progress-sec") {
            opts.progressSec = static_cast<unsigned>(
                parseU64InRange(flag, val(), 0, 86400));
        } else {
            warn("unknown argument '" + arg + "'");
            printUsage(prog, 1);
        }
    }
    obsConfigureOutputs(opts.traceOutPath, opts.metricsOutPath);
    return opts;
}

BatchOptions
ExperimentOptions::batch() const
{
    BatchOptions b;
    b.threads = shards > 1 && shardId < 0 ? shards : threads;
    b.seed = seed;
    return b;
}

ShardOptions
ExperimentOptions::shard() const
{
    // Cross-field checks live here (not in fromEnv) so a fleet launcher
    // can put CONSTABLE_SHARD_ID in each machine's environment and pass
    // --shards on the shared command line.
    if (shardId >= 0 && static_cast<unsigned>(shardId) >= shards) {
        fatal("shard id " + std::to_string(shardId) +
              " out of range: --shards=" + std::to_string(shards) +
              " (ids are 0-based)");
    }
    ShardOptions s;
    s.shards = shards;
    s.shardId = shardId;
    s.leaseTtlSec = leaseTtlSec;
    s.pollMs = shardPollMs;
    s.batch = batch();
    return s;
}

// ---------------------------------------------------------------- Suite

Suite
Suite::prepare(const ExperimentOptions& opts, bool inspect)
{
    auto specs = paperSuite(opts.traceOps);
    if (specs.size() > opts.suiteLimit)
        specs.resize(opts.suiteLimit);
    return fromSpecs(std::move(specs), opts, inspect);
}

Suite
Suite::fromSpecs(std::vector<WorkloadSpec> specs,
                 const ExperimentOptions& opts, bool inspect)
{
    Suite s;
    s.inspected_ = inspect;
    s.entries_.resize(specs.size());
    const std::string& dir = opts.traceDir;
    if (!dir.empty())
        makeDirs(dir, "trace cache");
    ObsSpan prepSpan("suite.prepare", "trace");
    // Graceful degradation: any trace-cache fault (corrupt entry, failed
    // read, failed rewrite) downgrades to regeneration, never aborts.
    // Each job owns its own slot; totals are summed after the barrier.
    std::vector<uint8_t> corruptEntry(specs.size(), 0);
    std::vector<uint8_t> rewriteFailed(specs.size(), 0);
    forEachJob(specs.size(), [&](size_t i, Rng&) {
        ObsSpan span("trace.prep", "trace");
        Entry& e = s.entries_[i];
        e.spec = std::move(specs[i]);
        if (!dir.empty()) {
            std::string path = traceCachePath(dir, e.spec);
            e.fromCache = loadTrace(path, e.trace);
            if (!e.fromCache) {
                std::error_code xec;
                if (std::filesystem::exists(path, xec) && !xec)
                    corruptEntry[i] = 1;
            }
            if (e.fromCache && (opts.traceCacheMaxMB != 0 ||
                                opts.traceCacheMaxAgeDays != 0)) {
                // LRU trimming ranks by mtime, which plain reads never
                // advance: touch hits so live entries stay newest.
                std::error_code tec;
                std::filesystem::last_write_time(
                    path, std::filesystem::file_time_type::clock::now(),
                    tec);
            }
            if (!e.fromCache) {
                // Missing, corrupt or stale-format: regenerate and refresh
                // the cache entry (atomic write, safe under concurrency).
                e.trace = generateTrace(e.spec);
                if (!saveTrace(path, e.trace))
                    rewriteFailed[i] = 1;
            }
        } else {
            e.trace = generateTrace(e.spec);
        }
        e.key = specHash(e.spec);
        if (inspect) {
            e.inspection = inspectLoads(e.trace);
            e.gs = e.inspection.globalStablePcs();
        }
    }, opts.batch());
    for (const Entry& e : s.entries_)
        (e.fromCache ? s.cacheHits_ : s.cacheMisses_)++;
    {
        static ObsCounter& hits = obsCounter("trace.cache.hit");
        static ObsCounter& misses = obsCounter("trace.cache.miss");
        hits.add(s.cacheHits_);
        misses.add(s.cacheMisses_);
    }
    size_t corrupt = 0, failedWrites = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        corrupt += corruptEntry[i];
        failedWrites += rewriteFailed[i];
    }
    if (corrupt > 0) {
        warn(std::to_string(corrupt) +
             " trace cache entr" + (corrupt == 1 ? "y was" : "ies were") +
             " present but unreadable; regenerated");
    }
    if (failedWrites > 0) {
        warn(std::to_string(failedWrites) +
             " regenerated trace(s) could not be written back to the "
             "cache; continuing with in-memory traces");
    }
    if (!dir.empty()) {
        // Opt-in retention: runs after preparation, so entries this suite
        // just wrote or refreshed are the newest and survive the LRU pass.
        TraceCacheTrimPolicy trim;
        trim.maxBytes = opts.traceCacheMaxMB * 1024 * 1024;
        trim.maxAgeSeconds = opts.traceCacheMaxAgeDays * 24 * 3600;
        trimTraceCache(dir, trim);
    }
    return s;
}

Suite
Suite::fromTraces(std::vector<Trace> traces, bool inspect)
{
    Suite s;
    s.inspected_ = inspect;
    s.entries_.resize(traces.size());
    forEachJob(traces.size(), [&](size_t i, Rng&) {
        Entry& e = s.entries_[i];
        e.trace = std::move(traces[i]);
        e.spec.name = e.trace.name;
        e.spec.category = e.trace.category;
        e.spec.numArchRegs = e.trace.numArchRegs;
        // No generating spec exists: key cells on the trace bytes
        // themselves, so an edited hand-built trace misses the store.
        e.key = traceContentHash(e.trace);
        if (inspect) {
            e.inspection = inspectLoads(e.trace);
            e.gs = e.inspection.globalStablePcs();
        }
    }, BatchOptions{});
    return s;
}

std::vector<const Trace*>
Suite::tracePtrs() const
{
    std::vector<const Trace*> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_)
        out.push_back(&e.trace);
    return out;
}

std::vector<const std::unordered_set<PC>*>
Suite::gsPtrs() const
{
    std::vector<const std::unordered_set<PC>*> out;
    if (!inspected_)
        return out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_)
        out.push_back(&e.gs);
    return out;
}

std::vector<std::pair<const Trace*, const Trace*>>
Suite::smtTracePairs() const
{
    std::vector<std::pair<const Trace*, const Trace*>> out;
    for (auto [a, b] : smtPairs(entries_.size()))
        out.emplace_back(&entries_[a].trace, &entries_[b].trace);
    return out;
}

void
Suite::printGeomeans(const std::string& header,
                     const std::vector<std::vector<double>>& series,
                     const std::vector<std::string>& series_names) const
{
    std::map<std::string, std::vector<size_t>> byCat;
    for (size_t i = 0; i < entries_.size(); ++i)
        byCat[entries_[i].spec.category].push_back(i);

    std::printf("%s\n", header.c_str());
    std::printf("%-14s", "config");
    for (const auto& [cat, idx] : byCat)
        std::printf("%12s", cat.c_str());
    std::printf("%12s\n", "GEOMEAN");
    for (size_t s = 0; s < series.size(); ++s) {
        std::printf("%-14s", series_names[s].c_str());
        for (const auto& [cat, idxs] : byCat) {
            std::vector<double> vals;
            for (size_t i : idxs)
                vals.push_back(series[s][i]);
            std::printf("%12.4f", geomean(vals));
        }
        std::printf("%12.4f\n", geomean(series[s]));
    }
}

void
Suite::printMeans(const std::string& header,
                  const std::vector<std::vector<double>>& series,
                  const std::vector<std::string>& series_names, double scale,
                  const char* unit) const
{
    std::map<std::string, std::vector<size_t>> byCat;
    for (size_t i = 0; i < entries_.size(); ++i)
        byCat[entries_[i].spec.category].push_back(i);

    std::printf("%s\n", header.c_str());
    std::printf("%-26s", "series");
    for (const auto& [cat, idx] : byCat)
        std::printf("%12s", cat.c_str());
    std::printf("%12s\n", "AVG");
    for (size_t s = 0; s < series.size(); ++s) {
        std::printf("%-26s", series_names[s].c_str());
        for (const auto& [cat, idxs] : byCat) {
            std::vector<double> vals;
            for (size_t i : idxs)
                vals.push_back(series[s][i]);
            std::printf("%11.2f%s", scale * mean(vals), unit);
        }
        std::printf("%11.2f%s\n", scale * mean(series[s]), unit);
    }
}

void
Suite::printBoxWhisker(const std::string& header,
                       const std::vector<double>& samples) const
{
    std::map<std::string, std::vector<double>> byCat;
    for (size_t i = 0; i < entries_.size(); ++i)
        byCat[entries_[i].spec.category].push_back(samples[i]);
    std::printf("%s\n", header.c_str());
    for (const auto& [cat, vals] : byCat) {
        std::printf("  %-12s %s\n", cat.c_str(),
                    BoxWhisker::from(vals).str().c_str());
    }
    std::printf("  %-12s %s\n", "ALL",
                BoxWhisker::from(samples).str().c_str());
}

// ------------------------------------------------------- ExperimentResult

size_t
ExperimentResult::configIndex(const std::string& config) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == config)
            return i;
    }
    fatal("experiment has no configuration named '" + config + "'");
}

std::vector<double>
ExperimentResult::speedups(const std::string& test,
                           const std::string& base) const
{
    return m_.speedupsOver(configIndex(test), configIndex(base));
}

std::vector<double>
ExperimentResult::statColumn(const std::string& config,
                             const std::string& stat) const
{
    size_t cfg = configIndex(config);
    std::vector<double> out(m_.numRows);
    for (size_t r = 0; r < m_.numRows; ++r)
        out[r] = m_.at(r, cfg).stats.get(stat);
    return out;
}

void
ExperimentResult::printGeomeans(
    const std::string& header,
    const std::vector<std::vector<double>>& series,
    const std::vector<std::string>& series_names) const
{
    suite_->printGeomeans(header, series, series_names);
}

void
ExperimentResult::printMeans(const std::string& header,
                             const std::vector<std::vector<double>>& series,
                             const std::vector<std::string>& series_names,
                             double scale, const char* unit) const
{
    suite_->printMeans(header, series, series_names, scale, unit);
}

void
ExperimentResult::printBoxWhisker(const std::string& header,
                                  const std::vector<double>& samples) const
{
    suite_->printBoxWhisker(header, samples);
}

// ------------------------------------------------------------- Experiment

Experiment::Experiment(std::string name, const Suite& suite,
                       ExperimentOptions opts)
    : name_(std::move(name)), suite_(&suite), opts_(std::move(opts))
{}

Experiment&
Experiment::add(const std::string& config_name, MechanismConfig mech,
                CoreConfig core)
{
    SystemConfig cfg { core, std::move(mech) };
    return add(config_name, [cfg](size_t) { return cfg; });
}

Experiment&
Experiment::addPreset(const std::string& preset_name, CoreConfig core)
{
    const MechanismPreset& p = MechanismRegistry::instance().get(preset_name);
    if (!p.perRow)
        return add(preset_name, mechFor(preset_name), core);
    if (!suite_->inspected()) {
        fatal("experiment '" + name_ + "': oracle preset '" + preset_name +
              "' needs an inspected suite (global-stable PC sets)");
    }
    const Suite* s = suite_;
    std::string name = preset_name;
    return add(preset_name, [s, name, core](size_t row) {
        return SystemConfig { core,
                              mechFor(name, &s->globalStablePcs(row)) };
    });
}

Experiment&
Experiment::add(const std::string& config_name, ConfigFactory factory)
{
    for (const std::string& n : names_) {
        if (n == config_name)
            fatal("experiment '" + name_ + "': duplicate configuration '" +
                  config_name + "'");
    }
    names_.push_back(config_name);
    factories_.push_back(std::move(factory));
    return *this;
}

ExperimentResult
Experiment::run()
{
    return runCells(/*smt=*/false);
}

ExperimentResult
Experiment::runSmt()
{
    return runCells(/*smt=*/true);
}

size_t
Experiment::numRows(bool smt) const
{
    return smt ? smtPairs(suite_->size()).size() : suite_->size();
}

SweepManifest
Experiment::manifest(bool smt) const
{
    SweepManifest m;
    m.experiment = name_;
    m.smt = smt;
    m.numRows = numRows(smt);
    m.numConfigs = factories_.size();
    m.configNames = names_;
    // Seed/threads stay out of full-fidelity keys: cells are deterministic
    // functions of what they simulate, so a resume at another thread count
    // or seed stays bit-identical. Sampling adds its spec and seed (the
    // seed drives window selection).
    CellKeyContext ctx;
    ctx.inspected = suite_->inspected();
    ctx.sample = &opts_.sample;
    ctx.seed = opts_.seed;
    auto pairs = smt ? smtPairs(suite_->size())
                     : std::vector<std::pair<size_t, size_t>>{};
    m.cellKeys.reserve(m.numCells());
    for (size_t row = 0; row < m.numRows; ++row) {
        uint64_t rowKey =
            smt ? smtRowKey(suite_->rowKey(pairs[row].first),
                            suite_->rowKey(pairs[row].second))
                : suite_->rowKey(row);
        for (const ConfigFactory& f : factories_)
            m.cellKeys.push_back(cellKey(rowKey, f(row), ctx));
    }
    return m;
}

ExperimentResult
Experiment::runCells(bool smt)
{
    if (factories_.empty())
        fatal("experiment '" + name_ + "' has no configurations");

    MatrixResult m;
    m.numRows = numRows(smt);
    m.numConfigs = factories_.size();
    m.results.resize(m.numRows * m.numConfigs);

    auto traces = suite_->tracePtrs();
    auto gs = suite_->gsPtrs();
    auto pairs = smt ? suite_->smtTracePairs()
                     : std::vector<std::pair<const Trace*, const Trace*>>{};

    // One cell = one deterministic simulation; shared by the in-process
    // batch path, fleet workers, and the merge recovery fallback.
    auto computeCell = [&](size_t job) -> RunResult {
        size_t row = job / m.numConfigs;
        size_t cfgIdx = job % m.numConfigs;
        SystemConfig cfg = factories_[cfgIdx](row);
        if (smt) {
            if (opts_.sample.enabled) {
                fatal("--sample does not support SMT-pair sweeps; SMT "
                      "rows stay full-fidelity");
            }
            return runSmtPair(*pairs[row].first, *pairs[row].second, cfg);
        }
        const std::unordered_set<PC>* g = gs.empty() ? nullptr : gs[row];
        if (opts_.sample.enabled) {
            return runSampledTrace(*traces[row], cfg.core, cfg.mech,
                                   opts_.sample, opts_.seed, g);
        }
        return runTrace(*traces[row], cfg, g);
    };

    ShardOptions shardOpts = opts_.shard();
    const std::string& root = opts_.checkpointDir;
    if (shardOpts.active() && root.empty()) {
        fatal("sharded worker mode (--shard-id / CONSTABLE_SHARD_ID) "
              "needs --checkpoint-dir on a filesystem every worker "
              "shares");
    }

    SweepManifest manifest;
    std::string sweepDir;
    if (!root.empty()) {
        manifest = this->manifest(smt);
        sweepDir = sweepDirPath(root, manifest);
        makeDirs(sweepDir, "checkpoint");
        makeDirs(cellStoreDir(root), "cell store");
    }

    // Live progress: stderr one-liners plus a status.json in the sweep's
    // directory (constable-sweep --status pretty-prints it from another
    // process).
    ObsProgressConfig pcfg;
    pcfg.label = name_;
    pcfg.total = m.results.size();
    pcfg.statusPath = sweepDir.empty() ? "" : sweepDir + "/status.json";
    pcfg.intervalSec = opts_.progressSec;
    obsProgressBegin(pcfg);

    if (shardOpts.active()) {
        ShardOutcome oc =
            runShardedCells(root, manifest, computeCell, m.results,
                            shardOpts);
        // The fleet did the computing; credit the merged matrix's ops so
        // the closing report carries a real Mops/s.
        uint64_t mergedOps = 0;
        for (const RunResult& r : m.results)
            mergedOps += r.instructions;
        obsProgressNoteOps(mergedOps);
        // The final merge loads every cell, so oc.loaded always spans the
        // matrix; only cells that predated this run count as reused.
        obsProgressNoteReused(oc.preExisting);
        obsProgressUpdate(m.results.size());
        obsProgressEnd();
        return ExperimentResult(*suite_, names_, std::move(m),
                                oc.preExisting);
    }

    // Cells served without simulating: loaded from the store, or equal in
    // key to an earlier cell of this sweep (copied once that one is done).
    std::vector<uint8_t> done(m.results.size(), 0);
    std::vector<std::pair<size_t, size_t>> duplicates; // (cell, first)
    if (!root.empty()) {
        writeOrVerifyManifest(sweepDir, manifest);
        std::unordered_map<uint64_t, size_t> firstWithKey;
        for (size_t cell = 0; cell < m.results.size(); ++cell) {
            auto [it, first] =
                firstWithKey.emplace(manifest.cellKeys[cell], cell);
            if (!first) {
                duplicates.emplace_back(cell, it->second);
                done[cell] = 1;
            }
        }
        obsProgressNoteReused(duplicates.size());
    }

    // Store lookups run in the cell's job, beside the simulation they
    // replace. A cell file that exists but fails to load — truncated,
    // corrupt, or empty (0 bytes: a writer died before its first byte) —
    // is regenerated exactly like a missing one, just counted and reported
    // so operators notice a sick disk.
    std::vector<uint8_t> loaded(m.results.size(), 0);
    std::vector<uint8_t> corrupt(m.results.size(), 0);
    forEachJob(m.results.size(), [&](size_t job, Rng&) {
        if (done[job])
            return;
        if (!root.empty()) {
            std::string path = cellFilePath(root, manifest, job);
            if (loadRunResult(path, m.results[job])) {
                loaded[job] = 1;
                obsProgressNoteReused(1);
                return;
            }
            std::error_code xec;
            corrupt[job] = std::filesystem::exists(path, xec) && !xec;
        }
        {
            ObsSpan span("cell.compute", "cell");
            m.results[job] = computeCell(job);
        }
        if (!root.empty()) {
            ObsSpan span("cell.checkpoint", "cell");
            if (!saveRunResult(cellFilePath(root, manifest, job),
                               m.results[job])) {
                warn("cannot write checkpoint cell " + std::to_string(job) +
                     "; the sweep continues but will not resume past it");
            }
        }
        obsProgressCellDone(m.results[job].instructions);
    }, opts_.batch());
    for (auto [cell, first] : duplicates)
        m.results[cell] = m.results[first];
    obsProgressEnd();

    size_t reused = duplicates.size();
    size_t corruptCells = 0;
    for (size_t cell = 0; cell < m.results.size(); ++cell) {
        reused += loaded[cell];
        corruptCells += corrupt[cell];
    }
    if (corruptCells > 0) {
        warn(std::to_string(corruptCells) +
             " checkpoint cell(s) present but unloadable (corrupt or "
             "empty); regenerated them");
    }
    if (!root.empty()) {
        static ObsCounter& hits = obsCounter("ckpt.cell.hit");
        static ObsCounter& misses = obsCounter("ckpt.cell.miss");
        hits.add(reused);
        misses.add(m.results.size() - reused);
    }
    return ExperimentResult(*suite_, names_, std::move(m), reused);
}

ExperimentResult
Experiment::merge(bool smt)
{
    if (factories_.empty())
        fatal("experiment '" + name_ + "' has no configurations");
    if (opts_.checkpointDir.empty())
        fatal("experiment '" + name_ + "': merge() needs --checkpoint-dir");

    SweepManifest manifest = this->manifest(smt);
    std::string sweepDir = sweepDirPath(opts_.checkpointDir, manifest);

    SweepManifest onDisk;
    if (!loadManifest(sweepDir + "/manifest.sweep", onDisk))
        fatal("merge: no sweep manifest under '" + sweepDir +
              "' (was this sweep ever started?)");
    if (!(onDisk == manifest))
        fatal("merge: sweep directory '" + sweepDir +
              "' holds a different sweep than '" + name_ + "'");

    MatrixResult m;
    m.numRows = manifest.numRows;
    m.numConfigs = manifest.numConfigs;
    ShardOutcome oc;
    if (!mergeShardedCells(opts_.checkpointDir, manifest,
                           /*compute=*/nullptr, m.results, opts_.shard(),
                           oc)) {
        fatal("merge: sweep '" + name_ + "' is incomplete (" +
              std::to_string(oc.loaded) + " of " +
              std::to_string(manifest.numCells()) +
              " cells present); let the workers finish or re-run with "
              "run()");
    }
    return ExperimentResult(*suite_, names_, std::move(m), oc.loaded);
}

} // namespace constable
