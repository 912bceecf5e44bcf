/**
 * @file
 * The unified experiment-driving API every bench and example goes through:
 *
 *  - ExperimentOptions: one strict-parsed layer over the CONSTABLE_THREADS /
 *    CONSTABLE_SEED / CONSTABLE_TRACE_OPS / CONSTABLE_SUITE_LIMIT /
 *    CONSTABLE_TRACE_DIR / CONSTABLE_CHECKPOINT_DIR env knobs, plus the
 *    matching --threads-style CLI flags (CLI overrides env).
 *
 *  - Suite: owns workload specs, their traces, offline load inspections and
 *    global-stable PC sets, generated in parallel and transparently backed
 *    by the on-disk trace cache (trace/serialize.hh) when a trace directory
 *    is configured: each trace is generated once and loaded thereafter,
 *    keyed by a hash of the full spec.
 *
 *  - Experiment: a {trace or SMT pair x config} sweep on the batch pool
 *    with *named* configurations, an optional content-addressed cell
 *    store under the checkpoint directory (an interrupted sweep resumes
 *    from completed cells, and a cell another experiment already
 *    committed is loaded instead of simulated; both bit-identical to a
 *    fresh run), and the paper's category geomean / mean / box-whisker
 *    reporters as methods on the result.
 */

#ifndef CONSTABLE_SIM_EXPERIMENT_HH
#define CONSTABLE_SIM_EXPERIMENT_HH

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "inspector/load_inspector.hh"
#include "sim/batch.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "sim/sample.hh"
#include "sim/shard.hh"
#include "trace/generator.hh"
#include "workloads/suite.hh"

namespace constable {

/** Unified knobs for suite preparation and sweep execution. */
struct ExperimentOptions
{
    /** Batch threads; 0 = all hardware threads, 1 = serial replay. */
    unsigned threads = 0;
    /** Master seed for per-job RNG streams (randomized sweeps). */
    uint64_t seed = 0x5eed5eedull;
    /** Dynamic micro-ops per generated trace. */
    size_t traceOps = 60'000;
    /** Truncate the paper suite to its first N workloads. */
    size_t suiteLimit = SIZE_MAX;
    /** Trace-cache directory; empty disables the on-disk cache. */
    std::string traceDir;
    /** Checkpoint root holding the content-addressed cell store; empty
     *  disables checkpointing. Every experiment may share one root. */
    std::string checkpointDir;
    /** Trace-cache size cap in MB; 0 (default) disables size trimming.
     *  Applied to traceDir after suite preparation (LRU by mtime). */
    uint64_t traceCacheMaxMB = 0;
    /** Trace-cache entry age cap in days; 0 (default) disables age
     *  trimming. */
    uint64_t traceCacheMaxAgeDays = 0;
    /** Fleet size for sharded sweeps (see sim/shard.hh). Without a
     *  shardId, > 1 runs the sweep on that many pool threads instead. */
    unsigned shards = 1;
    /** >= 0: this process is worker `shardId` of `shards` independently
     *  launched processes sharing checkpointDir (multi-machine mode). */
    int shardId = -1;
    /** Stale-lease reclaim threshold for sharded sweeps (seconds); must
     *  exceed the worst-case single-cell runtime. */
    unsigned leaseTtlSec = 120;
    /** Poll interval while a shard waits on other workers' cells (ms). */
    unsigned shardPollMs = 100;
    /** Registry preset names from --mech / CONSTABLE_MECH: benches run
     *  this sweep instead of their compiled-in figure
     *  (sim/scenario.hh: runNamedSweepIfRequested). */
    std::vector<std::string> mechNames;
    /** Scenario file from --scenario / CONSTABLE_SCENARIO (ditto). */
    std::string scenarioFile;
    /** Chrome trace-event JSON written at exit (--trace-out /
     *  CONSTABLE_TRACE_OUT); non-empty arms the obs registry. */
    std::string traceOutPath;
    /** Metrics snapshot JSON written at exit (--metrics-out /
     *  CONSTABLE_METRICS_OUT); non-empty arms the obs registry. */
    std::string metricsOutPath;
    /** Min seconds between one-line stderr progress reports during a
     *  sweep; 0 disables them (status.json still updates when a
     *  checkpoint directory exists). */
    unsigned progressSec = 10;
    /** Phase-sampled simulation (--sample=phases:N,window:K /
     *  CONSTABLE_SAMPLE): when enabled, single-trace sweep cells run
     *  through runSampledTrace() instead of full fidelity; the sample spec
     *  and seed enter the cell key, so sampled and full sweeps never share
     *  cells. SMT-pair sweeps reject sampling (fatal). */
    SampleOptions sample;

    /** All knobs from CONSTABLE_* env vars (strict: malformed -> fatal).
     *  New: CONSTABLE_MECH, CONSTABLE_SCENARIO, CONSTABLE_SAMPLE. */
    static ExperimentOptions fromEnv();

    /**
     * Env first, then CLI flags override: --threads=N --seed=N
     * --trace-ops=N --suite-limit=N --trace-dir=PATH --checkpoint-dir=PATH
     * --shards=N --shard-id=K --lease-ttl-sec=N --shard-poll-ms=N
     * --mech=NAME[,NAME...] --scenario=FILE
     * --sample=phases:N,window:K
     * ("--flag value" also accepted). --help prints usage and exits;
     * unknown arguments fatal().
     */
    static ExperimentOptions fromArgs(int argc, char** argv);

    /** The thread/seed subset consumed by the batch runner. A lone
     *  shards > 1 (no shardId) sets the thread count. */
    BatchOptions batch() const;

    /** The process-parallelism subset consumed by sim/shard.hh; fatal()
     *  on inconsistent settings (shardId >= shards). */
    ShardOptions shard() const;

    /** True when this process should print human-readable reports: single
     *  process runs and shard 0 of a launched fleet (every shard computes
     *  and merges the same full result; only one should narrate it). */
    bool printsReport() const { return shardId <= 0; }
};

/**
 * A prepared workload suite: specs plus generated (or cache-loaded) traces,
 * and optionally the offline load inspection with owned global-stable PC
 * sets. All preparation fans out over the batch pool.
 */
class Suite
{
  public:
    /** The paper's 90-trace suite, scaled/truncated/cached per opts. */
    static Suite prepare(const ExperimentOptions& opts, bool inspect = true);

    /** Arbitrary spec list through the same generate-or-load path. */
    static Suite fromSpecs(std::vector<WorkloadSpec> specs,
                           const ExperimentOptions& opts,
                           bool inspect = true);

    /** Pre-built traces (e.g. ProgramBuilder micro-traces); never cached. */
    static Suite fromTraces(std::vector<Trace> traces, bool inspect = true);

    size_t size() const { return entries_.size(); }
    bool inspected() const { return inspected_; }

    const WorkloadSpec& spec(size_t i) const { return entries_[i].spec; }
    const Trace& trace(size_t i) const { return entries_[i].trace; }
    const LoadInspectorResult&
    inspection(size_t i) const
    {
        return entries_[i].inspection;
    }

    /** Owned per-workload global-stable PC set (empty if !inspected()). */
    const std::unordered_set<PC>&
    globalStablePcs(size_t i) const
    {
        return entries_[i].gs;
    }

    /** Matrix row views. */
    std::vector<const Trace*> tracePtrs() const;
    /** Per-row stats-classification sets; empty when not inspected. */
    std::vector<const std::unordered_set<PC>*> gsPtrs() const;
    /** Deterministic SMT2 co-run pairings (workloads/suite.hh). */
    std::vector<std::pair<const Trace*, const Trace*>> smtTracePairs() const;

    /** Trace-cache effectiveness (for tests and cache-warmth assertions). */
    size_t cacheHits() const { return cacheHits_; }
    size_t cacheMisses() const { return cacheMisses_; }

    /** Cell-store key of row i: the spec hash of a generated trace, or
     *  the trace-content hash of a hand-built (fromTraces) one. */
    uint64_t rowKey(size_t i) const { return entries_[i].key; }

    // ---- category reporters (shared by the paper's figure benches) ----

    /** Per-category and overall geomean of per-workload ratio series. */
    void printGeomeans(const std::string& header,
                       const std::vector<std::vector<double>>& series,
                       const std::vector<std::string>& series_names) const;

    /** Per-category and overall arithmetic mean (fraction-type series). */
    void printMeans(const std::string& header,
                    const std::vector<std::vector<double>>& series,
                    const std::vector<std::string>& series_names,
                    double scale = 100.0, const char* unit = "%") const;

    /** Box-and-whisker summary line per category (Figs 9, 18, 21). */
    void printBoxWhisker(const std::string& header,
                         const std::vector<double>& samples) const;

  private:
    struct Entry
    {
        WorkloadSpec spec;
        Trace trace;
        LoadInspectorResult inspection;
        std::unordered_set<PC> gs;
        bool fromCache = false;
        /** Cell-store row key (rowKey()). */
        uint64_t key = 0;
    };

    std::vector<Entry> entries_;
    bool inspected_ = false;
    size_t cacheHits_ = 0;
    size_t cacheMisses_ = 0;
};

/** A finished sweep: the result matrix plus name-addressed accessors and
 *  the category reporters, bound to the suite that produced it. */
class ExperimentResult
{
  public:
    ExperimentResult(const Suite& suite, std::vector<std::string> names,
                     MatrixResult m, size_t resumed_cells)
        : suite_(&suite), names_(std::move(names)), m_(std::move(m)),
          resumedCells_(resumed_cells)
    {}

    const MatrixResult& matrix() const { return m_; }
    const Suite& suite() const { return *suite_; }
    size_t numRows() const { return m_.numRows; }

    /** Index of a named configuration; fatal() on unknown names. */
    size_t configIndex(const std::string& config) const;

    const RunResult&
    at(size_t row, size_t config) const
    {
        return m_.at(row, config);
    }

    const RunResult&
    at(size_t row, const std::string& config) const
    {
        return m_.at(row, configIndex(config));
    }

    /** Per-row speedup of one named config over another. */
    std::vector<double> speedups(const std::string& test,
                                 const std::string& base) const;

    /** One named stat read across every row of a config. */
    std::vector<double> statColumn(const std::string& config,
                                   const std::string& stat) const;

    /** Cells served from the cell store instead of simulated: resumed
     *  cells, cells another experiment committed, and duplicates of a cell
     *  earlier in this sweep. Fleet workers count the cells already stored
     *  when they started. */
    size_t resumedCells() const { return resumedCells_; }

    // Reporters, delegating to the suite's category grouping.
    void printGeomeans(const std::string& header,
                       const std::vector<std::vector<double>>& series,
                       const std::vector<std::string>& series_names) const;
    void printMeans(const std::string& header,
                    const std::vector<std::vector<double>>& series,
                    const std::vector<std::string>& series_names,
                    double scale = 100.0, const char* unit = "%") const;
    void printBoxWhisker(const std::string& header,
                         const std::vector<double>& samples) const;

  private:
    const Suite* suite_;
    std::vector<std::string> names_;
    MatrixResult m_;
    size_t resumedCells_ = 0;
};

/**
 * A named {suite x configurations} sweep. Configurations are added under
 * unique names; run() executes the full matrix on the batch pool, and when
 * opts.checkpointDir is set every cell goes through the content-addressed
 * cell store under it (sim/cell_key.hh): a stored cell is loaded instead
 * of simulated, and every newly simulated cell is committed, so a killed
 * sweep resumes from completed cells and later experiments reuse them.
 *
 * Cells are keyed by what they simulate (row, full SystemConfig, inspection,
 * sampling, model version), never by experiment or config names: renaming
 * a column keeps its cells, and changing a column's parameters under an
 * unchanged name simulates fresh cells. One root may serve every bench.
 */
class Experiment
{
  public:
    Experiment(std::string name, const Suite& suite, ExperimentOptions opts);

    /** Row-independent column from a mechanism (and optional core) config. */
    Experiment& add(const std::string& config_name, MechanismConfig mech,
                    CoreConfig core = CoreConfig{});

    /** Row-dependent column (e.g. per-workload oracle presets). */
    Experiment& add(const std::string& config_name, ConfigFactory factory);

    /**
     * Column from a MechanismRegistry preset under its registry name.
     * Oracle (perRow) presets become per-row factories over the suite's
     * global-stable PC sets and require an inspected suite.
     */
    Experiment& addPreset(const std::string& preset_name,
                          CoreConfig core = CoreConfig{});

    size_t numConfigs() const { return factories_.size(); }

    /** Run the {trace x config} matrix (gs sets attached when inspected).
     *  With opts.shardId >= 0 this process joins an externally launched
     *  fleet claiming cells through the checkpoint directory. Either way
     *  the returned matrix is complete and bit-identical to a serial
     *  run. */
    ExperimentResult run();

    /** Run the {SMT2 pair x config} matrix over smtTracePairs(). */
    ExperimentResult runSmt();

    /**
     * Assemble the result matrix purely from the cell store (e.g. after a
     * fleet of workers on other machines finished), without simulating
     * anything; fatal() if the sweep's manifest is absent or any cell is
     * missing/corrupt. Requires opts.checkpointDir.
     */
    ExperimentResult merge(bool smt = false);

    /** The sweep's manifest: shape, names and every cell's store key.
     *  Public so harnesses (constable-faultsweep) can pre-seed the store —
     *  e.g. plant a stale foreign lease — before run() ever sees it. */
    SweepManifest manifest(bool smt) const;

  private:
    ExperimentResult runCells(bool smt);
    size_t numRows(bool smt) const;

    std::string name_;
    const Suite* suite_;
    ExperimentOptions opts_;
    std::vector<std::string> names_;
    std::vector<ConfigFactory> factories_;
};

} // namespace constable

#endif
