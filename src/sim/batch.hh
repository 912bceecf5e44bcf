/**
 * @file
 * Batch experiment runner: a work-stealing thread pool plus a deterministic
 * {trace x SystemConfig} matrix driver. Results are written into
 * pre-allocated row-major slots and aggregated in index order, so the
 * figures a bench prints are bit-identical whether the matrix ran on one
 * thread or sixteen, and independent of job completion order. Each job also
 * receives a private RNG stream derived from (master seed, job index) via
 * splitmix64 so randomized sweeps stay reproducible under stealing.
 */

#ifndef CONSTABLE_SIM_BATCH_HH
#define CONSTABLE_SIM_BATCH_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/runner.hh"

namespace constable {

/**
 * Work-stealing thread pool. Chunks of the iteration space are dealt
 * round-robin to per-worker deques; owners pop from the back (LIFO, cache
 * friendly) while idle workers steal from the front (FIFO, oldest chunk).
 * The calling thread participates as worker 0, so a pool built on a
 * single-core host still makes progress with zero background threads.
 */
class ThreadPool
{
  public:
    /** Safety cap on explicit concurrency requests (a mistyped
     *  CONSTABLE_THREADS must not try to spawn 100000 OS threads). */
    static constexpr unsigned kMaxConcurrency = 256;

    /** @param concurrency total worker count including the caller, clamped
     *         to kMaxConcurrency; 0 means hardware_concurrency clamped to
     *         [1, 16]. */
    explicit ThreadPool(unsigned concurrency = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    unsigned numWorkers() const { return concurrency_; }

    /**
     * Run fn(i) for i in [0, n), blocking until every index completed.
     * Concurrent run() calls from distinct threads serialize; a nested call
     * from inside a pool job executes inline to avoid deadlock.
     */
    void run(size_t n, const std::function<void(size_t)>& fn);

    /** Process-wide shared pool (lazily built at hardware concurrency). */
    static ThreadPool& global();

  private:
    struct Shard
    {
        std::mutex mu;
        std::deque<std::pair<size_t, size_t>> chunks; ///< [begin, end) ranges
    };

    void workerLoop(unsigned id);
    bool grabWork(unsigned id, std::pair<size_t, size_t>& out);
    void drain(unsigned id, const std::function<void(size_t)>& fn);

    unsigned concurrency_ = 1;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> threads_;

    std::mutex runMu_;  ///< one batch in flight at a time
    std::mutex mu_;     ///< guards batch hand-off state below
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    const std::function<void(size_t)>* fn_ = nullptr;
    uint64_t batchId_ = 0;
    std::atomic<size_t> pending_ { 0 };
    unsigned active_ = 0; ///< workers currently inside drain() (guarded by mu_)
    bool shutdown_ = false;
};

/** Knobs shared by every batch entry point. */
struct BatchOptions
{
    /** Total threads; 0 = global pool at hardware concurrency, 1 = serial. */
    unsigned threads = 0;
    /** Master seed for the per-job RNG streams. */
    uint64_t seed = 0x5eed5eedull;
};

/** Options from env: CONSTABLE_THREADS (0 = hardware, 1 = serial) and
 *  CONSTABLE_SEED. Benches use this so sweeps can be replayed serially to
 *  confirm thread-count independence. */
BatchOptions batchOptionsFromEnv();

/**
 * Run fn(job, rng) for job in [0, n). The rng argument is seeded from
 * (opts.seed, job) only, never from the executing worker, so results are
 * reproducible for any thread count and any steal pattern.
 */
void forEachJob(size_t n, const std::function<void(size_t, Rng&)>& fn,
                const BatchOptions& opts = {});

/** Dense row-major result grid of a {row x config} experiment matrix. */
struct MatrixResult
{
    size_t numRows = 0;
    size_t numConfigs = 0;
    std::vector<RunResult> results; ///< results[row * numConfigs + cfg]

    RunResult&
    at(size_t row, size_t cfg)
    {
        return results[row * numConfigs + cfg];
    }

    const RunResult&
    at(size_t row, size_t cfg) const
    {
        return results[row * numConfigs + cfg];
    }

    /** Per-row speedup of config `test` over config `base`. */
    std::vector<double> speedupsOver(size_t test, size_t base) const;

    /** Sum of every cell's stats, merged in index order (deterministic). */
    StatSet aggregateStats() const;

    /** The result fingerprint: FNV chained over every cell's serialized
     *  RunResult in row-major order, so any change to any cell's cycles,
     *  counts or stats moves it. The "result fingerprint:" lines print it. */
    uint64_t fingerprint() const;
};

/** Builds the SystemConfig for one matrix cell; may depend on the row
 *  (e.g. ideal-oracle presets seeded with per-workload stable-PC sets). */
using ConfigFactory = std::function<SystemConfig(size_t row)>;

/**
 * Fan a {trace x config} matrix out across the pool. gs is optional
 * per-row stats-classification PC sets (empty, or one entry per trace,
 * null entries allowed).
 */
MatrixResult runMatrix(const std::vector<const Trace*>& traces,
                       const std::vector<ConfigFactory>& configs,
                       const std::vector<const std::unordered_set<PC>*>& gs =
                           {},
                       const BatchOptions& opts = {});

/** Convenience overload for row-independent configurations. */
MatrixResult runMatrix(const std::vector<const Trace*>& traces,
                       const std::vector<SystemConfig>& configs,
                       const std::vector<const std::unordered_set<PC>*>& gs =
                           {},
                       const BatchOptions& opts = {});

/** SMT2 variant: each row is a co-running trace pair (Figs 14/15). */
MatrixResult runSmtMatrix(
    const std::vector<std::pair<const Trace*, const Trace*>>& pairs,
    const std::vector<ConfigFactory>& configs,
    const BatchOptions& opts = {});

/** Convenience overload for row-independent SMT configurations. */
MatrixResult runSmtMatrix(
    const std::vector<std::pair<const Trace*, const Trace*>>& pairs,
    const std::vector<SystemConfig>& configs,
    const BatchOptions& opts = {});

} // namespace constable

#endif
