/**
 * @file
 * Batch runner: a thread pool whose workers claim one job at a time from a
 * shared cursor, per-job RNG streams, and the row-major result grid of a
 * {row x SystemConfig} matrix. Each job writes its own pre-allocated slot
 * and results are aggregated in index order, so the figures a bench prints
 * are bit-identical whether the matrix ran on one thread or sixteen, and
 * independent of which worker ran which job. Each job also receives a
 * private RNG stream derived from (master seed, job index) via splitmix64
 * so randomized sweeps stay reproducible on any schedule.
 */

#ifndef CONSTABLE_SIM_BATCH_HH
#define CONSTABLE_SIM_BATCH_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "sim/runner.hh"

namespace constable {

/**
 * Self-scheduling thread pool. Every worker of a batch claims the next job
 * index from one shared atomic cursor until the cursor passes the batch
 * size, so no worker idles while a job is unclaimed and a slow job delays
 * only itself. The calling thread participates as worker 0, so a pool
 * built on a single-core host still makes progress with zero background
 * threads.
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
    void workerLoop(unsigned id);
    void drain(size_t n, const std::function<void(size_t)>& fn);

    unsigned concurrency_ = 1;

    std::mutex runMu_;  ///< one batch in flight at a time
    std::mutex mu_;     ///< guards batch hand-off state below
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    const std::function<void(size_t)>* fn_ = nullptr;
    size_t n_ = 0;      ///< job count of the batch in flight
    uint64_t batchId_ = 0;
    unsigned active_ = 0; ///< workers currently inside drain() (guarded by mu_)
    bool shutdown_ = false;

    /** Next unclaimed job index of the batch in flight. Reset only while no
     *  worker is inside drain(); it ends at or past n_. */
    std::atomic<size_t> next_ { 0 };

    std::vector<std::thread> threads_; ///< last: workers use every member
};

/** Knobs shared by every batch entry point. */
struct BatchOptions
{
    /** Total threads; 0 = global pool at hardware concurrency, 1 = serial. */
    unsigned threads = 0;
    /** Master seed for the per-job RNG streams. */
    uint64_t seed = 0x5eed5eedull;
};

/**
 * Run fn(job, rng) for job in [0, n). The rng argument is seeded from
 * (opts.seed, job) only, never from the executing worker, so results are
 * reproducible for any thread count and any claim order.
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

} // namespace constable

#endif
