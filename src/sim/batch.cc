#include "sim/batch.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/obs.hh"
#include "trace/serialize.hh"

namespace constable {

namespace {

/** Set while the current thread executes pool jobs; nested run() calls from
 *  inside a job execute inline instead of deadlocking on runMu_. */
thread_local bool tlsInPoolJob = false;

unsigned
defaultConcurrency()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(hw == 0 ? 1u : hw, 16u));
}

} // namespace

ThreadPool::ThreadPool(unsigned concurrency)
    : concurrency_(concurrency == 0
                       ? defaultConcurrency()
                       : std::min(concurrency, kMaxConcurrency))
{
    // Worker 0 is the calling thread; only the rest get dedicated threads.
    threads_.reserve(concurrency_ - 1);
    for (unsigned id = 1; id < concurrency_; ++id)
        threads_.emplace_back([this, id]() { workerLoop(id); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_ = true;
    }
    cvStart_.notify_all();
    for (auto& t : threads_)
        t.join();
}

void
ThreadPool::drain(size_t n, const std::function<void(size_t)>& fn)
{
    tlsInPoolJob = true;
    for (size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1))
        fn(i);
    tlsInPoolJob = false;
}

void
ThreadPool::workerLoop(unsigned id)
{
    // Name this thread's span lane after its pool slot, so Perfetto shows
    // one row per worker (worker 0 is the calling thread -- its spans land
    // on that thread's existing lane).
    obsSetThreadLane("pool-" + std::to_string(id));
    uint64_t seenBatch = 0;
    for (;;) {
        const std::function<void(size_t)>* fn = nullptr;
        size_t n = 0;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cvStart_.wait(lk, [&]() {
                return shutdown_ || (fn_ != nullptr && batchId_ != seenBatch);
            });
            if (shutdown_)
                return;
            seenBatch = batchId_;
            fn = fn_;
            n = n_;
            // Committed to this batch: run() must not return (and the next
            // batch must not reset the cursor) until this worker leaves
            // drain(), or a slow worker could claim new jobs with a stale fn.
            ++active_;
        }
        drain(n, *fn);
        {
            std::lock_guard<std::mutex> lk(mu_);
            --active_;
        }
        cvDone_.notify_all();
    }
}

void
ThreadPool::run(size_t n, const std::function<void(size_t)>& fn)
{
    if (n == 0)
        return;
    if (concurrency_ == 1 || n == 1 || tlsInPoolJob) {
        // Serial pool, trivial batch, or nested call from inside a job.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::lock_guard<std::mutex> batch(runMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        next_.store(0);
        fn_ = &fn;
        n_ = n;
        ++batchId_;
    }
    cvStart_.notify_all();

    // The submitting thread claims jobs too. Once its drain() returns every
    // job is claimed, so the batch is done when no worker is inside drain().
    drain(n, fn);

    std::unique_lock<std::mutex> lk(mu_);
    cvDone_.wait(lk, [&]() { return active_ == 0; });
    fn_ = nullptr;
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

namespace {

/** Dispatch a batch to the right executor for opts.threads. */
void
dispatch(size_t n, const BatchOptions& opts,
         const std::function<void(size_t)>& fn)
{
    if (opts.threads == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
    } else if (opts.threads == 0 || opts.threads == defaultConcurrency()) {
        // defaultConcurrency() is what global() was (or will be) built
        // with; comparing against it avoids materializing the global pool
        // just to read its size when a dedicated pool is wanted anyway.
        ThreadPool::global().run(n, fn);
    } else {
        ThreadPool pool(opts.threads);
        pool.run(n, fn);
    }
}

} // namespace

BatchOptions
batchOptionsFromEnv()
{
    BatchOptions opts;
    if (auto v = envU64("CONSTABLE_THREADS")) {
        opts.threads = static_cast<unsigned>(
            std::min<uint64_t>(*v, ThreadPool::kMaxConcurrency));
    }
    if (auto v = envU64("CONSTABLE_SEED"))
        opts.seed = *v;
    return opts;
}

void
forEachJob(size_t n, const std::function<void(size_t, Rng&)>& fn,
           const BatchOptions& opts)
{
    dispatch(n, opts, [&](size_t job) {
        // Seeded from (master seed, job) only: independent of the executing
        // worker, so any claim order reproduces the same streams.
        Rng rng(Rng::splitmix(opts.seed) ^ Rng::splitmix(job + 1));
        fn(job, rng);
    });
}

std::vector<double>
MatrixResult::speedupsOver(size_t test, size_t base) const
{
    std::vector<double> out(numRows);
    for (size_t r = 0; r < numRows; ++r)
        out[r] = speedup(at(r, test), at(r, base));
    return out;
}

StatSet
MatrixResult::aggregateStats() const
{
    StatSet agg;
    for (const RunResult& r : results)
        agg.merge(r.stats);
    return agg;
}

uint64_t
MatrixResult::fingerprint() const
{
    uint64_t h = 0x5eedf00dull;
    for (const RunResult& r : results) {
        auto bytes = serializeRunResult(r);
        h ^= fnv1a(bytes.data(), bytes.size());
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace constable
