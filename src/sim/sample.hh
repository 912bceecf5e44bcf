/**
 * @file
 * Phase-sampled simulation (SimPoint/SMARTS tradition): slice a trace into
 * fixed-size phases, fingerprint each with a basic-block/op-mix vector,
 * pick representative windows by deterministic seeded k-means clustering,
 * run each selected window in full detail after a functional warm-up pass
 * (cpu/warmup.cc), and extrapolate whole-trace cycles with a per-metric
 * confidence interval carried in RunResult.stats under "sample.*".
 *
 * Layering: this pair is its own constable-lint DAG node between cpu/ and
 * the rest of sim/ — it may use the core but not sim/runner.hh, which is
 * why runSampledTrace() takes CoreConfig + MechanismConfig separately
 * instead of a SystemConfig. sim/experiment.cc dispatches to it per cell.
 *
 * Sampled results never reach the full-fidelity golden-snapshot surface:
 * a full run's RunResult carries no "sample.*" keys and its serialized
 * bytes are unchanged, and sampled cells are stored under a different
 * key (sim/cell_key.hh folds the sample spec and seed in).
 */

#ifndef CONSTABLE_SIM_SAMPLE_HH
#define CONSTABLE_SIM_SAMPLE_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/run_result.hh"
#include "cpu/config.hh"
#include "trace/trace.hh"

namespace constable {

/**
 * Sampling knobs, parsed from `--sample=phases:N,window:K` (or the
 * CONSTABLE_SAMPLE env var). `phases` is the number of representative
 * windows k-means selects; `window` is both the phase size and the number
 * of measured ops per selected window. The literal "off" disables
 * sampling (useful to override an inherited env setting).
 */
struct SampleOptions
{
    bool enabled = false;
    /** Representative windows to select (k of the k-means clustering). */
    uint64_t phases = 8;
    /** Ops per phase / measured ops per selected window. */
    uint64_t window = 2000;
    /** Detailed (pipelined but unmeasured) fill ops renamed before each
     *  window so measurement starts from steady state. */
    uint64_t fill = 2048;
    /** Functional warm-up horizon: ops closer than this to a window's
     *  fill are replayed with cache/predictor/mechanism updates; earlier
     *  ops run a branch-predictor-only fast skip (the predictor is the
     *  one structure whose convergence outruns any affordable horizon). */
    uint64_t warm = 8192;
    /** Measured instances per cluster, picked at evenly spaced time
     *  quantiles of the cluster's members. >1 cancels warm-up drift: a
     *  phase class recurring across a long trace runs faster late than
     *  early, so one early representative overestimates cycles. */
    uint64_t spread = 4;

    /** Strict grammar `phases:N,window:K,fill:F,warm:W,spread:S` (every
     *  key optional, no duplicates, values range-checked) or "off";
     *  fatal() on anything else. The parsed options have enabled=true
     *  unless spec=="off". */
    static SampleOptions parse(const std::string& spec);

    /** Canonical spec string ("phases:N,window:K,fill:F,warm:W,spread:S",
     *  or "off" when disabled); feeds checkpoint-key hashing, so equal
     *  specs — and only equal specs — share sampled checkpoint cells. */
    std::string spec() const;
};

/** One selected representative window (exposed for determinism tests). */
struct SampleWindow
{
    size_t begin = 0;   ///< first measured trace index
    size_t end = 0;     ///< one past the last measured trace index
    double weight = 0;  ///< cluster weight (fraction of all phases)
};

/**
 * Deterministic window selection: fingerprint each `opts.window`-op phase
 * (hashed-PC buckets + op-class mix + address-locality buckets,
 * L1-normalized), cluster with seeded k-means, return up to `opts.spread`
 * time-stratified members per non-empty cluster, each weighted an equal
 * share of the cluster population, sorted by begin. A pure function
 * of (seed, trace content, opts) — thread count, row index and shard
 * layout never reach it, which is what makes sampled sweeps bit-identical
 * across 1/N-thread and fleet-worker execution.
 */
std::vector<SampleWindow> selectSampleWindows(const Trace& trace,
                                              const SampleOptions& opts,
                                              uint64_t seed);

/**
 * Run one trace in sampled mode and extrapolate: cycles = weighted-CPI x
 * total trace ops, instructions = total trace ops (so downstream Mops/s
 * accounting measures *effective* throughput), with "sample.*" stat keys
 * (coverage, per-metric ci95) alongside. Falls back to a plain full run
 * when the trace is too small to sample ("sample.windows" = 0 then).
 * panic()s if any measured window fails the golden check, exactly like
 * the full-fidelity runner.
 */
RunResult runSampledTrace(const Trace& trace, const CoreConfig& core,
                          const MechanismConfig& mech,
                          const SampleOptions& opts, uint64_t seed,
                          const std::unordered_set<PC>* gs = nullptr);

} // namespace constable

#endif
