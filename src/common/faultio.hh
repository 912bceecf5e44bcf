/**
 * @file
 * Deterministic fault injection for every filesystem touchpoint: the
 * robustness proof-layer behind `tools/constable-faultsweep`.
 *
 * Each I/O call site (atomic writes, lease create/heartbeat/release,
 * checkpoint and trace-cache reads/writes, sweep manifests)
 * names a *fault point* from the central registry (faultPointTable()) and
 * asks faultFailed() whether an armed FaultPlan wants to inject a failure
 * there. With no plan armed — the production and CI-perf configuration —
 * every check is a single relaxed atomic load and a predicted branch, so
 * the shim adds nothing measurable to paths that are about to issue real
 * syscalls anyway.
 *
 * A plan comes from CONSTABLE_FAULT_PLAN (or --fault-plan, or
 * installFaultPlan() in tests) with the grammar
 *
 *     plan   := clause (';' clause)*            (',' also accepted)
 *     clause := point ':' action ['@' N]
 *     action := eio | enospc | torn | crash | skew
 *
 *  - eio/enospc fail the point's first N hits (default 1), then heal:
 *    the transient-failure model the retry/backoff policy must absorb.
 *  - torn arms a torn-write for the first N hits: the next atomic write
 *    silently commits only half its payload (rename still happens), the
 *    corruption the trailing checksums must catch.
 *  - crash calls _Exit(kFaultCrashExitCode) on the point's N-th hit. When
 *    CONSTABLE_FAULT_MARKER_DIR is set, the crash first creates a marker
 *    file there with O_EXCL; an existing marker disarms the crash, so a
 *    re-launched process recovers instead of crash-looping.
 *  - skew reports N seconds of clock skew (file mtimes ahead of the
 *    reader's clock) via faultSkewSeconds(); N defaults to 300.
 *
 * Unknown point or action names fatal() at parse time. All injection
 * decisions are counted deterministically per process — no wall clock, no
 * ambient randomness — so an armed run is exactly reproducible.
 */

#ifndef CONSTABLE_COMMON_FAULTIO_HH
#define CONSTABLE_COMMON_FAULTIO_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace constable {

/** Exit code of an injected crash point (distinguishable from fatal()'s
 *  exit 1 and from a real signal death in the faultsweep driver). */
inline constexpr int kFaultCrashExitCode = 86;

/** What an armed plan wants a call site to do. Call sites only ever see
 *  Eio/Enospc (as `true` from faultFailed); Torn is delivered through the
 *  pending torn-write flag, Crash never returns, Skew is polled separately
 *  via faultSkewSeconds(). */
enum class FaultAction : uint8_t { None, Eio, Enospc, Torn, Crash, Skew };

/** One registered fault point. `kind` drives which actions the faultsweep
 *  driver arms: "read" and "sync" take eio+crash, "write" takes
 *  eio+torn+crash, "clock" takes skew. */
struct FaultPointInfo
{
    const char* name; ///< e.g. "ckpt.cell.commit" (the faultFailed() key)
    const char* kind; ///< "read" | "write" | "sync" | "clock"
    const char* site; ///< human description of the call site
};

/** The central compiled-in registry of every fault point. Call sites must
 *  use names from this table (checked when a plan is armed), and the
 *  faultsweep driver enumerates it — a point added here without a call
 *  site shows up as never-hit in the sweep. */
const std::vector<FaultPointInfo>& faultPointTable();

namespace detail {

/** Armed flag (relaxed: arming happens-before any injected check the
 *  caller cares about via the plan-install path). */
extern std::atomic<bool> faultArmed;

bool faultFailedSlow(const char* point);
void faultEnsureEnvPlan();

} // namespace detail

/**
 * The main hook: returns true when the armed plan injects a transient
 * failure (EIO/ENOSPC) at this point — the call site then behaves exactly
 * as if the corresponding syscall failed. Torn arms the pending torn-write
 * flag and returns false; crash does not return; skew is ignored here.
 * With no plan armed this is one atomic load.
 */
inline bool
faultFailed(const char* point)
{
    if (!detail::faultArmed.load(std::memory_order_relaxed))
        return false;
    return detail::faultFailedSlow(point);
}

/** Consume the thread-local pending torn-write flag (set by a Torn clause
 *  at any point on this thread). writeFileAtomic() calls this once per
 *  write; true means "commit only half the payload, report success". */
bool faultConsumeTorn();

/** Seconds of injected clock skew at a "clock"-kind point (mtimes appear
 *  this far in the future); 0.0 when no skew clause is armed. */
double faultSkewSeconds(const char* point);

/** True when any fault plan is currently armed. */
bool faultPlanArmed();

/**
 * Arm a plan programmatically (tests, --fault-plan). Replaces any armed
 * plan; fatal() on malformed specs or unknown point/action names.
 * @p marker_dir backs crash-once markers (empty: crashes always fire).
 */
void installFaultPlan(const std::string& spec,
                      const std::string& marker_dir = "");

/** Disarm and forget the current plan (test teardown). */
void clearFaultPlan();

/** Force the lazy CONSTABLE_FAULT_PLAN / CONSTABLE_FAULT_MARKER_DIR load
 *  now, so a malformed env plan dies at startup instead of at the first
 *  I/O (ExperimentOptions::fromEnv calls this). */
void faultLoadEnvPlan();

/** Times the named point was evaluated while a plan was armed (armed
 *  clauses only; 0 for unknown or never-hit points). */
uint64_t faultPointHits(const std::string& point);

/** (point, hits) for every clause of the armed plan — what the faultsweep
 *  child prints so the driver can tell a recovered run from a vacuous one
 *  whose fault never fired. */
std::vector<std::pair<std::string, uint64_t>> faultArmedHits();

// ------------------------------------------------- deterministic retry

/**
 * Exponential backoff with *seeded* jitter: delay for attempt k is
 * baseMs * mult^k, scaled by a jitter factor drawn from an Rng seeded
 * from (CONSTABLE_FAULT_SEED ^ hash(point) ^ k) — the same point and
 * attempt always back off identically, across runs and across threads,
 * so TSan/golden jobs see one schedule.
 */
struct BackoffPolicy
{
    unsigned attempts = 4;    ///< total tries (1 initial + attempts-1 retries)
    unsigned baseMs = 5;      ///< first retry delay
    double mult = 2.0;        ///< per-attempt multiplier
    double jitterFrac = 0.5;  ///< delay *= 1 + jitterFrac * uniform[0,1)
    unsigned capMs = 1000;    ///< hard per-delay ceiling
};

/** The deterministic delay before retry `attempt` (0-based) of `point`. */
unsigned backoffDelayMs(const char* point, unsigned attempt,
                        const BackoffPolicy& p = {});

/** Sleep hook: tests swap in a counting no-op so retry paths run at full
 *  speed and deterministically under TSan. Returns the previous hook;
 *  nullptr restores the real sleep. */
using FaultSleepFn = void (*)(unsigned ms);
FaultSleepFn setFaultSleepFn(FaultSleepFn fn);

/** Sleep via the current hook (default: std::this_thread::sleep_for). */
void faultSleepMs(unsigned ms);

/**
 * Observer invoked after each retryWithBackoff() sleep with the point
 * name and the delay just taken. The observability tier (common/obs)
 * installs one at arm time to count retries and reconstruct backoff
 * spans; faultio itself never depends on obs. Relaxed atomic: the
 * unobserved path costs one load.
 */
using FaultRetryObserver = void (*)(const char* point, unsigned ms);

namespace detail {
extern std::atomic<FaultRetryObserver> retryObserver;
} // namespace detail

/** Install (or clear, with nullptr) the retry observer; returns the
 *  previous one. */
FaultRetryObserver setFaultRetryObserver(FaultRetryObserver fn);

/**
 * Run `fn` until it returns true, sleeping backoffDelayMs() between
 * tries, up to p.attempts total tries. Returns the final outcome. The
 * transient-failure absorber for lease/commit/manifest writes.
 */
template <typename Fn>
bool
retryWithBackoff(const char* point, Fn&& fn, const BackoffPolicy& p = {})
{
    for (unsigned attempt = 0;; ++attempt) {
        if (fn())
            return true;
        if (attempt + 1 >= p.attempts)
            return false;
        unsigned ms = backoffDelayMs(point, attempt, p);
        faultSleepMs(ms);
        if (FaultRetryObserver ob =
                detail::retryObserver.load(std::memory_order_relaxed))
            ob(point, ms);
    }
}

} // namespace constable

#endif
