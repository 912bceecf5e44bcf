/**
 * @file
 * Content keys for the checkpoint cell store. A sweep cell's key is
 * derived from what the cell simulates, never from experiment or
 * configuration names:
 *
 *  - the workload row (Suite row key: spec hash for generated traces,
 *    trace-content hash for hand-built ones; SMT rows key on the ordered
 *    pair of their rows' keys),
 *  - whether the suite is inspected (the global-stable set classifies
 *    stats),
 *  - a canonical field-by-field hash of the full SystemConfig, including
 *    an order-independent hash of an oracle preset's stable-PC set,
 *  - the sample spec and seed, only when phase sampling is on,
 *  - kCellModelVersion.
 *
 * Two experiments that reach the same cell therefore share one stored
 * result, and a configuration whose parameters change under an unchanged
 * name misses the store instead of being served a stale cell.
 */

#ifndef CONSTABLE_SIM_CELL_KEY_HH
#define CONSTABLE_SIM_CELL_KEY_HH

#include <cstdint>

#include "sim/runner.hh"
#include "sim/sample.hh"

namespace constable {

/**
 * Version of the simulated machine's behaviour as the store sees it. Bump
 * it with every change that alters any cell's RunResult (re-blessing the
 * golden-snapshot fingerprints is the usual signal; test_golden_snapshot
 * pins the value its fingerprints were blessed under), so a store written
 * by an older model is never served to a newer one.
 */
inline constexpr uint32_t kCellModelVersion = 1;

/** Canonical hash of every field of a SystemConfig (CoreConfig with its
 *  HierarchyConfig, MechanismConfig with ConstableConfig, its SLD/RMT/AMT
 *  sub-configs and the IdealSpec). Adding a field to any of those structs
 *  without hashing it fails to compile (cell_key.cc). */
uint64_t configHash(const SystemConfig& cfg);

/** Everything outside the row and the config that a cell's result
 *  depends on. */
struct CellKeyContext
{
    bool inspected = false;
    /** Non-null when phase sampling is on; the seed then selects windows. */
    const SampleOptions* sample = nullptr;
    uint64_t seed = 0;
};

/** Store key of one cell: @p row_key is the row's Suite key, or for SMT
 *  rows smtRowKey() of both rows' keys. */
uint64_t cellKey(uint64_t row_key, const SystemConfig& cfg,
                 const CellKeyContext& ctx);

/** Row key of an SMT pair: ordered, so (a, b) and (b, a) differ, and
 *  hashed in its own domain, apart from single rows' keys. */
uint64_t smtRowKey(uint64_t first, uint64_t second);

} // namespace constable

#endif
