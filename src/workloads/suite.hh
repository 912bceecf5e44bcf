/**
 * @file
 * The evaluation workload suite: 90 synthetic trace specs mirroring the
 * paper's Table 4 (Client 22, Enterprise 14, FSPEC17 29, ISPEC17 11,
 * Server 14). Per-category parameter templates are tuned so the suite's
 * global-stable-load characteristics track the paper's Fig 3, and
 * per-workload jitter creates the diversity behind Fig 12 (Constable wins
 * most workloads; value-locality-heavy ones favour EVES).
 */

#ifndef CONSTABLE_WORKLOADS_SUITE_HH
#define CONSTABLE_WORKLOADS_SUITE_HH

#include <utility>
#include <vector>

#include "trace/generator.hh"

namespace constable {

/** The full 90-trace suite. @param target_ops dynamic ops per trace. */
std::vector<WorkloadSpec> paperSuite(size_t target_ops);

/** A small smoke subset (one trace per category) for quick tests. */
std::vector<WorkloadSpec> smokeSuite(size_t target_ops);

/** Deterministic SMT2 pairings over a suite (adjacent distinct categories). */
std::vector<std::pair<size_t, size_t>> smtPairs(size_t suite_size);

} // namespace constable

#endif
