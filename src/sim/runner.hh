/**
 * @file
 * System wiring: single-trace and SMT2 drivers, trace relocation for SMT
 * address-space separation, and speedup math. Mechanism presets live in
 * the MechanismRegistry (sim/mechanisms.hh); resolve them by name with
 * mechFor("constable") etc.
 */

#ifndef CONSTABLE_SIM_RUNNER_HH
#define CONSTABLE_SIM_RUNNER_HH

#include <string>
#include <unordered_set>
#include <vector>

#include "cpu/core.hh"
#include "inspector/load_inspector.hh"
#include "trace/generator.hh"

namespace constable {

/** A complete system configuration. */
struct SystemConfig
{
    CoreConfig core;
    MechanismConfig mech;
};

/** Run one trace on one core. @param gs optional stats-classification set. */
RunResult runTrace(const Trace& trace, const SystemConfig& cfg,
                   const std::unordered_set<PC>* gs = nullptr);

/** Run two traces in SMT2 on one core (thread 1 is relocated to a disjoint
 *  PC/address region to model separate address spaces). */
RunResult runSmtPair(const Trace& t0, const Trace& t1, SystemConfig cfg,
                     const std::unordered_set<PC>* gs = nullptr);

/** Relocate a trace's PCs and data addresses by fixed offsets. */
Trace relocateTrace(const Trace& t, PC pc_off, Addr addr_off);

/** Performance ratio (same work): base cycles / test cycles. */
double speedup(const RunResult& test, const RunResult& base);

} // namespace constable

#endif
