/**
 * @file
 * Workload specification and trace generation driver. A WorkloadSpec fully
 * determines a trace (deterministic from the seed); the paper's 90-trace
 * suite (workloads/suite.hh) is a library of these specs.
 */

#ifndef CONSTABLE_TRACE_GENERATOR_HH
#define CONSTABLE_TRACE_GENERATOR_HH

#include <string>

#include "trace/fragments.hh"
#include "trace/trace.hh"

namespace constable {

/**
 * Tunable description of one synthetic workload. Fragment counts select how
 * many independent instances of each fragment kind the program contains;
 * "bursts" control how often a fragment runs per scheduler round, which sets
 * the inter-occurrence distance of its static loads.
 */
struct WorkloadSpec
{
    std::string name = "workload";
    std::string category = "Client";
    uint64_t seed = 1;
    size_t targetOps = 120'000;
    unsigned numArchRegs = 16;

    // PC-relative runtime constants.
    unsigned nGlobalConst = 1;
    unsigned globalsPerFrag = 6;
    unsigned globalMutatePeriod = 0;   ///< 0 = stable forever
    unsigned globalBursts = 1;

    // Inlined functions with stack-argument reloads.
    unsigned nInlinedOnce = 1;
    unsigned nInlinedSilent = 0;
    unsigned nInlinedChanging = 0;
    unsigned inlinedArgs = 3;
    unsigned inlinedBodyOps = 6;
    unsigned inlinedBursts = 2;

    // Object-field loops (register-relative).
    unsigned nObject = 1;
    unsigned objectFields = 3;
    unsigned objectIters = 2;
    unsigned objectBursts = 2;
    unsigned objectRewritePeriod = 0;  ///< 0 = base register never rewritten
    bool objectAccum = true;

    // Non-inlined calls (MRN traffic + RSP adjustment).
    unsigned nCall = 0;
    unsigned callParams = 2;
    StoreMode callMode = StoreMode::Changing;
    unsigned callBursts = 1;

    // Non-stable load populations.
    unsigned nStream = 1;
    unsigned streamElems = 6;
    unsigned streamBursts = 1;
    unsigned nStrided = 0;
    unsigned stridedElems = 6;
    unsigned nChase = 0;
    unsigned chaseSteps = 4;
    /** Pointer-chase working set (linked structures mostly cache-resident;
     *  large values model memory-latency-bound chasing). */
    unsigned chaseFootprintKB = 8;
    /** Allocation-order linked lists: value-predictable chains (EVES wins,
     *  Constable cannot help). */
    unsigned nPredChase = 0;
    unsigned predChaseSteps = 3;
    unsigned predChaseFootprintKB = 64;
    unsigned nAccum = 0;
    unsigned accumCounters = 2;
    unsigned accumBursts = 1;

    // Control flow.
    unsigned nBranchy = 1;
    unsigned branchBranches = 3;
    double branchRandomFrac = 0.12;

    /** Footprint per streaming/chasing fragment (cache pressure). */
    unsigned footprintKB = 64;

    /** Injected snoops per 1000 ops (multicore interference, §6.4.4). */
    double snoopPerKilOp = 0.0;
};

/** Generate the full trace for a spec. Deterministic. */
Trace generateTrace(const WorkloadSpec& spec);

/** How far past spec.targetOps (or past the setup ops, when those alone
 *  reach it) generateTrace(spec) can run: the op vector's reserved slack. */
size_t maxTraceOvershoot(const WorkloadSpec& spec);

} // namespace constable

#endif
