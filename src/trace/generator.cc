#include "trace/generator.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"

namespace constable {

namespace {

struct Entry
{
    std::unique_ptr<Fragment> frag;
    unsigned bursts;
};

/** The spec's fragments in schedule order, plus the addresses its snoops
 *  may target. */
std::vector<Entry>
makeFragments(const WorkloadSpec& spec, std::vector<Addr>& snoopTargets)
{
    std::vector<Entry> frags;

    unsigned idx = 0;
    auto nextPc = [&idx]() {
        return static_cast<PC>(0x400000 + idx * 0x1000);
    };
    auto nextData = [&idx]() {
        return static_cast<Addr>(0x10000000ull + idx * 0x200000ull);
    };
    unsigned stackFrames = 0;
    auto nextStackOff = [&stackFrames]() {
        return static_cast<Addr>(0x100 + 0x100 * stackFrames++);
    };

    for (unsigned i = 0; i < spec.nGlobalConst; ++i, ++idx) {
        Addr data = nextData();
        for (unsigned g = 0; g < spec.globalsPerFrag; ++g)
            snoopTargets.push_back(data + 8 * g);
        frags.push_back({ std::make_unique<GlobalConstFragment>(
                              nextPc(), data, spec.globalsPerFrag,
                              spec.globalMutatePeriod),
                          spec.globalBursts });
    }
    auto addInlined = [&](unsigned n, StoreMode mode) {
        for (unsigned i = 0; i < n; ++i, ++idx) {
            frags.push_back({ std::make_unique<InlinedFuncFragment>(
                                  nextPc(), nextStackOff(), spec.inlinedArgs,
                                  mode, spec.inlinedBodyOps),
                              spec.inlinedBursts });
        }
    };
    addInlined(spec.nInlinedOnce, StoreMode::Once);
    addInlined(spec.nInlinedSilent, StoreMode::Silent);
    addInlined(spec.nInlinedChanging, StoreMode::Changing);

    for (unsigned i = 0; i < spec.nObject; ++i, ++idx) {
        frags.push_back({ std::make_unique<ObjectFieldFragment>(
                              nextPc(), nextData(), spec.objectFields,
                              spec.objectIters, spec.objectRewritePeriod,
                              spec.objectAccum),
                          spec.objectBursts });
    }
    for (unsigned i = 0; i < spec.nCall; ++i, ++idx) {
        frags.push_back({ std::make_unique<CallFragment>(
                              nextPc(), spec.callParams, spec.callMode),
                          spec.callBursts });
    }
    unsigned footprint = spec.footprintKB * 1024;
    for (unsigned i = 0; i < spec.nStream; ++i, ++idx) {
        frags.push_back({ std::make_unique<StreamFragment>(
                              nextPc(), nextData(), footprint,
                              spec.streamElems),
                          spec.streamBursts });
    }
    for (unsigned i = 0; i < spec.nStrided; ++i, ++idx) {
        frags.push_back({ std::make_unique<StridedValueFragment>(
                              nextPc(), nextData(), footprint,
                              spec.stridedElems),
                          1 });
    }
    for (unsigned i = 0; i < spec.nChase; ++i, ++idx) {
        frags.push_back({ std::make_unique<PointerChaseFragment>(
                              nextPc(), nextData(),
                              spec.chaseFootprintKB * 1024 / 64,
                              spec.chaseSteps),
                          1 });
    }
    for (unsigned i = 0; i < spec.nPredChase; ++i, ++idx) {
        frags.push_back({ std::make_unique<PredictableChaseFragment>(
                              nextPc(), nextData(),
                              spec.predChaseFootprintKB * 1024 / 64,
                              spec.predChaseSteps),
                          1 });
    }
    for (unsigned i = 0; i < spec.nAccum; ++i, ++idx) {
        frags.push_back({ std::make_unique<AccumulatorFragment>(
                              nextPc(), nextData(), spec.accumCounters),
                          spec.accumBursts });
    }
    for (unsigned i = 0; i < spec.nBranchy; ++i, ++idx) {
        frags.push_back({ std::make_unique<BranchyFragment>(
                              nextPc(), spec.branchBranches,
                              spec.branchRandomFrac),
                          1 });
    }

    if (frags.empty())
        fatal("generateTrace: spec has no fragments");
    return frags;
}

/** Ops one scheduler sub-round can emit at most: each fragment bursts at
 *  most once per sub-round. */
size_t
subRoundBound(const std::vector<Entry>& frags)
{
    size_t n = 0;
    for (const Entry& e : frags)
        n += e.frag->maxBurstOps();
    return n;
}

} // namespace

size_t
maxTraceOvershoot(const WorkloadSpec& spec)
{
    std::vector<Addr> snoopTargets;
    return subRoundBound(makeFragments(spec, snoopTargets));
}

Trace
generateTrace(const WorkloadSpec& spec)
{
    ProgramBuilder b(spec.seed, spec.numArchRegs);
    std::vector<Addr> snoopTargets;
    std::vector<Entry> frags = makeFragments(spec, snoopTargets);

    for (auto& e : frags)
        e.frag->setup(b);
    // The loop below stops after the first sub-round that reaches
    // targetOps, so the trace ends at most one sub-round past it: with that
    // much room reserved the op vector never regrows (no doubling copies,
    // no 2x capacity left behind).
    b.reserveOps(std::max<size_t>(b.numOps(), spec.targetOps) +
                 subRoundBound(frags));

    unsigned maxBursts = 1;
    for (auto& e : frags)
        maxBursts = std::max(maxBursts, e.bursts);

    // Interleaved round-robin schedule: fragment f runs e.bursts times per
    // round, spread across sub-rounds so its loads keep a regular
    // inter-occurrence distance.
    uint64_t nextSnoopAt = spec.snoopPerKilOp > 0
        ? static_cast<uint64_t>(1000.0 / spec.snoopPerKilOp)
        : 0;
    while (b.numOps() < spec.targetOps) {
        for (unsigned sub = 0; sub < maxBursts; ++sub) {
            for (auto& e : frags) {
                if (sub < e.bursts)
                    e.frag->burst(b);
            }
            if (nextSnoopAt && b.numOps() >= nextSnoopAt &&
                !snoopTargets.empty()) {
                b.snoopHere(
                    snoopTargets[b.rng().below(snoopTargets.size())]);
                nextSnoopAt = b.numOps() +
                    static_cast<uint64_t>(1000.0 / spec.snoopPerKilOp);
            }
            if (b.numOps() >= spec.targetOps)
                break;
        }
    }

    return b.finish(spec.name, spec.category);
}

} // namespace constable
