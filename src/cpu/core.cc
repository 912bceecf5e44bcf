/**
 * @file
 * OooCore construction (resource sizing, cache warm-up, mechanism attach)
 * and end-of-run statistics export. The per-cycle stage logic lives in
 * cpu/rename.cc, cpu/schedule.cc, cpu/mem_pipe.cc and cpu/retire.cc.
 */

#include "cpu/core.hh"

#include <cstdio>

#include "common/logging.hh"

namespace constable {

OooCore::OooCore(const CoreConfig& core_cfg, const MechanismConfig& mech_cfg,
                 std::vector<const Trace*> traces,
                 const std::unordered_set<PC>* global_stable)
    : CoreState(core_cfg, mech_cfg)
{
    if (global_stable) {
        globalStable.reserve(global_stable->size());
        // Membership only: the set's order never matters. lint:ordered
        for (PC pc : *global_stable)
            globalStable.insertUnique(pc);
    }
    if (traces.empty() || traces.size() > 2)
        fatal("OooCore: need 1 or 2 traces");
    if (traces.size() == 2 && !cfg.smt2)
        fatal("OooCore: two traces require smt2");

    // Each thread owns robPerThread() consecutive slots. Its ROB, LB, SB,
    // ready bitmaps and store chunk index are sized once here and never
    // grow.
    const unsigned robSize = cfg.robPerThread();
    if (robSize > RingBitmap::kMaxBits)
        fatal("OooCore: robPerThread() exceeds the ready bitmap's " +
              std::to_string(RingBitmap::kMaxBits) + " entries");
    slots.resize(static_cast<size_t>(robSize) * traces.size());
    threads.resize(traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
        ThreadCtx& t = threads[i];
        t.trace = traces[i];
        t.slotBase = static_cast<int>(i * robSize);
        t.rob.reset(robSize);
        t.loadList.reset(cfg.lbPerThread());
        t.storeList.reset(cfg.sbPerThread());
        t.storeAddrIndex.reserve(2 * size_t{ cfg.sbPerThread() });
        for (RingBitmap& r : t.ready)
            r.reset(robSize);
        t.renameMap.fill(SlotRef{});
        t.recentOps.reserve(32);
    }
    blockedLoads.reserve(64);
    wheel.reserve(slots.size());

    // Warm L2/LLC with the trace footprint (memory-state snapshot), in
    // first-touch order. Repeated warmLine() calls on a present line are
    // no-ops, so dedupe up front: one hash probe replaces three
    // set-associative way scans for every revisited line of the footprint.
    FlatSet<Addr> warmed(1024);
    for (const ThreadCtx& t : threads) {
        for (const MicroOp& op : t.trace->ops) {
            if (op.isMem() && warmed.insertUnique(lineAddr(op.effAddr)))
                memory.warmLine(lineAddr(op.effAddr));
        }
    }

    mechs.attach(*this);
}

void
OooCore::exportFinalStats(RunResult& r)
{
    StatSet& s = r.stats;
    s.set("cycles", static_cast<double>(now));
    s.set("instructions", static_cast<double>(r.instructions));
    s.set("ipc", r.ipc());
    s.set("rob.allocs", static_cast<double>(robAllocs));
    s.set("rs.allocs", static_cast<double>(rsAllocs));
    s.set("issue.events", static_cast<double>(issueEvents));
    s.set("renamed.ops", static_cast<double>(renamedOps));
    s.set("exec.alu", static_cast<double>(aluExecs));
    s.set("exec.agu", static_cast<double>(aguExecs));
    s.set("branch.lookups", static_cast<double>(branchPred.lookups));
    s.set("branch.mispredicts", static_cast<double>(branchMispredicts));
    s.set("loads.retired", static_cast<double>(loadsRetired));
    s.set("loads.eliminated", static_cast<double>(loadsEliminatedRetired));
    s.set("loads.vp", static_cast<double>(loadsVpRetired));
    s.set("loads.gs", static_cast<double>(gsLoadsRetired));
    s.set("loads.gsEliminated", static_cast<double>(gsElimRetired));
    s.set("loads.nonGsEliminated", static_cast<double>(nonGsElimRetired));
    s.set("loads.elim.pcRel", static_cast<double>(loadsElimRetiredByMode[
        static_cast<unsigned>(AddrMode::PcRel)]));
    s.set("loads.elim.stackRel", static_cast<double>(loadsElimRetiredByMode[
        static_cast<unsigned>(AddrMode::StackRel)]));
    s.set("loads.elim.regRel", static_cast<double>(loadsElimRetiredByMode[
        static_cast<unsigned>(AddrMode::RegRel)]));
    s.set("ordering.violations", static_cast<double>(orderingViolations));
    s.set("ordering.elimViolations",
          static_cast<double>(elimOrderingViolations));
    s.set("vp.flushes", static_cast<double>(vpFlushes));
    s.set("cycles.loadUtil", static_cast<double>(loadUtilCycles));
    s.set("cycles.gsOccupiedWait", static_cast<double>(gsOccupiedWaitCycles));
    s.set("cycles.gsOccupiedNoWait",
          static_cast<double>(gsOccupiedNoWaitCycles));
    s.set("stall.frontend", static_cast<double>(stallFrontend));
    s.set("stall.pendingBranch", static_cast<double>(stallPendingBranch));
    s.set("fbu.branch", static_cast<double>(fbuBranch));
    s.set("fbu.squash", static_cast<double>(fbuSquash));
    s.set("stall.robFull", static_cast<double>(stallRobFull));
    s.set("stall.rsFull", static_cast<double>(stallRsFull));
    s.set("stall.lbFull", static_cast<double>(stallLbFull));
    s.set("stall.sbFull", static_cast<double>(stallSbFull));
    s.set("stall.renameZero", static_cast<double>(renameZeroCycles));
    s.set("rename.stalls.sldRead", static_cast<double>(renameStallsSldRead));
    s.set("rename.stalls.sldWrite",
          static_cast<double>(renameStallsSldWrite));
    s.set("sld.updates.total", static_cast<double>(sldUpdateTotal));
    s.set("sld.updates.cycles", static_cast<double>(sldUpdateCycles));
    s.set("sld.updates.perCycle",
          ratio(static_cast<double>(sldUpdateTotal),
                static_cast<double>(sldUpdateCycles)));
    for (size_t b = 0; b < sldUpdateHist.numBuckets(); ++b) {
        s.set("sld.updates.hist." + std::to_string(b),
              sldUpdateHist.bucketFrac(b));
    }
    // StatSet keys on a std::map, so the table's order of these per-PC
    // counters never reaches serialized bytes or reports.
    vpWrongByPc.forEach([&s](PC pc, uint64_t n) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "debug.vpwrong.%llx",
                      (unsigned long long)pc);
        s.set(buf, static_cast<double>(n));
    });
    s.set("directory.pins", static_cast<double>(directory.pinCount));
    s.set("directory.snoops",
          static_cast<double>(directory.snoopsDelivered));
    memory.exportStats(s);
    mechs.exportStats(s);
}

} // namespace constable
