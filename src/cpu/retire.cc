/**
 * @file
 * In-order retirement: snoop delivery at commit boundaries, the paper's
 * golden check (§8.5) on every retired load, commit-time mechanism
 * training, and resource release.
 */

#include "cpu/core.hh"

#include <cstdio>

namespace constable {

void
OooCore::deliverSnoops(ThreadCtx& t, size_t upto_trace_idx)
{
    const auto& snoops = t.trace->snoops;
    while (t.snoopIdx < snoops.size() &&
           snoops[t.snoopIdx].beforeSeq <= upto_trace_idx) {
        Addr addr = snoops[t.snoopIdx].addr;
        // Step 10: snoop probes the AMT; directory CV bit resets; caches
        // invalidate the line.
        mechs.onSnoop(addr);
        directory.snoopDelivered(lineAddr(addr));
        memory.snoop(addr);
        ++t.snoopIdx;
    }
}

void
OooCore::goldenCheck(const InFlight& e)
{
    if (!e.op.isLoad())
        return;
    if (e.eliminated || e.idealEliminated) {
        if (e.lbAddr != e.op.effAddr || e.elimValue != e.op.value) {
            goldenFailed = true;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "golden check failed: pc=%#llx addr %#llx vs "
                          "%#llx value %#llx vs %#llx",
                          (unsigned long long)e.op.pc,
                          (unsigned long long)e.lbAddr,
                          (unsigned long long)e.op.effAddr,
                          (unsigned long long)e.elimValue,
                          (unsigned long long)e.op.value);
            goldenMsg = buf;
        }
    }
    // Executed loads fetch their value from the functional trace record,
    // so their golden check is satisfied by construction.
}

void
OooCore::retireStage()
{
    unsigned budget = cfg.retireWidth;
    for (size_t round = 0; round < threads.size() && budget > 0; ++round) {
        // Alternate priority between SMT threads cycle by cycle.
        ThreadCtx& t =
            threads[(round + static_cast<size_t>(now)) % threads.size()];
        while (budget > 0 && !t.rob.empty()) {
            int s = t.robSlot(0);
            InFlight& e = at(s);
            if (e.state != OpState::Done)
                break;
            deliverSnoops(t, e.traceIdx);
            goldenCheck(e);

            if (e.op.isLoad()) {
                ++loadsRetired;
                // Commit-time predictor training (in order, exactly once).
                if (!e.eliminated && !e.idealEliminated)
                    mechs.retireLoad(e);
                bool gs = e.isGsLoad;
                if (gs)
                    ++gsLoadsRetired;
                if (e.eliminated || e.idealEliminated) {
                    ++loadsEliminatedRetired;
                    ++loadsElimRetiredByMode[static_cast<unsigned>(
                        e.op.addrMode)];
                    if (gs)
                        ++gsElimRetired;
                    else
                        ++nonGsElimRetired;
                } else if (e.vpApplied) {
                    ++loadsVpRetired;
                }
                CONSTABLE_ASSERT(t.loadList.front().slot == s,
                                 "retiring load is not the LB head");
                t.loadList.pop_front();
            }
            if (e.op.isStore()) {
                // Senior-store drain into the L1D.
                memory.store(e.op.pc, e.op.effAddr);
                CONSTABLE_ASSERT(t.storeList.front().slot == s,
                                 "retiring store is not the SB head");
                t.storeList.pop_front();
                storeIndexErase(t, s);
            }
            if (e.eliminated && e.xprfHeld) {
                e.xprfHeld = false;
                mechs.releaseEliminated();
            }
            if (e.op.isBranch())
                mechs.retireBranch(e.op.taken);

            t.rob.popFront();
            e.valid = false;
            ++t.retired;
            --budget;

            if (t.traceIdx >= t.opsEnd() && t.rob.empty()) {
                // Finished only when the *trace* drained; a sampled-window
                // fence (renameLimit) ending early leaves the context open
                // for the next warm-up/window pass (cpu/warmup.cc).
                if (t.opsEnd() == t.trace->ops.size()) {
                    // Deliver any trailing snoops, then finish the context.
                    deliverSnoops(t, t.trace->ops.size());
                    t.done = true;
                    t.finishCycle = now;
                }
                break;
            }
        }
    }
}

} // namespace constable
