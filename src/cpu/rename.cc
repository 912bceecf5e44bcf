/**
 * @file
 * Frontend of the core: SMT thread selection, wrong-path rename injection,
 * and the allocate/rename stage (structural resource checks, mechanism
 * rename hooks, RAT update with squash checkpoints, dependence capture).
 */

#include "cpu/core.hh"

namespace constable {

unsigned
OooCore::pickThread() const
{
    if (threads.size() == 1)
        return 0;
    // ICOUNT-style: among fetchable threads, fewer in-flight ops wins; a
    // frontend-blocked thread cedes the rename stage to its sibling.
    auto weight = [this](const ThreadCtx& t) -> size_t {
        if (t.done)
            return SIZE_MAX;
        if (now < t.frontendBlockedUntil || refValid(t.pendingBranch))
            return SIZE_MAX - 1;
        return t.rob.size();
    };
    size_t s0 = weight(threads[0]);
    size_t s1 = weight(threads[1]);
    return s0 <= s1 ? 0 : 1;
}

void
OooCore::injectWrongPath(ThreadCtx& t)
{
    if (!mechs.wrongPathMutatesRename())
        return;
    if (t.recentOps.empty())
        return;
    // Wrong-path micro-ops rename (and pollute the RMT/SLD) but are
    // squashed before allocation, so they never hold ROB/RS resources.
    for (unsigned w = 0; w < cfg.renameWidth; ++w) {
        const MicroOp& op = t.recentOps[t.recentIdx++ % t.recentOps.size()];
        if (op.dst != kNoReg)
            sldUpdateTotal += mechs.renameDstWrite(op.dst);
    }
}

bool
OooCore::renameOne(ThreadCtx& t, unsigned& loads_this_cycle,
                   unsigned& sld_updates_this_cycle)
{
    if (t.traceIdx >= t.opsEnd())
        return false;
    const MicroOp& op = t.trace->ops[t.traceIdx];

    // Structural resource checks (allocate stage).
    if (t.rob.full()) {
        ++stallRobFull;
        return false;
    }
    bool classRenameDone =
        op.cls == OpClass::Nop || op.cls == OpClass::Jump ||
        op.cls == OpClass::Move || op.cls == OpClass::ZeroIdiom ||
        op.cls == OpClass::StackAdj;
    if (!classRenameDone && rsUsed >= cfg.rsTotal()) {
        ++stallRsFull;
        return false;
    }
    if (op.isLoad() && t.loadList.full()) {
        ++stallLbFull;
        return false;
    }
    if (op.isStore() && t.storeList.full()) {
        ++stallSbFull;
        return false;
    }

    // SLD read-port constraint: at most 3 load lookups per rename group
    // (§6.7.1); a fourth load stalls the group to the next cycle.
    if (op.isLoad() && mechs.renameLoadGateStall(loads_this_cycle)) {
        ++renameStallsSldRead;
        return false;
    }

    int s = allocSlot(t);
    InFlight& e = at(s);
    e.op = op;
    e.traceIdx = t.traceIdx;
    e.seq = t.nextSeq;
    e.tid = static_cast<ThreadId>(&t - threads.data());
    ++robAllocs;
    ++renamedOps;

    // Branch direction prediction at fetch; jumps are branch-folded.
    bool mispredict = false;
    if (op.cls == OpClass::Branch) {
        bool pred = branchPred.predict(op.pc);
        branchPred.update(op.pc, op.taken);
        mispredict = pred != op.taken;
        if (mispredict)
            ++branchMispredicts;
    }

    if (classRenameDone)
        e.doneAtRename = true;

    if (op.isLoad()) {
        ++loads_this_cycle;
        e.isGsLoad = globalStable.contains(op.pc);
        // Mechanism rename hooks: oracle elimination, Constable steps 1-3,
        // EVES / MRN / RFP value speculation, ELAR address pre-resolution.
        mechs.renameLoad(*this, t, e, s);
    }

    // Register source dependences (rename lookup of the RAT). An op that
    // completed at rename, or whose address the mechanism pre-resolved
    // (ELAR), needs no register sources.
    if (!classRenameDone && !e.doneAtRename && !e.elarReady) {
        for (uint8_t src : op.src) {
            if (src == kNoReg)
                continue;
            SlotRef w = t.renameMap[src];
            if (!refValid(w))
                continue;
            InFlight& p = at(w.slot);
            if (p.state == OpState::Done || p.doneAtRename ||
                p.valueAvailable)
                continue;
            p.consumers.push_back(SlotRef{ s, e.gen });
            ++e.pendingSrcs;
        }
    }

    // Constable steps 7-8: every instruction's destination write drains the
    // RMT and resets listed loads in the SLD; the SLD has 2 write ports, so
    // a third update in one cycle stalls the rename group (§6.7.1).
    bool stopAfterThis = false;
    if (op.dst != kNoReg) {
        unsigned n = mechs.renameDstWrite(op.dst);
        sld_updates_this_cycle += n;
        sldUpdateTotal += n;
        if (sld_updates_this_cycle > mechs.sldWritePortLimit()) {
            ++renameStallsSldWrite;
            stopAfterThis = true;
        }
    }

    // Rename-map update with squash checkpoint.
    e.dstReg = op.dst;
    if (op.dst != kNoReg) {
        e.prevWriter = t.renameMap[op.dst];
        t.renameMap[op.dst] = SlotRef{ s, e.gen };
        // The superseded writer's xPRF register can be reclaimed: its
        // mapping is no longer architecturally visible and all in-flight
        // consumers took their mapping at their own rename.
        if (refValid(e.prevWriter)) {
            InFlight& prev = at(e.prevWriter.slot);
            if (prev.xprfHeld) {
                prev.xprfHeld = false;
                mechs.releaseEliminated();
            }
        }
    }

    // Allocate downstream resources.
    if (!e.doneAtRename) {
        ++rsUsed;
        e.inRs = true;
        ++rsAllocs;
    }
    if (op.isLoad()) {
        // mem_pipe.cc's onStaDone binary-searches loadList by seq, so
        // rename (the only producer) must append in program order.
        CONSTABLE_ASSERT(t.loadList.empty() || t.loadList.back().seq < e.seq,
                         "loadList append out of program order");
        t.loadList.push_back(LsqEntry{ s, e.seq });
    }
    if (op.isStore()) {
        CONSTABLE_ASSERT(t.storeList.empty() ||
                             t.storeList.back().seq < e.seq,
                         "storeList append out of program order");
        CONSTABLE_ASSERT(t.unresolvedStores.empty() ||
                             at(t.unresolvedStores.back()).seq < e.seq,
                         "unresolvedStores append out of program order");
        t.storeList.push_back(LsqEntry{ s, e.seq });
        t.unresolvedStores.push_back(s);
        t.lastStoreByPc[op.pc] = SlotRef{ s, e.gen };
    }

    // Wrong-path template ring.
    if (t.recentOps.size() < 32)
        t.recentOps.push_back(op);
    else
        t.recentOps[e.seq % 32] = op;

    if (e.doneAtRename) {
        e.state = OpState::Done;
        e.valueAvailable = true;
    } else if (e.pendingSrcs == 0) {
        addReady(s);
    }

    ++t.traceIdx;
    ++t.nextSeq;

    if (mispredict) {
        // Frontend redirect: no younger op enters the pipeline until the
        // branch resolves at execute plus the redirect penalty.
        t.pendingBranch = SlotRef{ s, e.gen };
        return false;
    }
    return !stopAfterThis;
}

void
OooCore::renameStage()
{
    unsigned tid = pickThread();
    ThreadCtx& t = threads[tid];
    unsigned loadsThisCycle = 0;
    unsigned sldUpdatesThisCycle = 0;

    bool blocked = t.done || now < t.frontendBlockedUntil ||
                   refValid(t.pendingBranch);
    if (blocked) {
        if (!t.done) {
            ++stallFrontend;
            if (refValid(t.pendingBranch))
                ++stallPendingBranch;
        }
        if (refValid(t.pendingBranch))
            injectWrongPath(t);
    } else {
        unsigned renamed = 0;
        for (unsigned w = 0; w < cfg.renameWidth; ++w) {
            if (!renameOne(t, loadsThisCycle, sldUpdatesThisCycle))
                break;
            ++renamed;
        }
        if (renamed == 0)
            ++renameZeroCycles;
    }
    if (mechs.tracksSldPressure()) {
        sldUpdateHist.add(sldUpdatesThisCycle);
        ++sldUpdateCycles;
    }
}

} // namespace constable
