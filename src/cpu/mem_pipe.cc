/**
 * @file
 * The memory pipeline: load AGU + memory-dependence prediction, store
 * address resolution + disambiguation (ordering-violation detection),
 * writeback/completion with the mechanism training hooks, blocked-load
 * replay, and squash recovery.
 */

#include "cpu/core.hh"

namespace constable {

namespace {

/** First 8-byte chunk a byte range [addr, addr+size) touches. */
inline Addr
chunkLo(Addr addr)
{
    return addr >> 3;
}

/** Last chunk of the range (sizes are >= 1, <= 8: at most two chunks). */
inline Addr
chunkHi(Addr addr, unsigned size)
{
    return (addr + size - 1) >> 3;
}

} // namespace

/** Index a store whose address just resolved (STA). */
void
OooCore::storeIndexInsert(ThreadCtx& t, int slot)
{
    const InFlight& st = at(slot);
    for (Addr c = chunkLo(st.op.effAddr);
         c <= chunkHi(st.op.effAddr, st.op.size); ++c)
        t.storeAddrIndex.insert(c, slot);
}

/** Un-index a resolved store leaving the window (retire or squash). */
void
OooCore::storeIndexErase(ThreadCtx& t, int slot)
{
    const InFlight& st = at(slot);
    for (Addr c = chunkLo(st.op.effAddr);
         c <= chunkHi(st.op.effAddr, st.op.size); ++c) {
        bool erased =
            t.storeAddrIndex.eraseIf(c, [slot](int s) { return s == slot; });
        CONSTABLE_ASSERT(erased, "resolved store missing from the index");
    }
}

void
OooCore::onLoadAgu(int slot)
{
    InFlight& e = at(slot);
    ThreadCtx& t = threads[e.tid];
    e.lbAddr = e.op.effAddr;
    e.lbAddrValid = true;

    // Memory dependence prediction: wait only on older unresolved stores in
    // the same store set (aggressive OOO load issue otherwise). Walk the
    // unresolved-store list backward -- it is program-ordered, so the first
    // older same-set hit is exactly the youngest one the old full-SB scan
    // kept -- instead of scanning every in-flight store.
    Ssid lss = storeSets.lookup(e.op.pc);
    int blocking = -1;
    if (lss != kInvalidSsid) {
        for (size_t i = t.unresolvedStores.size(); i-- > 0;) {
            const InFlight& st = at(t.unresolvedStores[i]);
            if (st.seq >= e.seq)
                continue;
            if (storeSets.lookup(st.op.pc) == lss) {
                blocking = t.unresolvedStores[i];
                break;
            }
        }
    }
    // Store-to-load forwarding candidate: the youngest older resolved
    // store overlapping the load's bytes, found through the chunk index
    // (overlapping ranges always share a chunk; a seq maximum makes the
    // probe order irrelevant).
    int fwdStore = -1;
    SeqNum fwdSeq = 0;
    for (Addr c = chunkLo(e.lbAddr); c <= chunkHi(e.lbAddr, e.op.size);
         ++c) {
        t.storeAddrIndex.forEachMatch(c, [&](int sid) {
            const InFlight& st = at(sid);
            if (st.seq >= e.seq ||
                !overlaps(st.op.effAddr, st.op.size, e.lbAddr, e.op.size))
                return;
            if (fwdStore < 0 || st.seq > fwdSeq) {
                fwdStore = sid;
                fwdSeq = st.seq;
            }
        });
    }
    if (blocking >= 0) {
        e.state = OpState::Blocked;
        e.blockingStore = SlotRef{ blocking, at(blocking).gen };
        blockedLoads.push_back(SlotRef{ slot, e.gen });
        return;
    }
    if (fwdStore >= 0) {
        // Store-to-load forwarding from the SB.
        e.fwdFromStorePc = at(fwdStore).op.pc;
        schedule(slot, EventKind::ExecDone, cfg.storeForwardLat);
        return;
    }
    if (e.noDataFetch) {
        // Ideal Stable LVP + data-fetch elimination: stop after the AGU.
        schedule(slot, EventKind::ExecDone, 1);
        return;
    }
    MemAccessResult res = memory.load(e.op.pc, e.op.effAddr);
    schedule(slot, EventKind::ExecDone, std::max(1u, res.latency));
}

void
OooCore::onStaDone(int slot)
{
    InFlight& st = at(slot);
    ThreadCtx& t = threads[st.tid];
    st.storeAddrResolved = true;

    // Move the store from the unresolved list into the address index (it
    // is usually near the back: stores resolve a few cycles after issue).
    bool foundUnresolved = false;
    for (size_t i = t.unresolvedStores.size(); i-- > 0;) {
        if (t.unresolvedStores[i] == slot) {
            t.unresolvedStores.erase(t.unresolvedStores.begin() +
                                     static_cast<ptrdiff_t>(i));
            foundUnresolved = true;
            break;
        }
    }
    CONSTABLE_ASSERT(foundUnresolved,
                     "STA completed for a store absent from "
                     "unresolvedStores: the list diverged from the SB");
    storeIndexInsert(t, slot);

    // Constable step 9: the generated store address probes the AMT and
    // resets the elimination status of matching loads.
    mechs.onStoreAddr(st.op.effAddr);

    // Memory disambiguation: any younger load with a delivered value and an
    // overlapping address violated ordering -> flush from that load. Only
    // loads can match, and loadList is program-ordered, so binary-search to
    // the first load younger than the store instead of walking the ROB.
    CONSTABLE_DCHECK(
        [&] {
            for (size_t i = 1; i < t.loadList.size(); ++i)
                if (t.loadList[i - 1].seq >= t.loadList[i].seq)
                    return false;
            return true;
        }(),
        "loadList not in program order at disambiguation: binary search "
        "would miss violating loads");
    int violSlot = -1;
    for (size_t i = t.loadList.partitionPoint([&](const LsqEntry& l) {
             return l.seq <= st.seq;
         });
         i < t.loadList.size(); ++i) {
        int sid = t.loadList[i].slot;
        InFlight& ld = at(sid);
        if (!ld.lbAddrValid || !ld.loadValueDelivered)
            continue;
        // Oracle eliminations are correct by construction (global-stable
        // loads never change value), so the limit study excludes them from
        // ordering flushes; the retirement golden check still verifies.
        if (ld.idealEliminated)
            continue;
        if (overlaps(st.op.effAddr, st.op.size, ld.lbAddr, ld.op.size)) {
            violSlot = sid;
            ++orderingViolations;
            if (ld.eliminated) {
                ++elimOrderingViolations;
                mechs.onEliminationViolation(ld.op.pc);
            }
            storeSets.merge(ld.op.pc, st.op.pc);
            break;
        }
    }
    if (violSlot >= 0)
        squashFrom(t, t.robPos(violSlot), cfg.branchMispredictPenalty);

    completeOp(slot);
}

void
OooCore::wakeConsumers(InFlight& e)
{
    for (size_t i = 0; i < e.consumers.size(); ++i) {
        const SlotRef r = e.consumers[i];
        if (!refValid(r))
            continue;
        InFlight& c = at(r.slot);
        if (c.state != OpState::WaitDeps || c.pendingSrcs == 0)
            continue;
        if (--c.pendingSrcs == 0)
            addReady(r.slot);
    }
    e.consumers.clear();
}

void
OooCore::completeOp(int slot)
{
    InFlight& e = at(slot);
    ThreadCtx& t = threads[e.tid];
    e.state = OpState::Done;
    e.valueAvailable = true;
    wakeConsumers(e);

    if (e.op.isLoad() && !e.eliminated && !e.idealEliminated) {
        e.loadValueDelivered = true;
        // Mechanism writeback hooks: MRN trains, Constable arms (steps 4-6
        // plus the writeback/store race probe).
        mechs.loadWriteback(*this, t, e);
        // Value-speculation verification.
        if (e.vpApplied && e.vpWrong) {
            ++vpFlushes;
            mechs.onValueMispredict(e);
            // Squash everything younger than the mispredicted load.
            squashFrom(t, t.robPos(slot) + 1, cfg.valueMispredictPenalty);
            e.vpWrong = false;
        }
    }

    if (e.op.cls == OpClass::Branch && refValid(t.pendingBranch) &&
        t.pendingBranch.slot == slot) {
        // Mispredicted branch resolved: redirect after the penalty.
        t.pendingBranch = SlotRef{};
        t.frontendBlockedUntil = now + cfg.branchMispredictPenalty;
        ++fbuBranch;
    }
}

void
OooCore::checkBlockedLoads()
{
    size_t w = 0;
    for (size_t i = 0; i < blockedLoads.size(); ++i) {
        SlotRef r = blockedLoads[i];
        if (!refValid(r))
            continue;
        InFlight& e = at(r.slot);
        if (e.state != OpState::Blocked)
            continue;
        bool storeGone = !refValid(e.blockingStore) ||
                         at(e.blockingStore.slot).storeAddrResolved;
        if (storeGone) {
            e.state = OpState::Issued;
            onLoadAgu(r.slot);
            if (e.state == OpState::Blocked) {
                // Re-blocked on another store; keep it in the list.
                blockedLoads[w++] = SlotRef{ r.slot, e.gen };
            }
            continue;
        }
        blockedLoads[w++] = r;
    }
    blockedLoads.resize(w);
}

void
OooCore::squashFrom(ThreadCtx& t, size_t rob_pos, Cycle restart_delay)
{
    if (rob_pos >= t.rob.size())
        return;
    const InFlight& first = at(t.robSlot(rob_pos));
    size_t firstTraceIdx = first.traceIdx;
    SeqNum firstSeq = first.seq;

    // Every list is program-ordered, so the squashed ops are each list's
    // tail: truncate them all at the first squashed seq.
    auto older = [firstSeq](const LsqEntry& x) { return x.seq < firstSeq; };
    t.loadList.truncate(t.loadList.partitionPoint(older));
    t.storeList.truncate(t.storeList.partitionPoint(older));
    while (!t.unresolvedStores.empty() &&
           at(t.unresolvedStores.back()).seq >= firstSeq)
        t.unresolvedStores.pop_back();

    for (size_t i = t.rob.size(); i-- > rob_pos;) {
        int s = t.robSlot(i);
        InFlight& e = at(s);
        if (e.dstReg != kNoReg)
            t.renameMap[e.dstReg] = e.prevWriter;
        if (e.inRs)
            --rsUsed;
        if (e.state == OpState::Ready)
            removeReady(s);
        if (e.op.isStore() && e.storeAddrResolved)
            storeIndexErase(t, s);
        mechs.squashOp(e);
        e.valid = false;
    }
    t.rob.truncate(rob_pos);

    if (refValid(t.pendingBranch) && at(t.pendingBranch.slot).seq >= firstSeq)
        t.pendingBranch = SlotRef{};

    t.traceIdx = firstTraceIdx;
    t.nextSeq = firstSeq;
    t.frontendBlockedUntil =
        std::max(t.frontendBlockedUntil, now + restart_delay);
    ++fbuSquash;
}

} // namespace constable
