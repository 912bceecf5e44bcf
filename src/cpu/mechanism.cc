#include "cpu/mechanism.hh"

#include "cpu/core_state.hh"

namespace constable {

// ----------------------------------------------------------- MechanismSet

MechanismSet::MechanismSet(const MechanismConfig& mc)
    : ideal_(mc.ideal), constable_(mc.constable), rfp_(mc.rfpLatency)
{
    constableActive_ = mc.constable.enabled;
    constableWrongPath_ = mc.constable.wrongPathUpdates;

    // Canonical priority order: matches the rename-stage gating of the
    // original monolithic core (an oracle claims a load before Constable,
    // Constable before EVES, ... ); ELAR is last and non-exclusive.
    if (mc.ideal.mode != IdealMode::None)
        active_.push_back(&ideal_);
    if (mc.constable.enabled)
        active_.push_back(&constable_);
    if (mc.eves)
        active_.push_back(&eves_);
    if (mc.mrn)
        active_.push_back(&mrn_);
    if (mc.rfp)
        active_.push_back(&rfp_);
    if (mc.elar)
        active_.push_back(&elar_);
}

void
MechanismSet::attach(CoreState& cs)
{
    dispatch([&](auto* m) {
        if constexpr (requires { m->attach(cs); })
            m->attach(cs);
    });
}

void
MechanismSet::exportStats(StatSet& s) const
{
    // Emitted for every configuration (zeros when inactive) so the stat
    // key set -- and thus serialized RunResult bytes -- never depends on
    // which mechanisms are enabled.
    s.set("eves.predictions", static_cast<double>(eves_.eves.predictions));
    s.set("mrn.predictions", static_cast<double>(mrn_.mrn.predictions));
    s.set("mrn.misforwards", static_cast<double>(mrn_.mrn.misforwards));
    s.set("rfp.predictions", static_cast<double>(rfp_.rfp.predictions));
    constable_.engine.exportStats(s);
}

// -------------------------------------------------------- IdealOracleMech

void
IdealOracleMech::renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e,
                            int slot, bool& handled)
{
    (void)cs;
    (void)t;
    (void)slot;
    if (handled || !spec_.stablePcs.count(e.op.pc))
        return;
    if (spec_.mode == IdealMode::Constable) {
        e.idealEliminated = true;
        e.doneAtRename = true;
        e.lbAddr = e.op.effAddr;
        e.lbAddrValid = true;
        e.loadValueDelivered = true;
        e.elimValue = e.op.value;
    } else {
        e.vpApplied = true;
        e.valueAvailable = true;
        if (spec_.mode == IdealMode::StableLvpNoFetch)
            e.noDataFetch = true;
    }
    handled = true;
}

// ---------------------------------------------------------- ConstableMech

void
ConstableMech::attach(CoreState& cs)
{
    if (!engine.config().cvBitPinning) {
        // Constable-AMT-I: private-cache evictions kill AMT tracking.
        cs.memory.setL1EvictHook([this](Addr line, bool dirty) {
            (void)dirty;
            engine.onL1Evict(line);
        });
    }
}

void
ConstableMech::renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e,
                          int slot, bool& handled)
{
    (void)cs;
    (void)t;
    (void)slot;
    if (handled)
        return;
    // Steps 1-3 of Fig 8.
    ElimDecision d = engine.renameLoad(e.op.pc, e.op.addrMode);
    if (d.eliminate) {
        e.eliminated = true;
        e.xprfHeld = true;
        e.doneAtRename = true;
        e.lbAddr = d.addr;
        e.lbAddrValid = true;
        e.loadValueDelivered = true;
        e.elimValue = d.value;
        handled = true;
    } else {
        e.likelyStableMarked = d.likelyStable;
    }
}

void
ConstableMech::loadWriteback(CoreState& cs, ThreadCtx& t, InFlight& e)
{
    // Close the writeback/store race: a store younger than this load may
    // have already generated its (matching) address, so its AMT probe ran
    // before this arm would insert its entry. Arming would eliminate with
    // a value the store is about to change. Probe the SB for resolved
    // younger matching stores and suppress the arm (unresolved ones are
    // caught later by the normal AMT probe at their STA).
    bool armBlocked = false;
    for (size_t i = t.storeList.partitionPoint([&e](const LsqEntry& st) {
             return st.seq <= e.seq;
         });
         i < t.storeList.size(); ++i) {
        const InFlight& st2 = cs.at(t.storeList[i].slot);
        if (st2.storeAddrResolved &&
            lineAddr(st2.op.effAddr) == lineAddr(e.op.effAddr)) {
            armBlocked = true;
            break;
        }
    }
    // Steps 4-6: arm elimination for a likely-stable load.
    bool armed = engine.writebackLoad(e.op.pc, e.op.effAddr, e.op.value,
                                      e.likelyStableMarked && !armBlocked,
                                      e.op.src);
    if (armed && engine.config().cvBitPinning)
        cs.directory.pin(lineAddr(e.op.effAddr));
}

void
ConstableMech::warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc)
{
    (void)fwd_store_pc;
    // In-order functional replay of the rename -> writeback sequence. An
    // elimination would hold its xPRF register only until retire, which in
    // the untimed replay is immediate; a non-eliminated load trains the
    // SLD/AMT exactly as loadWriteback would (the store-buffer race that
    // blocks arming there needs in-flight stores, which do not exist here).
    ElimDecision d = engine.renameLoad(op.pc, op.addrMode);
    if (d.eliminate) {
        engine.releaseEliminated();
        return;
    }
    bool armed = engine.writebackLoad(op.pc, op.effAddr, op.value,
                                      d.likelyStable, op.src);
    if (armed && engine.config().cvBitPinning)
        cs.directory.pin(lineAddr(op.effAddr));
}

void
ConstableMech::squashOp(InFlight& e)
{
    if (e.eliminated && e.xprfHeld)
        engine.releaseEliminated();
}

// --------------------------------------------------------------- EvesMech

void
EvesMech::renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                     bool& handled)
{
    (void)t;
    (void)slot;
    if (handled)
        return;
    ValuePrediction p = eves.predict(e.op.pc);
    eves.notifyRename(e.op.pc);
    e.evesTracked = true;
    if (p.valid) {
        e.vpApplied = true;
        e.valueAvailable = true;
        e.evesPredicted = true;
        e.vpWrong = p.value != e.op.value;
        if (e.vpWrong)
            ++cs.vpWrongByPc[e.op.pc];
        handled = true;
    }
}

void
EvesMech::warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc)
{
    (void)cs;
    (void)fwd_store_pc;
    // Matched notifyRename/train pairs keep E-Stride's in-flight instance
    // accounting balanced through the warm-up.
    eves.notifyRename(op.pc);
    eves.train(op.pc, op.value);
}

void
EvesMech::squashOp(InFlight& e)
{
    if (e.evesTracked)
        eves.abortInflight(e.op.pc);
}

void
EvesMech::retireLoad(InFlight& e)
{
    eves.train(e.op.pc, e.op.value);
}

// ---------------------------------------------------------------- MrnMech

void
MrnMech::renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled)
{
    (void)slot;
    if (handled)
        return;
    MrnPrediction p = mrn.predict(e.op.pc);
    if (!p.valid)
        return;
    const SlotRef* producer = t.lastStoreByPc.find(p.storePc);
    if (!producer || !cs.refValid(*producer))
        return;
    const InFlight& st = cs.at(producer->slot);
    e.vpApplied = true;
    e.valueAvailable = true;
    e.mrnForwarded = true;
    e.vpWrong = st.op.value != e.op.value;
    if (e.vpWrong)
        ++cs.vpWrongByPc[e.op.pc];
    ++mrn.predictions;
    if (e.vpWrong)
        ++mrn.misforwards;
    else
        ++mrn.correctForwards;
    handled = true;
}

void
MrnMech::loadWriteback(CoreState& cs, ThreadCtx& t, InFlight& e)
{
    (void)cs;
    (void)t;
    // Writeback-stage training. EVES/RFP train at commit instead
    // (CVP-style): completion-time training would see out-of-order and
    // replayed instances, which poisons stride learning.
    mrn.train(e.op.pc, e.fwdFromStorePc);
}

void
MrnMech::warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc)
{
    (void)cs;
    mrn.train(op.pc, fwd_store_pc);
}

void
MrnMech::onValueMispredict(InFlight& e)
{
    if (e.mrnForwarded)
        mrn.punish(e.op.pc);
}

// ---------------------------------------------------------------- RfpMech

void
RfpMech::renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                    bool& handled)
{
    (void)t;
    if (handled)
        return;
    RfpPrediction p = rfp.predict(e.op.pc);
    if (!p.valid)
        return;
    e.vpApplied = true;
    e.rfpPredicted = true;
    e.vpWrong = p.addr != e.op.effAddr;
    cs.schedule(slot, EventKind::ValueAvail, latency_);
    handled = true;
}

void
RfpMech::warmupLoad(CoreState& cs, const MicroOp& op, PC fwd_store_pc)
{
    (void)cs;
    (void)fwd_store_pc;
    rfp.train(op.pc, op.effAddr);
}

void
RfpMech::onValueMispredict(InFlight& e)
{
    if (e.rfpPredicted)
        rfp.punish(e.op.pc);
}

void
RfpMech::squashOp(InFlight& e)
{
    if (e.rfpPredicted)
        rfp.abortInflight(e.op.pc);
}

void
RfpMech::retireLoad(InFlight& e)
{
    rfp.train(e.op.pc, e.op.effAddr);
}

// --------------------------------------------------------------- ElarMech

void
ElarMech::renameLoad(CoreState& cs, ThreadCtx& t, InFlight& e, int slot,
                     bool& handled)
{
    (void)cs;
    (void)t;
    (void)slot;
    (void)handled; // non-exclusive: applies even to predicted loads
    if (e.op.addrMode == AddrMode::StackRel && !e.doneAtRename)
        e.elarReady = true;
}

} // namespace constable
