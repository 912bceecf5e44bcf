#include "trace/fragments.hh"

#include <algorithm>

namespace constable {

// ---------------------------------------------------------------- globals

GlobalConstFragment::GlobalConstFragment(PC pc_base, Addr data_base,
                                         unsigned num_globals,
                                         unsigned mutate_period)
    : Fragment(pc_base, data_base), numGlobals(std::max(1u, num_globals)),
      mutatePeriod(mutate_period)
{
}

void
GlobalConstFragment::setup(ProgramBuilder& b)
{
    // Stable globals at dataBase; one mutable global on its own line.
    for (unsigned i = 0; i < numGlobals; ++i)
        b.mem().write(dataBase + 8 * i, b.rng().next() | 1, 8);
    b.mem().write(dataBase + 0x1000, b.rng().next() | 1, 8);
}

void
GlobalConstFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    // One stable global per burst, round-robin: long inter-occurrence
    // distance per static PC (paper Fig 3d: PC-relative loads mostly 250+).
    unsigned i = rot;
    rot = (rot + 1) % numGlobals;
    uint8_t r = b.scratch(0);
    b.load(pc(2 * i), r, AddrMode::PcRel, dataBase + 8 * i);
    // Dependent chain: the constant feeds real work (index computation,
    // bounds checks), so breaking the load's data dependence matters.
    b.alu(pc(2 * i + 1), b.scratch(1), r);
    b.mul(pc(40 + i), b.scratch(3), b.scratch(1), r);

    // The mutable global: loaded every burst; occasionally overwritten so
    // its loads are not global-stable.
    unsigned base = 2 * numGlobals;
    uint8_t m = b.scratch(2);
    b.load(pc(base), m, AddrMode::PcRel, dataBase + 0x1000);
    b.alu(pc(base + 1), b.scratch(3), m, b.scratch(1));
    if (mutatePeriod && burstCount % mutatePeriod == 0) {
        b.store(pc(base + 2), AddrMode::PcRel, dataBase + 0x1000,
                b.rng().next() | 1);
    }
}

size_t
GlobalConstFragment::maxBurstOps() const
{
    return 6; // two loads, two ALU ops, a multiply, the mutating store
}

// ---------------------------------------------------------------- inlined

InlinedFuncFragment::InlinedFuncFragment(PC pc_base, Addr stack_off,
                                         unsigned num_args,
                                         StoreMode store_mode,
                                         unsigned body_ops)
    : Fragment(pc_base, 0), stackOff(stack_off),
      numArgs(std::clamp(num_args, 1u, 4u)), mode(store_mode),
      bodyOps(body_ops)
{
}

void
InlinedFuncFragment::setup(ProgramBuilder& b)
{
    argVals.resize(numArgs);
    for (unsigned i = 0; i < numArgs; ++i) {
        argVals[i] = b.rng().next() | 1;
        // Initial argument spill: part of pre-trace state, plus one real
        // store so MRN has a producer to learn from.
        Addr a = b.regVal(RSP) + stackOff + 8 * i;
        b.store(pc(60 + i), AddrMode::StackRel, a, argVals[i], RSP);
    }
    // With APX's 32 registers the compiler can keep some args register-
    // resident instead of reloading them from the stack (appendix B).
    if (b.numRegs() == kNumArchRegsApx) {
        unsigned cap = (numArgs + 1) / 2; // register pressure still binds
        for (unsigned i = 0; i < cap; ++i) {
            uint8_t r = b.allocPersistentReg();
            if (r == kNoReg)
                break;
            argRegs.push_back(r);
            b.loadImm(pc(70 + i), r, argVals[i]);
            ++regResident;
        }
    }
}

void
InlinedFuncFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    Addr frame = b.regVal(RSP) + stackOff;

    // Argument reloads: stack-relative loads, or register moves when APX
    // register-residency removed the load.
    for (unsigned i = 0; i < numArgs; ++i) {
        uint8_t r = b.scratch(i);
        if (i < regResident)
            b.move(pc(20 + i), r, argRegs[i]);
        else
            b.load(pc(20 + i), r, AddrMode::StackRel, frame + 8 * i, RSP);
    }
    // Function body.
    for (unsigned j = 0; j < bodyOps; ++j) {
        uint8_t d = b.scratch(j % numArgs);
        if (j % 5 == 4)
            b.mul(pc(30 + j), d, b.scratch(j % 3), b.scratch((j + 1) % 3));
        else
            b.alu(pc(30 + j), d, b.scratch(j % 3), b.scratch((j + 1) % 3));
    }
    // Result spill (changing value; plain store traffic). Lives on its own
    // cacheline of the frame: compilers lay stable argument slots apart
    // from mutable spill slots, which is what keeps the paper's cacheline-
    // granular AMT viable (§6.6).
    b.store(pc(50), AddrMode::StackRel, frame + 0x80,
            b.regVal(b.scratch(0)), RSP);

    // Argument (re-)stores for the NEXT call happen at the tail of the
    // burst, far from the reloads above: the store's address resolves long
    // before the next instance renames, so the AMT reset lands in time
    // (coverage loss, not an ordering-violation storm — §9.3.1).
    if (mode == StoreMode::Silent) {
        for (unsigned i = 0; i < numArgs; ++i)
            b.store(pc(10 + i), AddrMode::StackRel, frame + 8 * i,
                    argVals[i], RSP);
    } else if (mode == StoreMode::Changing) {
        for (unsigned i = 0; i < numArgs; ++i) {
            argVals[i] = b.rng().next() | 1;
            b.store(pc(10 + i), AddrMode::StackRel, frame + 8 * i,
                    argVals[i], RSP);
        }
    }
}

size_t
InlinedFuncFragment::maxBurstOps() const
{
    // Argument reloads, body, result spill, argument re-stores.
    return numArgs + bodyOps + 1 + (mode == StoreMode::Once ? 0 : numArgs);
}

// ----------------------------------------------------------------- object

ObjectFieldFragment::ObjectFieldFragment(PC pc_base, Addr data_base,
                                         unsigned num_fields,
                                         unsigned iters_per_burst,
                                         unsigned rewrite_period,
                                         bool accum_field)
    : Fragment(pc_base, data_base), numFields(std::clamp(num_fields, 1u, 6u)),
      itersPerBurst(std::max(1u, iters_per_burst)),
      rewritePeriod(rewrite_period), accumField(accum_field)
{
}

void
ObjectFieldFragment::setup(ProgramBuilder& b)
{
    objAddr = dataBase;
    // Field 0 of the object is a pointer to a sub-object; the remaining
    // stable fields live in the sub-object. Eliminating the pointer load
    // lets the dependent field loads issue immediately — the load-to-load
    // chain the paper's Fig 2 motivates.
    Addr subObj = dataBase + 0x1000;
    b.mem().write(objAddr, subObj, 8);
    for (unsigned f = 0; f < numFields; ++f)
        b.mem().write(subObj + 8 * f, b.rng().next() | 1, 8);
    // Accumulator field on its own cacheline so its stores don't collide
    // with the stable fields in a cacheline-granular AMT.
    b.mem().write(objAddr + 0x100, 1000, 8);

    baseReg = b.allocPersistentReg();
    if (baseReg == kNoReg)
        baseReg = RBP; // fall back to frame register (never re-written here)
    b.loadImm(pc(63), baseReg, objAddr);
}

void
ObjectFieldFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    if (rewritePeriod && burstCount % rewritePeriod == 0) {
        // Rewrite the base pointer with the same value: loads stay global-
        // stable but the register write resets their elimination (the
        // paper's 23.3% coverage-loss category).
        b.loadImm(pc(62), baseReg, objAddr);
    }
    Addr subObj = dataBase + 0x1000;
    for (unsigned it = 0; it < itersPerBurst; ++it) {
        // Root pointer load: global-stable, register-relative, and on the
        // address-critical path of every field load below.
        uint8_t p = b.scratch(4);
        b.load(pc(60), p, AddrMode::RegRel, objAddr, baseReg);
        // Iteration-local reduction seeded from the pointer: the chain
        // starts at the (eliminable) load, and iterations stay independent
        // so the out-of-order window can overlap them.
        b.alu(pc(61), b.scratch(3), p);
        for (unsigned f = 0; f < numFields; ++f) {
            uint8_t r = b.scratch(f % 3);
            b.load(pc(2 * f), r, AddrMode::RegRel, subObj + 8 * f, p);
            b.alu(pc(2 * f + 1), b.scratch(3), r, b.scratch(3));
        }
        if (accumField && burstCount % 4 == 0 && it == 0) {
            unsigned base = 2 * numFields;
            uint64_t cur = b.mem().read(objAddr + 0x100, 8);
            uint8_t r = b.scratch(0);
            b.load(pc(base), r, AddrMode::RegRel, objAddr + 0x100, baseReg);
            b.alu(pc(base + 1), r, r);
            b.store(pc(base + 2), AddrMode::RegRel, objAddr + 0x100, cur + 7,
                    baseReg);
        }
    }
    // Occasional sub-object field update at the burst tail: objects are not
    // frozen in real programs. Keeps the dependent field loads below the
    // stability threshold (no arm/reset churn on the SLD write ports) while
    // the root pointer stays eliminable; far from the reloads, so the AMT
    // reset lands before the next instance renames.
    {
        unsigned f = static_cast<unsigned>(burstCount % numFields);
        uint8_t q = b.scratch(1);
        b.load(pc(58), q, AddrMode::RegRel, objAddr, baseReg);
        b.store(pc(56), AddrMode::RegRel, subObj + 8 * f,
                b.rng().next() | 1, q);
    }
}

size_t
ObjectFieldFragment::maxBurstOps() const
{
    // Base rewrite, per-iteration root + field loads with their ALU ops,
    // the accumulator triple, the tail field update.
    return 1 + itersPerBurst * (2 + 2 * numFields) + (accumField ? 3 : 0) +
           2;
}

// ------------------------------------------------------------------- call

CallFragment::CallFragment(PC pc_base, unsigned num_params,
                           StoreMode store_mode)
    : Fragment(pc_base, 0), numParams(std::clamp(num_params, 1u, 4u)),
      mode(store_mode)
{
}

void
CallFragment::setup(ProgramBuilder& b)
{
    paramVals.resize(numParams);
    for (unsigned i = 0; i < numParams; ++i)
        paramVals[i] = b.rng().next() | 1;
}

void
CallFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    // Caller: open a frame and pass parameters through the stack.
    b.stackAdj(pc(0), -64);
    Addr frame = b.regVal(RSP);
    for (unsigned i = 0; i < numParams; ++i) {
        if (mode == StoreMode::Changing)
            paramVals[i] = b.rng().next() | 1;
        b.store(pc(1 + i), AddrMode::StackRel, frame + 8 * i, paramVals[i],
                RSP);
    }
    b.jump(pc(8));
    // Callee: reload parameters (store->load pairs MRN can rename) and work.
    for (unsigned i = 0; i < numParams; ++i)
        b.load(pc(16 + i), b.scratch(i), AddrMode::StackRel, frame + 8 * i,
               RSP);
    for (unsigned j = 0; j < 4; ++j)
        b.alu(pc(24 + j), b.scratch(j % 3), b.scratch(j % 2),
              b.scratch((j + 1) % 3));
    b.stackAdj(pc(30), 64);
    b.jump(pc(31));
}

size_t
CallFragment::maxBurstOps() const
{
    // Frame open/close, two jumps, four ALU ops, parameter stores + loads.
    return 8 + 2 * numParams;
}

// ----------------------------------------------------------------- stream

StreamFragment::StreamFragment(PC pc_base, Addr data_base,
                               unsigned footprint_bytes,
                               unsigned elems_per_burst)
    : Fragment(pc_base, data_base),
      footprintBytes(std::max(footprint_bytes, 512u)),
      elemsPerBurst(std::max(1u, elems_per_burst))
{
}

void
StreamFragment::setup(ProgramBuilder& b)
{
    // Fully-initialized input region: unwritten gaps would read as zero and
    // create artificial value predictability.
    for (Addr off = 0; off < footprintBytes; off += 8)
        b.mem().write(dataBase + off, b.rng().next() | 1, 8);
    baseReg = b.allocPersistentReg();
    if (baseReg != kNoReg)
        b.loadImm(pc(63), baseReg, dataBase);
}

void
StreamFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    uint8_t base = baseReg;
    if (base == kNoReg) {
        base = b.scratch(4);
        b.loadImm(pc(62), base, dataBase);
    }
    uint8_t idx = b.scratch(3);
    b.loadImm(pc(0), idx, pos);
    for (unsigned e = 0; e < elemsPerBurst; ++e) {
        uint8_t r = b.scratch(e % 3);
        b.load(pc(1), r, AddrMode::RegRel, dataBase + pos, base, idx);
        // Element-local two-deep dependent work hanging off the load.
        b.alu(pc(2), r, r);
        b.alu(pc(5), b.scratch((e + 1) % 3), r);
        b.store(pc(3), AddrMode::RegRel,
                dataBase + (footprintBytes / 2) + pos / 2,
                b.regVal(r), base, idx);
        pos = (pos + 8) % (footprintBytes / 2);
        b.alu(pc(4), idx, idx); // idx advance (source-register write)
    }
}

size_t
StreamFragment::maxBurstOps() const
{
    return 2 + 5 * elemsPerBurst; // base + index immediates, 5 per element
}

// ---------------------------------------------------------------- strided

StridedValueFragment::StridedValueFragment(PC pc_base, Addr data_base,
                                           unsigned footprint_bytes,
                                           unsigned elems_per_burst)
    : Fragment(pc_base, data_base),
      footprintBytes(std::max(footprint_bytes, 512u)),
      elemsPerBurst(std::max(1u, elems_per_burst))
{
}

void
StridedValueFragment::setup(ProgramBuilder& b)
{
    // Values form an arithmetic sequence over the sweep so the load's value
    // stream is stride-predictable (EVES E-Stride) even though its address
    // changes every instance (Constable cannot eliminate it).
    uint64_t v = 1000;
    for (Addr off = 0; off < footprintBytes; off += 8, v += 7)
        b.mem().write(dataBase + off, v, 8);
    baseReg = b.allocPersistentReg();
    if (baseReg != kNoReg)
        b.loadImm(pc(63), baseReg, dataBase);
}

void
StridedValueFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    uint8_t base = baseReg;
    if (base == kNoReg) {
        base = b.scratch(4);
        b.loadImm(pc(62), base, dataBase);
    }
    uint8_t idx = b.scratch(3);
    b.loadImm(pc(0), idx, pos);
    for (unsigned e = 0; e < elemsPerBurst; ++e) {
        uint8_t r = b.scratch(e % 2);
        b.load(pc(1), r, AddrMode::RegRel, dataBase + pos, base, idx);
        // Element-local dependent pair off the (value-predictable) load.
        b.alu(pc(2), b.scratch(2), r);
        b.alu(pc(3), b.scratch(2), b.scratch(2));
        pos = (pos + 8) % footprintBytes;
        b.alu(pc(4), idx, idx);
    }
}

size_t
StridedValueFragment::maxBurstOps() const
{
    return 2 + 4 * elemsPerBurst; // base + index immediates, 4 per element
}

// ------------------------------------------------------- predictable chase

PredictableChaseFragment::PredictableChaseFragment(PC pc_base,
                                                   Addr data_base,
                                                   unsigned ring_elems,
                                                   unsigned steps_per_burst)
    : Fragment(pc_base, data_base), ringElems(std::max(8u, ring_elems)),
      stepsPerBurst(std::max(1u, steps_per_burst))
{
}

void
PredictableChaseFragment::setup(ProgramBuilder& b)
{
    // Allocation-order list: node i at dataBase + 64*i points to node i+1,
    // so loaded values advance by a constant 64-byte stride until the wrap.
    for (unsigned i = 0; i < ringElems; ++i) {
        Addr node = dataBase + static_cast<Addr>(i) * 64;
        Addr next = dataBase +
                    static_cast<Addr>((i + 1) % ringElems) * 64;
        b.mem().write(node, next, 8);
    }
    ptrReg = b.allocPersistentReg();
    if (ptrReg == kNoReg)
        ptrReg = RBP;
    b.loadImm(pc(63), ptrReg, dataBase);
}

void
PredictableChaseFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    for (unsigned s = 0; s < stepsPerBurst; ++s) {
        Addr cur = b.regVal(ptrReg);
        b.load(pc(0), ptrReg, AddrMode::RegRel, cur, ptrReg); // p = [p]
        b.alu(pc(1), b.scratch(0), ptrReg);
    }
}

size_t
PredictableChaseFragment::maxBurstOps() const
{
    return 2 * stepsPerBurst;
}

// ------------------------------------------------------------------ chase

PointerChaseFragment::PointerChaseFragment(PC pc_base, Addr data_base,
                                           unsigned ring_elems,
                                           unsigned steps_per_burst)
    : Fragment(pc_base, data_base), ringElems(std::max(4u, ring_elems)),
      stepsPerBurst(std::max(1u, steps_per_burst))
{
}

void
PointerChaseFragment::setup(ProgramBuilder& b)
{
    // Shuffled singly-linked ring across the footprint.
    std::vector<Addr> slots(ringElems);
    for (unsigned i = 0; i < ringElems; ++i)
        slots[i] = dataBase + static_cast<Addr>(i) * 64;
    for (unsigned i = ringElems - 1; i > 0; --i)
        std::swap(slots[i], slots[b.rng().below(i + 1)]);
    for (unsigned i = 0; i < ringElems; ++i)
        b.mem().write(slots[i], slots[(i + 1) % ringElems], 8);

    ptrReg = b.allocPersistentReg();
    homeSlot = dataBase + static_cast<Addr>(ringElems) * 64 + 128;
    if (ptrReg == kNoReg) {
        b.mem().write(homeSlot, slots[0], 8);
    } else {
        b.loadImm(pc(63), ptrReg, slots[0]);
    }
}

void
PointerChaseFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    uint8_t p = ptrReg;
    if (p == kNoReg) {
        p = b.scratch(4);
        // Reload the chase pointer from its spill slot (value changes every
        // burst, so this load is not stable).
        b.load(pc(60), p, AddrMode::PcRel, homeSlot);
    }
    for (unsigned s = 0; s < stepsPerBurst; ++s) {
        Addr cur = b.regVal(p);
        b.load(pc(0), p, AddrMode::RegRel, cur, p); // p = [p]
        b.alu(pc(1), b.scratch(0), p);
    }
    if (ptrReg == kNoReg)
        b.store(pc(61), AddrMode::PcRel, homeSlot, b.regVal(p));
}

size_t
PointerChaseFragment::maxBurstOps() const
{
    return 2 + 2 * stepsPerBurst; // spill-slot reload and write-back
}

// ------------------------------------------------------------ accumulator

AccumulatorFragment::AccumulatorFragment(PC pc_base, Addr data_base,
                                         unsigned num_counters)
    : Fragment(pc_base, data_base), numCounters(std::max(1u, num_counters))
{
}

void
AccumulatorFragment::setup(ProgramBuilder& b)
{
    for (unsigned i = 0; i < numCounters; ++i)
        b.mem().write(dataBase + 64 * i, 17 + 13 * i, 8);
}

void
AccumulatorFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    unsigned i = rot;
    rot = (rot + 1) % numCounters;
    Addr a = dataBase + 64 * i;
    uint64_t cur = b.mem().read(a, 8);
    uint8_t r = b.scratch(0);
    // load; add stride; store back. The load's value advances by a fixed
    // stride per instance: E-Stride-predictable, never Constable-stable.
    b.load(pc(3 * i), r, AddrMode::PcRel, a);
    b.alu(pc(3 * i + 1), r, r);
    b.store(pc(3 * i + 2), AddrMode::PcRel, a, cur + 13);
}

size_t
AccumulatorFragment::maxBurstOps() const
{
    return 3;
}

// ---------------------------------------------------------------- branchy

BranchyFragment::BranchyFragment(PC pc_base, unsigned num_branches,
                                 double random_frac)
    : Fragment(pc_base, 0), numBranches(std::max(1u, num_branches)),
      randomFrac(random_frac)
{
}

void
BranchyFragment::setup(ProgramBuilder&)
{
}

void
BranchyFragment::burst(ProgramBuilder& b)
{
    ++burstCount;
    for (unsigned j = 0; j < numBranches; ++j) {
        b.alu(pc(3 * j), b.scratch(j % 3), b.scratch((j + 1) % 3));
        bool taken;
        if (b.rng().uniform() < randomFrac) {
            taken = b.rng().chance(0.5);  // data-dependent: mispredicts
        } else {
            taken = ((burstCount >> (j % 3)) & 1) != 0; // patterned: learned
        }
        b.branch(pc(3 * j + 1), taken);
    }
}

size_t
BranchyFragment::maxBurstOps() const
{
    return 2 * numBranches;
}

} // namespace constable
