/**
 * @file
 * Code fragments composed by the workload generator. Each fragment models
 * one empirically-observed source of (non-)stable load behaviour from the
 * paper's §4.1-4.2 characterization:
 *
 *  - GlobalConstFragment: PC-relative loads of runtime constants
 *    (541.leela_r s_rng example) — global-stable, long reuse distance.
 *  - InlinedFuncFragment: stack-relative loads of inlined-function argument
 *    slots (557.xz_r rc_shift_low example) — global-stable when the args are
 *    stored once; blocked by silent stores when re-stored with equal values.
 *  - ObjectFieldFragment: register-relative loads of immutable object fields
 *    in tight loops — global-stable, short reuse distance; a base-pointer
 *    rewrite models the "source register written" coverage-loss category.
 *  - CallFragment: non-inlined calls whose parameter stores/loads exercise
 *    Memory Renaming and RSP adjustment (resets stack-load elimination).
 *  - StreamFragment / StridedValueFragment / PointerChaseFragment /
 *    AccumulatorFragment: non-stable load populations (streaming, value-
 *    stride-predictable, dependent-chain, read-modify-write).
 *  - BranchyFragment: patterned + random branches for wrong-path behaviour.
 */

#ifndef CONSTABLE_TRACE_FRAGMENTS_HH
#define CONSTABLE_TRACE_FRAGMENTS_HH

#include <memory>
#include <vector>

#include "trace/builder.hh"

namespace constable {

/** How an InlinedFuncFragment / CallFragment treats its argument slots. */
enum class StoreMode : uint8_t {
    Once,       ///< stored at setup only: loads are global-stable & eliminable
    Silent,     ///< re-stored every call with identical values (silent stores)
    Changing,   ///< re-stored with fresh values: loads are not stable
};

/** Base class for all code fragments. */
class Fragment
{
  public:
    Fragment(PC pc_base, Addr data_base)
        : pcBase(pc_base), dataBase(data_base) {}
    virtual ~Fragment() = default;

    /** One-time initialization (memory image, persistent registers). */
    virtual void setup(ProgramBuilder& b) = 0;

    /** Emit one burst (a call / loop iteration / stream chunk). */
    virtual void burst(ProgramBuilder& b) = 0;

    /** Upper bound on the ops one burst() emits (generateTrace sizes its
     *  op vector with it). */
    virtual size_t maxBurstOps() const = 0;

  protected:
    PC pc(unsigned i) const { return pcBase + 4 * i; }

    PC pcBase;
    Addr dataBase;
    uint64_t burstCount = 0;
};

/** PC-relative loads of runtime constants. */
class GlobalConstFragment : public Fragment
{
  public:
    GlobalConstFragment(PC pc_base, Addr data_base, unsigned num_globals,
                        unsigned mutate_period);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned numGlobals;
    unsigned mutatePeriod;   ///< 0 = never store to the mutable global
    unsigned rot = 0;
};

/** Stack-relative loads of inlined-function argument slots. */
class InlinedFuncFragment : public Fragment
{
  public:
    InlinedFuncFragment(PC pc_base, Addr stack_off, unsigned num_args,
                        StoreMode mode, unsigned body_ops);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    Addr stackOff;
    unsigned numArgs;
    StoreMode mode;
    unsigned bodyOps;
    std::vector<uint64_t> argVals;
    /** With 32 architectural registers (APX), args the compiler could keep
     *  in registers: indexes < regResident use moves instead of loads. */
    unsigned regResident = 0;
    std::vector<uint8_t> argRegs;
};

/** Register-relative loads of immutable object fields in a tight loop. */
class ObjectFieldFragment : public Fragment
{
  public:
    ObjectFieldFragment(PC pc_base, Addr data_base, unsigned num_fields,
                        unsigned iters_per_burst, unsigned rewrite_period,
                        bool accum_field);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned numFields;
    unsigned itersPerBurst;
    unsigned rewritePeriod;  ///< 0 = base register never rewritten
    bool accumField;
    uint8_t baseReg = kNoReg;
    Addr objAddr = 0;
};

/** Non-inlined call: parameter stores + loads (MRN-friendly), RSP adjust. */
class CallFragment : public Fragment
{
  public:
    CallFragment(PC pc_base, unsigned num_params, StoreMode mode);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned numParams;
    StoreMode mode;
    std::vector<uint64_t> paramVals;
};

/** Streaming loads/stores over a large array (non-stable addresses). */
class StreamFragment : public Fragment
{
  public:
    StreamFragment(PC pc_base, Addr data_base, unsigned footprint_bytes,
                   unsigned elems_per_burst);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned footprintBytes;
    unsigned elemsPerBurst;
    uint8_t baseReg = kNoReg;
    uint64_t pos = 0;
};

/** Loads whose values follow an arithmetic stride (EVES-predictable). */
class StridedValueFragment : public Fragment
{
  public:
    StridedValueFragment(PC pc_base, Addr data_base, unsigned footprint_bytes,
                         unsigned elems_per_burst);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned footprintBytes;
    unsigned elemsPerBurst;
    uint8_t baseReg = kNoReg;
    uint64_t pos = 0;
};

/**
 * Dependent pointer chase over a ring laid out in allocation order: each
 * node points to the next at a fixed byte stride, so the loaded pointer
 * values form an arithmetic sequence. A value predictor (EVES E-Stride)
 * breaks the serialized chain completely; Constable cannot, because the
 * load's address changes every instance. This is the classic LVP win the
 * paper's EVES comparison relies on.
 */
class PredictableChaseFragment : public Fragment
{
  public:
    PredictableChaseFragment(PC pc_base, Addr data_base, unsigned ring_elems,
                             unsigned steps_per_burst);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned ringElems;
    unsigned stepsPerBurst;
    uint8_t ptrReg = kNoReg;
};

/** Dependent pointer chase over a shuffled ring (latency-bound). */
class PointerChaseFragment : public Fragment
{
  public:
    PointerChaseFragment(PC pc_base, Addr data_base, unsigned ring_elems,
                         unsigned steps_per_burst);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned ringElems;
    unsigned stepsPerBurst;
    uint8_t ptrReg = kNoReg;
    Addr homeSlot = 0;       ///< spill slot when no persistent reg available
};

/** Read-modify-write memory accumulator (value stride: EVES-friendly). */
class AccumulatorFragment : public Fragment
{
  public:
    AccumulatorFragment(PC pc_base, Addr data_base, unsigned num_counters);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned numCounters;
    unsigned rot = 0;
};

/** Patterned + random conditional branches. */
class BranchyFragment : public Fragment
{
  public:
    BranchyFragment(PC pc_base, unsigned num_branches, double random_frac);
    void setup(ProgramBuilder& b) override;
    void burst(ProgramBuilder& b) override;
    size_t maxBurstOps() const override;

  private:
    unsigned numBranches;
    double randomFrac;
};

} // namespace constable

#endif
