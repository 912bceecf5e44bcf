/**
 * @file
 * ProgramBuilder: the functional half of the synthetic workload generator.
 * Fragments (trace/fragments.hh) call into the builder to emit micro-ops;
 * the builder maintains architectural register values and a memory image so
 * every emitted load carries its architecturally-correct (golden) value.
 *
 * Generator invariant (checked by validateTrace): between two dynamic
 * instances of the same static load PC, the effective address may change
 * only if one of that load's source registers was written in between, and
 * the loaded value may change only through an intervening store. This is
 * exactly the contract Constable's safety argument (paper §5) relies on.
 */

#ifndef CONSTABLE_TRACE_BUILDER_HH
#define CONSTABLE_TRACE_BUILDER_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "isa/microop.hh"
#include "trace/mem_image.hh"
#include "trace/trace.hh"

namespace constable {

/** Emission-side builder for synthetic programs. */
class ProgramBuilder
{
  public:
    ProgramBuilder(uint64_t seed, unsigned num_arch_regs);

    Rng& rng() { return rngState; }
    MemImage& mem() { return image; }
    unsigned numRegs() const { return numArchRegs; }
    size_t numOps() const { return ops.size(); }
    /** Reserve room for @p n ops in total (the trace's final size). */
    void reserveOps(size_t n) { ops.reserve(n); }

    /**
     * Allocate a callee-saved-style register that no other fragment will
     * write. @return kNoReg when the pool is exhausted (more likely with 16
     * architectural registers than with 32 — the APX effect).
     */
    uint8_t allocPersistentReg();

    /** i-th rotating scratch register (shared; any fragment may clobber). */
    uint8_t scratch(unsigned i) const;

    /** Current architectural value of a register. */
    uint64_t regVal(uint8_t r) const;

    // --- emission helpers (each appends exactly one micro-op) ---

    /** Materialize an immediate (models mov r, imm; no source registers). */
    void loadImm(PC pc, uint8_t dst, uint64_t value);

    /** Single-cycle ALU op; result value derived from the sources. */
    void alu(PC pc, uint8_t dst, uint8_t s0, uint8_t s1 = kNoReg);

    /** 3-cycle integer multiply. */
    void mul(PC pc, uint8_t dst, uint8_t s0, uint8_t s1);

    /** Long-latency divide. */
    void div(PC pc, uint8_t dst, uint8_t s0, uint8_t s1);

    /** Floating-point op (vector port group). */
    void fp(PC pc, uint8_t dst, uint8_t s0, uint8_t s1 = kNoReg);

    /** Register-register move (move-eliminable at rename). */
    void move(PC pc, uint8_t dst, uint8_t src);

    /** Zero idiom (xor r,r; eliminated at rename). */
    void zero(PC pc, uint8_t dst);

    void nop(PC pc);

    /**
     * Emit a load. Reads the memory image for the golden value and writes
     * the destination register.
     * @return the loaded value.
     */
    uint64_t load(PC pc, uint8_t dst, AddrMode mode, Addr addr,
                  uint8_t base = kNoReg, uint8_t index = kNoReg,
                  uint8_t size = 8);

    /** Emit a store and update the memory image. */
    void store(PC pc, AddrMode mode, Addr addr, uint64_t value,
               uint8_t base = kNoReg, uint8_t index = kNoReg,
               uint8_t size = 8);

    /** Conditional branch with a concrete outcome. */
    void branch(PC pc, bool taken);

    /** Unconditional direct jump (branch-foldable at rename). */
    void jump(PC pc);

    /** rsp += delta (constant-foldable at rename; writes RSP). */
    void stackAdj(PC pc, int64_t delta);

    /** Queue a snoop to arrive before the next emitted op retires. */
    void snoopHere(Addr addr);

    /** Move the accumulated ops/snoops into a Trace. */
    Trace finish(std::string name, std::string category);

  private:
    void writeReg(uint8_t r, uint64_t v);
    void push(MicroOp op);

    Rng rngState;
    unsigned numArchRegs;
    std::vector<uint64_t> regs;
    MemImage image;
    std::vector<MicroOp> ops;
    std::vector<SnoopEvent> snoops;
    std::vector<uint8_t> persistentPool;
    size_t nextPersistent = 0;
};

/**
 * Check the generator invariant over a whole trace.
 * @return list of human-readable violations (empty when the trace is sound).
 */
std::vector<std::string> validateTrace(const Trace& trace);

} // namespace constable

#endif
