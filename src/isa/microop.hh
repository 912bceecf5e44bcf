/**
 * @file
 * Dynamic micro-op record: the unit of the trace and of every pipeline
 * structure. A trace entry carries both the static description (PC, op
 * class, registers, addressing mode) and the golden functional outcome
 * (effective address, loaded/stored value, branch direction) so the timing
 * model can perform the paper's retirement golden check (§8.5).
 */

#ifndef CONSTABLE_ISA_MICROOP_HH
#define CONSTABLE_ISA_MICROOP_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/types.hh"
#include "isa/reg.hh"

namespace constable {

/** Functional classes of micro-ops modeled by the core. */
enum class OpClass : uint8_t {
    Alu,        ///< single-cycle integer op
    Mul,        ///< 3-cycle integer multiply
    Div,        ///< long-latency divide
    FpOp,       ///< floating-point arithmetic (vector ports 0/1/5)
    Load,       ///< memory read (AGU + load port + L1D)
    Store,      ///< memory write (STA + STD ports)
    Branch,     ///< conditional/indirect control flow
    Jump,       ///< unconditional direct branch (foldable)
    Move,       ///< reg-reg move (eliminable at rename)
    ZeroIdiom,  ///< xor r,r / mov r,0 (eliminable at rename)
    StackAdj,   ///< rsp +/- imm (constant-foldable at rename)
    Nop,
};

/** Addressing mode of a memory micro-op, following the paper's taxonomy. */
enum class AddrMode : uint8_t {
    None,      ///< not a memory op
    PcRel,     ///< rip-relative (global-scope data)
    StackRel,  ///< RSP/RBP-based (stack segment)
    RegRel,    ///< any other general-purpose base register
};

/** Printable op-class name. */
std::string opClassName(OpClass c);
/** Printable addressing-mode name. */
std::string addrModeName(AddrMode m);

/**
 * One dynamic micro-op: a 32-byte trivially copyable record, so a trace
 * costs 32 B per op in memory and the trace-cache file stores the same
 * record (trace/serialize.hh). The eight byte-wide fields fill the 8 bytes
 * between the PC and the two 8-byte-aligned golden values, leaving no
 * padding.
 */
struct MicroOp
{
    PC pc = 0;
    OpClass cls = OpClass::Nop;
    AddrMode addrMode = AddrMode::None;

    /** Source architectural registers (kNoReg when absent). For loads these
     *  are the address-generation sources — exactly the registers the RMT
     *  must monitor (Condition 1). */
    std::array<uint8_t, 3> src { kNoReg, kNoReg, kNoReg };
    /** Destination architectural register (kNoReg when absent). */
    uint8_t dst = kNoReg;

    /** Memory access size in bytes (loads/stores). */
    uint8_t size = 8;

    /** Branch outcome. */
    bool taken = false;

    /** Golden effective address (loads/stores). */
    Addr effAddr = 0;
    /** Golden data value: value loaded, or value stored. */
    uint64_t value = 0;

    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const
    {
        return cls == OpClass::Branch || cls == OpClass::Jump;
    }

    /** Number of valid source registers. */
    unsigned
    numSrcs() const
    {
        unsigned n = 0;
        for (uint8_t s : src)
            if (s != kNoReg)
                ++n;
        return n;
    }

    /** Debug rendering. */
    std::string str() const;
};

static_assert(sizeof(MicroOp) == 32 && std::is_trivially_copyable_v<MicroOp>,
              "MicroOp is the 32-byte trace record");

} // namespace constable

#endif
