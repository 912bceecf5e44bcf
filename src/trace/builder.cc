#include "trace/builder.hh"

#include <unordered_map>

#include "common/logging.hh"

namespace constable {

ProgramBuilder::ProgramBuilder(uint64_t seed, unsigned num_arch_regs)
    : rngState(seed), numArchRegs(num_arch_regs), regs(kMaxArchRegs, 0)
{
    if (num_arch_regs != kNumArchRegs && num_arch_regs != kNumArchRegsApx)
        fatal("ProgramBuilder: numArchRegs must be 16 or 32");
    // Callee-saved-flavoured pool first; APX registers extend it.
    persistentPool = { RBX, R12, R13, R14, R15, RSI, RDI, R8, R9 };
    if (num_arch_regs == kNumArchRegsApx) {
        for (uint8_t r = R16; r < R16 + 16; ++r)
            persistentPool.push_back(r);
    }
    regs[RSP] = 0x7fff'ffff'0000ull;
    regs[RBP] = 0x7fff'ffff'0000ull;
}

uint8_t
ProgramBuilder::allocPersistentReg()
{
    if (nextPersistent >= persistentPool.size())
        return kNoReg;
    return persistentPool[nextPersistent++];
}

uint8_t
ProgramBuilder::scratch(unsigned i) const
{
    static const uint8_t pool[] = { RAX, RCX, RDX, R10, R11 };
    return pool[i % 5];
}

uint64_t
ProgramBuilder::regVal(uint8_t r) const
{
    if (r >= kMaxArchRegs)
        panic("regVal: bad register");
    return regs[r];
}

void
ProgramBuilder::writeReg(uint8_t r, uint64_t v)
{
    if (r == kNoReg)
        return;
    if (r >= numArchRegs)
        panic("writeReg: register out of range for this ISA mode");
    regs[r] = v;
}

void
ProgramBuilder::push(MicroOp op)
{
    ops.push_back(op);
}

void
ProgramBuilder::loadImm(PC pc, uint8_t dst, uint64_t value)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Alu;
    op.dst = dst;
    push(op);
    writeReg(dst, value);
}

void
ProgramBuilder::alu(PC pc, uint8_t dst, uint8_t s0, uint8_t s1)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Alu;
    op.dst = dst;
    op.src[0] = s0;
    op.src[1] = s1;
    push(op);
    uint64_t v = Rng::splitmix(regVal(s0 == kNoReg ? 0 : s0) + pc);
    if (s1 != kNoReg)
        v += regVal(s1);
    writeReg(dst, v);
}

void
ProgramBuilder::mul(PC pc, uint8_t dst, uint8_t s0, uint8_t s1)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Mul;
    op.dst = dst;
    op.src[0] = s0;
    op.src[1] = s1;
    push(op);
    writeReg(dst, regVal(s0) * (regVal(s1) | 1));
}

void
ProgramBuilder::div(PC pc, uint8_t dst, uint8_t s0, uint8_t s1)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Div;
    op.dst = dst;
    op.src[0] = s0;
    op.src[1] = s1;
    push(op);
    writeReg(dst, regVal(s0) / (regVal(s1) | 1));
}

void
ProgramBuilder::fp(PC pc, uint8_t dst, uint8_t s0, uint8_t s1)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::FpOp;
    op.dst = dst;
    op.src[0] = s0;
    op.src[1] = s1;
    push(op);
    writeReg(dst, Rng::splitmix(regVal(s0) ^ pc));
}

void
ProgramBuilder::move(PC pc, uint8_t dst, uint8_t src)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Move;
    op.dst = dst;
    op.src[0] = src;
    push(op);
    writeReg(dst, regVal(src));
}

void
ProgramBuilder::zero(PC pc, uint8_t dst)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::ZeroIdiom;
    op.dst = dst;
    push(op);
    writeReg(dst, 0);
}

void
ProgramBuilder::nop(PC pc)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Nop;
    push(op);
}

uint64_t
ProgramBuilder::load(PC pc, uint8_t dst, AddrMode mode, Addr addr,
                     uint8_t base, uint8_t index, uint8_t size)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Load;
    op.addrMode = mode;
    op.dst = dst;
    op.src[0] = base;
    op.src[1] = index;
    op.size = size;
    op.effAddr = addr;
    op.value = image.read(addr, size);
    push(op);
    writeReg(dst, op.value);
    return op.value;
}

void
ProgramBuilder::store(PC pc, AddrMode mode, Addr addr, uint64_t value,
                      uint8_t base, uint8_t index, uint8_t size)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Store;
    op.addrMode = mode;
    op.src[0] = base;
    op.src[1] = index;
    op.size = size;
    op.effAddr = addr;
    op.value = value;
    push(op);
    image.write(addr, value, size);
}

void
ProgramBuilder::branch(PC pc, bool taken)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Branch;
    op.taken = taken;
    push(op);
}

void
ProgramBuilder::jump(PC pc)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Jump;
    op.taken = true;
    push(op);
}

void
ProgramBuilder::stackAdj(PC pc, int64_t delta)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::StackAdj;
    op.dst = RSP;
    op.src[0] = RSP;
    push(op);
    writeReg(RSP, regVal(RSP) + static_cast<uint64_t>(delta));
}

void
ProgramBuilder::snoopHere(Addr addr)
{
    snoops.push_back(SnoopEvent{ ops.size(), addr });
}

Trace
ProgramBuilder::finish(std::string name, std::string category)
{
    Trace t;
    t.name = std::move(name);
    t.category = std::move(category);
    t.numArchRegs = numArchRegs;
    t.ops = std::move(ops);
    t.snoops = std::move(snoops);
    ops.clear();
    snoops.clear();
    return t;
}

std::vector<std::string>
validateTrace(const Trace& trace)
{
    std::vector<std::string> issues;
    // For each register, the index of the last op that wrote it.
    std::vector<int64_t> lastWrite(kMaxArchRegs, -1);
    struct LoadHist { Addr addr; int64_t idx; bool valid = false; };
    std::unordered_map<PC, LoadHist> lastLoad;

    for (size_t i = 0; i < trace.ops.size(); ++i) {
        const MicroOp& op = trace.ops[i];
        if (op.isLoad()) {
            auto& h = lastLoad[op.pc];
            if (h.valid && h.addr != op.effAddr) {
                // Address changed: require a source-register write in
                // between (or the load must have at least one source).
                bool writtenBetween = false;
                for (uint8_t s : op.src) {
                    // ">=" admits a pointer-chase load that writes its own
                    // base register (dst == src): that write is "between"
                    // the two instances in dataflow order.
                    if (s != kNoReg && lastWrite[s] >= h.idx)
                        writtenBetween = true;
                }
                if (!writtenBetween) {
                    issues.push_back(
                        "load pc=" + std::to_string(op.pc) +
                        " changed address without a source-register write" +
                        " at index " + std::to_string(i));
                }
            }
            h.addr = op.effAddr;
            h.idx = static_cast<int64_t>(i);
            h.valid = true;
        }
        if (op.dst != kNoReg)
            lastWrite[op.dst] = static_cast<int64_t>(i);
    }
    return issues;
}

} // namespace constable
