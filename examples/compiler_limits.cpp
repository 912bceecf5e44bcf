/**
 * @file
 * Scenario example: why do global-stable loads exist at all (paper §4.2)?
 * This example hand-builds the paper's two disassembly case studies as
 * micro-traces — 541.leela_r's runtime-constant `s_rng` pointer and
 * 557.xz_r's inlined `rc_shift_low` argument reloads — runs the Load
 * Inspector on them, and shows Constable eliminating what the compiler at
 * -O3 could not. Hand-built traces enter the Experiment API through
 * Suite::fromTraces.
 */

#include <cstdio>

#include "sim/experiment.hh"
#include "trace/builder.hh"

using namespace constable;

namespace {

/** leela-style: a getter for a pointer initialized once (Random::get_Rng):
 *  `mov rax, QWORD PTR [rip+0x1f4ac5]` executes on every call. */
void
emitGetRng(ProgramBuilder& b, Addr s_rng)
{
    b.load(0x432624, RAX, AddrMode::PcRel, s_rng);   // rax = s_rng
    b.alu(0x43262b, RCX, RAX);                       // test/use
    b.branch(0x43262e, false);                       // never null again
}

/** xz-style: inlined rc_shift_low reloading its stack-resident arguments
 *  (`mov rdi, [r15]` / `cmp [rsp+0x8], rdi`) in a do-while loop. */
void
emitRcShiftLow(ProgramBuilder& b, Addr frame, uint64_t& out_pos)
{
    uint8_t rdi = RDI;
    b.load(0x4134cb, rdi, AddrMode::StackRel, frame + 0x0, RSP);  // out ptr
    b.load(0x4134f0, RDX, AddrMode::StackRel, frame + 0x8, RSP);  // out_size
    b.alu(0x4134d9, RAX, rdi, RDX);
    b.store(0x4134dc, AddrMode::RegRel, 0x60000 + (out_pos % 512), 0xff,
            rdi);                                     // out[*out_pos] = ...
    ++out_pos;
    b.branch(0x4134f5, true);                         // loop
}

} // namespace

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);

    ProgramBuilder b(1234, 16);
    Addr s_rng = 0x626ef0;
    b.mem().write(s_rng, 0x7f3210008000ull, 8); // initialized once
    b.mem().write(b.regVal(RSP) + 0x100, 0x60000, 8);
    b.mem().write(b.regVal(RSP) + 0x108, 512, 8);

    uint64_t out_pos = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        emitGetRng(b, s_rng);
        for (int k = 0; k < 3; ++k)
            emitRcShiftLow(b, b.regVal(RSP) + 0x100, out_pos);
        // Unrelated work between calls.
        for (int j = 0; j < 4; ++j)
            b.alu(0x500000 + 4 * j, b.scratch(j), b.scratch(j + 1));
    }

    std::vector<Trace> traces;
    traces.push_back(b.finish("compiler_limits", "Example"));
    Suite suite = Suite::fromTraces(std::move(traces));

    const LoadInspectorResult& insp = suite.inspection(0);
    std::printf("micro-trace from the paper's two -O3 disassembly case "
                "studies: %zu ops\n", suite.trace(0).size());
    std::printf("global-stable loads: %.1f%% of dynamic loads\n",
                100.0 * insp.globalStableFrac());
    std::printf("  PC-relative   (leela s_rng)      : %.1f%%\n",
                100.0 * insp.modeFrac(AddrMode::PcRel));
    std::printf("  stack-relative (xz rc_shift_low) : %.1f%%\n",
                100.0 * insp.modeFrac(AddrMode::StackRel));

    auto res = Experiment("compiler_limits", suite, opts)
                   .add("baseline", mechFor("baseline"))
                   .add("constable", mechFor("constable"))
                   .run();
    const RunResult& base = res.at(0, "baseline");
    const RunResult& cons = res.at(0, "constable");
    std::printf("\nbaseline IPC %.2f -> Constable IPC %.2f "
                "(speedup %.3fx)\n",
                base.ipc(), cons.ipc(),
                res.speedups("constable", "baseline")[0]);
    std::printf("Constable eliminated %.1f%% of the loads the compiler "
                "could not remove\n",
                100.0 * cons.stats.get("loads.eliminated") /
                    cons.stats.get("loads.retired"));
    return 0;
}
