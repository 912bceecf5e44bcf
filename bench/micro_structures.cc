/**
 * @file
 * google-benchmark microbenchmarks of Constable's hardware-structure
 * models (SLD lookup/train, RMT insert/drain, AMT insert/invalidate, the
 * end-to-end engine rename path) and of the core's in-flight window
 * structures (the ready-bitmap oldest-first select, the store-buffer chunk
 * index, the LB/SB rings, the event wheel), the cost of setting up and
 * tearing down a core, plus the batch pool's per-job dispatch cost.
 * These gauge simulator throughput (not hardware latency) so regressions in
 * the model's hot paths surface.
 */

#include <benchmark/benchmark.h>

#include "common/flat.hh"
#include "common/rng.hh"
#include "core/constable.hh"
#include "cpu/core.hh"
#include "sim/batch.hh"
#include "sim/mechanisms.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

void
BM_SldLookup(benchmark::State& state)
{
    Sld sld;
    for (PC pc = 0; pc < 512; ++pc)
        sld.train(0x400000 + 4 * pc, 0x1000 + 64 * pc, pc, false);
    PC pc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sld.lookup(0x400000 + 4 * (pc++ % 512)));
    }
}
BENCHMARK(BM_SldLookup);

void
BM_SldTrain(benchmark::State& state)
{
    Sld sld;
    PC pc = 0;
    for (auto _ : state) {
        sld.train(0x400000 + 4 * (pc % 512), 0x1000, 42, false);
        ++pc;
    }
}
BENCHMARK(BM_SldTrain);

void
BM_RmtInsertDrain(benchmark::State& state)
{
    Rmt rmt;
    std::vector<PC> evicted, drained;
    PC pc = 0;
    for (auto _ : state) {
        rmt.insert(RBX, 0x400000 + 4 * (pc++ % 8), evicted);
        if (pc % 8 == 0) {
            rmt.drainOnWrite(RBX, drained);
            benchmark::DoNotOptimize(drained.data());
            benchmark::ClobberMemory();
            evicted.clear();
        }
    }
}
BENCHMARK(BM_RmtInsertDrain);

void
BM_AmtInsertInvalidate(benchmark::State& state)
{
    Amt amt;
    std::vector<PC> evicted, invalidated;
    Addr a = 0;
    for (auto _ : state) {
        amt.insert(0x10000 + 64 * (a % 128), 0x400000 + 4 * (a % 64),
                   evicted);
        if (a % 4 == 3) {
            amt.invalidate(0x10000 + 64 * (a % 128), invalidated);
            benchmark::DoNotOptimize(invalidated.data());
            benchmark::ClobberMemory();
        }
        ++a;
        evicted.clear();
    }
}
BENCHMARK(BM_AmtInsertInvalidate);

void
BM_EngineRenamePath(benchmark::State& state)
{
    ConstableEngine engine;
    // Warm one PC to elimination.
    for (int i = 0; i < 40; ++i) {
        ElimDecision d = engine.renameLoad(0x400000, AddrMode::PcRel);
        if (d.eliminate) {
            engine.releaseEliminated();
            break;
        }
        engine.writebackLoad(0x400000, 0x1000, 42, d.likelyStable,
                             { kNoReg, kNoReg, kNoReg });
    }
    for (auto _ : state) {
        ElimDecision d = engine.renameLoad(0x400000, AddrMode::PcRel);
        benchmark::DoNotOptimize(d);
        if (d.eliminate)
            engine.releaseEliminated();
    }
}
BENCHMARK(BM_EngineRenamePath);

/** Issue-stage select: one ROB ring per thread (512 / threads entries,
 *  nearly full, head mid-ring), a quarter of its ops ready, and up to 5
 *  oldest picked per cycle across threads, then re-readied. */
void
BM_ReadySelect(benchmark::State& state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    const size_t cap = 512 / threads;
    RingIndex rob[2];
    RingBitmap ready[2];
    std::vector<uint64_t> gen[2];
    Rng rng(1);
    uint64_t g = 1;
    for (unsigned t = 0; t < threads; ++t) {
        rob[t].reset(cap);
        ready[t].reset(cap);
        gen[t].assign(cap, 0);
        for (size_t i = 0; i < cap / 2; ++i) { // move the head mid-ring
            rob[t].pushBack();
            rob[t].popFront();
        }
    }
    while (!rob[threads - 1].full()) {
        for (unsigned t = 0; t < threads; ++t) {
            size_t p = rob[t].pushBack();
            gen[t][p] = g++;
            if (rng.below(4) == 0)
                ready[t].set(p);
        }
    }
    auto genOf = [&](unsigned t, size_t p) { return gen[t][p]; };
    std::pair<unsigned, size_t> picked[5];
    for (auto _ : state) {
        RingBitScan scans[2];
        for (unsigned t = 0; t < threads; ++t)
            scans[t] = RingBitScan(ready[t], rob[t]);
        unsigned n = 0;
        for (; n < 5; ++n) {
            int k = oldestScan(scans, threads, genOf);
            if (k < 0)
                break;
            picked[n] = { static_cast<unsigned>(k), scans[k].current() };
            ready[k].clear(scans[k].current());
            scans[k].next();
        }
        for (unsigned i = 0; i < n; ++i)
            ready[picked[i].first].set(picked[i].second);
        benchmark::DoNotOptimize(picked);
    }
}
BENCHMARK(BM_ReadySelect)->Arg(1)->Arg(2);

/** Store-buffer chunk index in steady state: ~2 x 112 live chunk -> slot
 *  entries; each iteration indexes a store (insert), probes a load's chunk
 *  and retires the oldest store (erase). */
void
BM_ChunkIndexInsertProbeErase(benchmark::State& state)
{
    constexpr size_t kLive = 224;
    FlatTable<Addr, int> index(kLive);
    std::vector<Addr> fifo(kLive);
    Rng rng(2);
    auto chunk = [&rng] { return (0x10000 + rng.below(4096) * 8) >> 3; };
    for (size_t i = 0; i < kLive; ++i) {
        fifo[i] = chunk();
        index.insert(fifo[i], static_cast<int>(i));
    }
    size_t head = 0;
    int slot = kLive;
    for (auto _ : state) {
        int oldest = slot - static_cast<int>(kLive);
        index.eraseIf(fifo[head], [oldest](int s) { return s == oldest; });
        fifo[head] = chunk();
        index.insert(fifo[head], slot++);
        head = (head + 1) % kLive;
        int hits = 0;
        index.forEachMatch(chunk(), [&hits](int) { ++hits; });
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_ChunkIndexInsertProbeErase);

/** LB ring: push at rename, pop at retire, and one program-order binary
 *  search (the disambiguation probe) per op, at 240 entries. */
void
BM_RingPushPop(benchmark::State& state)
{
    struct Entry
    {
        int slot;
        uint64_t seq;
    };
    FixedRing<Entry> ring;
    ring.reset(240);
    uint64_t seq = 0;
    while (ring.size() < 200) {
        ring.push_back({ static_cast<int>(seq), seq });
        ++seq;
    }
    for (auto _ : state) {
        ring.push_back({ static_cast<int>(seq), seq });
        ++seq;
        ring.pop_front();
        uint64_t probe = seq - 1 - (seq * 7) % 200;
        benchmark::DoNotOptimize(ring.partitionPoint(
            [probe](const Entry& e) { return e.seq <= probe; }));
    }
}
BENCHMARK(BM_RingPushPop);

/** Event wheel in steady state: each cycle drains its bucket, and every
 *  drained event schedules a successor (mostly 1-6 cycles out, a quarter
 *  up to 300), with 32 events pending. items_per_second counts events. */
void
BM_EventWheel(benchmark::State& state)
{
    EventWheel wheel;
    wheel.reserve(512);
    Rng rng(3);
    auto delay = [&rng] {
        return 1 + (rng.below(4) == 0 ? rng.below(300) : rng.below(6));
    };
    Cycle now = 0;
    for (int i = 0; i < 32; ++i)
        wheel.push(delay(), Event{ 0, i, EventKind::ExecDone });
    int64_t handled = 0;
    for (auto _ : state) {
        ++now;
        wheel.drain(now, [&](const Event& ev) {
            ++handled;
            wheel.push(now + delay(), ev);
        });
    }
    state.SetItemsProcessed(handled);
}
BENCHMARK(BM_EventWheel);

/** Construct and destroy a default core over a 20k-op trace: slot and
 *  ring sizing, the L2/LLC footprint warm-up, mechanism attach, and the
 *  tag arrays' trip through the per-thread pool. */
void
BM_CoreSetup(benchmark::State& state)
{
    Trace trace = generateTrace(smokeSuite(20'000)[0]);
    const CoreConfig core;
    const MechanismConfig mech = mechFor("baseline");
    for (auto _ : state) {
        OooCore sim(core, mech, { &trace });
        benchmark::DoNotOptimize(sim.sampleCursor());
    }
}
BENCHMARK(BM_CoreSetup)->Unit(benchmark::kMicrosecond);

/** Batch-pool dispatch: 1024 empty jobs per ThreadPool::run on a pool of
 *  range(0) workers (the caller included). time_per_job is the claim,
 *  call and completion-wait cost one job adds to a batch. */
void
BM_PoolRun(benchmark::State& state)
{
    constexpr size_t kJobs = 1024;
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state)
        pool.run(kJobs, [](size_t i) { benchmark::DoNotOptimize(i); });
    state.counters["time_per_job"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kJobs),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PoolRun)->Arg(1)->Arg(4)->UseRealTime();

} // namespace
} // namespace constable

BENCHMARK_MAIN();
