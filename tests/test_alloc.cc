/**
 * @file
 * Allocation budget of one simulated cell. This binary replaces the global
 * operator new/delete with counting versions (which is why it is its own
 * test binary) and counts the calls one runTrace makes after a warm-up
 * cell on the same thread: the core's constructor, its run and its
 * destruction. The tag arrays come from the per-thread pool and the event
 * wheel is one slab reserved up front, so a cell's allocations are the
 * handful its structures make once, not thousands of bucket and array
 * growths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace {

std::atomic<uint64_t> gNewCalls { 0 };

void*
countedAlloc(std::size_t n)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void*
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    auto a = static_cast<std::size_t>(al);
    return std::aligned_alloc(a, (n + a - 1) / a * a);
}

} // namespace

void*
operator new(std::size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    if (void* p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t al)
{
    if (void* p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace constable {
namespace {

/** A cell's allocation budget. The count is in the hundreds (the run's
 *  StatSet keys, the mechanisms' tables, the core's fixed structures);
 *  one allocation per wheel-bucket growth or per tag-array fill would
 *  reach thousands. */
constexpr uint64_t kCellNewBudget = 1000;

/** operator new calls of one 20k-op cell of @p preset, after a warm-up
 *  cell of the same shape on this thread. */
uint64_t
cellNewCalls(const char* preset)
{
    Trace trace = generateTrace(smokeSuite(20'000)[0]);
    SystemConfig cfg { CoreConfig{}, mechFor(preset) };
    RunResult warm = runTrace(trace, cfg);
    EXPECT_GT(warm.instructions, 0u);

    uint64_t before = gNewCalls.load(std::memory_order_relaxed);
    RunResult r = runTrace(trace, cfg);
    uint64_t calls = gNewCalls.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(r.cycles, warm.cycles) << preset;
    std::printf("%s: %llu operator new calls per cell\n", preset,
                static_cast<unsigned long long>(calls));
    return calls;
}

TEST(Alloc, BaselineCellStaysUnderBudget)
{
    EXPECT_LT(cellNewCalls("baseline"), kCellNewBudget);
}

TEST(Alloc, EvesConstableCellStaysUnderBudget)
{
    EXPECT_LT(cellNewCalls("eves+constable"), kCellNewBudget);
}

} // namespace
} // namespace constable
