/**
 * @file
 * Memory-hierarchy substrate tests: cache tag array, replacement,
 * prefetchers, DRAM timing, DTLB, directory and the facade.
 */

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "mem/dtlb.hh"
#include "mem/hierarchy.hh"
#include "mem/prefetcher.hh"

namespace constable {
namespace {

CacheConfig
tinyCache(ReplPolicy pol = ReplPolicy::LRU)
{
    // 4 sets x 2 ways x 64B = 512B.
    CacheConfig c;
    c.name = "tiny";
    c.sizeKB = 1;
    c.ways = 2;
    c.policy = pol;
    return c;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.lookup(0x10, false));
    c.insert(0x10, false);
    EXPECT_TRUE(c.lookup(0x10, false));
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(tinyCache());
    unsigned sets = c.numSets();
    // Three lines mapping to set 0: evict the least recently used.
    c.insert(0 * sets, false);
    c.insert(1 * sets, false);
    c.lookup(0 * sets, false);       // touch line 0: line 1 becomes LRU
    c.insert(2 * sets, false);       // evicts line 1
    EXPECT_TRUE(c.contains(0 * sets));
    EXPECT_FALSE(c.contains(1 * sets));
    EXPECT_TRUE(c.contains(2 * sets));
}

TEST(Cache, EvictHookReportsVictimAndDirty)
{
    Cache c(tinyCache());
    unsigned sets = c.numSets();
    Addr victim = 0;
    bool dirty = false;
    int calls = 0;
    c.setEvictHook([&](Addr line, bool d) {
        victim = line;
        dirty = d;
        ++calls;
    });
    c.insert(0 * sets, true);  // dirty
    c.insert(1 * sets, false);
    c.insert(2 * sets, false); // evicts line 0 (oldest)
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(victim, 0u * sets);
    EXPECT_TRUE(dirty);
}

TEST(Cache, InvalidateReturnsDirtyState)
{
    Cache c(tinyCache());
    c.insert(0x20, true);
    auto r = c.invalidate(0x20);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(*r);
    EXPECT_FALSE(c.contains(0x20));
    EXPECT_FALSE(c.invalidate(0x20).has_value());
}

TEST(Cache, WriteSetsDirty)
{
    Cache c(tinyCache());
    c.insert(0x30, false);
    c.lookup(0x30, true);
    auto r = c.invalidate(0x30);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(*r);
}

TEST(Cache, RripPrefetchInsertsEvictFirst)
{
    Cache c(tinyCache(ReplPolicy::RRIP));
    unsigned sets = c.numSets();
    c.insert(0 * sets, false);             // demand: rrpv 2
    c.insert(1 * sets, false, true);       // prefetch: rrpv 3 (distant)
    c.insert(2 * sets, false);             // evicts the prefetch
    EXPECT_TRUE(c.contains(0 * sets));
    EXPECT_FALSE(c.contains(1 * sets));
}

CacheConfig
cache64K(unsigned ways, ReplPolicy pol)
{
    CacheConfig c;
    c.name = "c64k";
    c.sizeKB = 64;
    c.ways = ways;
    c.policy = pol;
    return c;
}

/** What a cache reports over an access sequence. */
struct CacheOutcome
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    std::vector<std::pair<Addr, bool>> evicted; ///< evict-hook calls
};

/** A seeded mix of lookups, demand and prefetch inserts and invalidations
 *  over four times the cache's line count. One step in ten empties a
 *  set and refills part of it. With @p prefetch_only_odd_sets, demand
 *  inserts go to even sets only, so odd sets are filled by prefetches
 *  alone. */
CacheOutcome
churn(Cache& c, uint64_t seed, size_t steps, bool prefetch_only_odd_sets)
{
    CacheOutcome out;
    c.setEvictHook([&out](Addr line, bool dirty) {
        out.evicted.push_back({ line, dirty });
    });
    const Addr sets = c.numSets();
    const Addr span = 4 * sets * c.config().ways;
    Rng rng(seed);
    for (size_t i = 0; i < steps; ++i) {
        Addr line = rng.below(span);
        bool write = rng.below(4) == 0;
        switch (rng.below(10)) {
          case 0: case 1: case 2: case 3:
            c.lookup(line, write);
            break;
          case 4: case 5:
            if (prefetch_only_odd_sets)
                line &= ~Addr{ 1 };
            c.insert(line, write);
            break;
          case 6: case 7:
            c.insert(line, write, /*from_prefetch=*/true);
            break;
          case 8:
            c.invalidate(line);
            break;
          default: {
            Addr set = line % sets;
            for (Addr tag = 0; tag < span / sets; ++tag)
                c.invalidate(tag * sets + set);
            for (unsigned k = 0; k < c.config().ways / 2; ++k)
                c.insert(rng.below(span / sets) * sets + set, write,
                         k % 2 == 1 ||
                             (prefetch_only_odd_sets && set % 2 == 1));
            break;
          }
        }
    }
    out.hits = c.hits;
    out.misses = c.misses;
    out.evictions = c.evictions;
    return out;
}

TEST(Cache, RecycledArrayMatchesFresh)
{
    // A cache's tag array goes back to this thread's pool when it dies and
    // must come back indistinguishable from a new one, whatever geometry
    // takes it next.
    for (ReplPolicy pol : { ReplPolicy::LRU, ReplPolicy::RRIP }) {
        {
            Cache dirty(cache64K(8, pol));
            CacheOutcome first = churn(dirty, 11, 40'000, true);
            ASSERT_GT(first.evictions, 0u);
        }
        // The most recently released array of this line count: the one
        // the churn above filled.
        Cache recycled(cache64K(16, pol));
        CacheOutcome got = churn(recycled, 23, 40'000, false);
        CacheOutcome want;
        // A new thread's pool is empty: a freshly allocated array.
        std::thread([&want, pol] {
            Cache fresh(cache64K(16, pol));
            want = churn(fresh, 23, 40'000, false);
        }).join();
        EXPECT_GT(want.evictions, 0u);
        EXPECT_EQ(got.hits, want.hits);
        EXPECT_EQ(got.misses, want.misses);
        EXPECT_EQ(got.evictions, want.evictions);
        EXPECT_TRUE(got.evicted == want.evicted)
            << "evict-hook sequences differ (" << got.evicted.size()
            << " vs " << want.evicted.size() << " calls)";
    }
}

TEST(Prefetch, StrideDetectsAfterTraining)
{
    StridePrefetcher p;
    std::vector<Addr> out;
    for (int i = 0; i < 4; ++i) {
        out.clear();
        p.observe(0x100, 0x1000 + 64 * i, out);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 0x1000u + 64 * 3 + 64);
}

TEST(Prefetch, StrideIgnoresRandom)
{
    StridePrefetcher p;
    std::vector<Addr> out;
    Addr addrs[] = { 0x1000, 0x5020, 0x2310, 0x8fa8, 0x1458 };
    for (Addr a : addrs) {
        out.clear();
        p.observe(0x100, a, out);
    }
    EXPECT_TRUE(out.empty());
}

TEST(Prefetch, StreamerFollowsDirection)
{
    StreamerPrefetcher p;
    std::vector<Addr> out;
    p.observe(0x10000, out);
    p.observe(0x10040, out);
    out.clear();
    p.observe(0x10080, out); // two increasing steps: direction up
    ASSERT_FALSE(out.empty());
    EXPECT_GT(out[0], 0x10080u);
}

TEST(Prefetch, SppLearnsDeltaChain)
{
    SppPrefetcher p;
    std::vector<Addr> out;
    for (int i = 0; i < 12; ++i) {
        out.clear();
        p.observe(0x20000 + 128 * i, out); // delta of 2 lines within page
    }
    EXPECT_FALSE(out.empty());
}

TEST(Dram, RowHitFasterThanMiss)
{
    Dram d;
    unsigned first = d.access(0x10000);     // row miss
    unsigned second = d.access(0x10000);    // same row: hit
    EXPECT_GT(first, second);
    EXPECT_EQ(d.rowMisses, 1u);
    EXPECT_EQ(d.rowHits, 1u);
}

TEST(Dram, LatenciesMatchConfig)
{
    DramConfig cfg;
    Dram d(cfg);
    unsigned miss = d.access(0x40000);
    EXPECT_EQ(miss, cfg.tRp + cfg.tRcd + cfg.tCas + cfg.busTransfer);
    unsigned hit = d.access(0x40000);
    EXPECT_EQ(hit, cfg.tCas + cfg.busTransfer);
}

TEST(Dtlb, MissThenHit)
{
    Dtlb t(64, 4, 20);
    EXPECT_EQ(t.access(0x123456), 20u);
    EXPECT_EQ(t.access(0x123456 + 8), 0u); // same page
    EXPECT_EQ(t.misses, 1u);
    EXPECT_EQ(t.hits, 1u);
}

TEST(Directory, PinAndSnoop)
{
    Directory d;
    d.pin(0x55);
    EXPECT_TRUE(d.isPinned(0x55));
    d.pin(0x55); // idempotent
    EXPECT_EQ(d.numPinned(), 1u);
    d.snoopDelivered(0x55);
    EXPECT_FALSE(d.isPinned(0x55));
    EXPECT_EQ(d.snoopsDelivered, 1u);
}

TEST(Hierarchy, LatencyOrderingAcrossLevels)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    MemHierarchy m(cfg);
    unsigned dramLat = m.load(0x1, 0x100000).latency; // cold: DRAM
    unsigned l1Lat = m.load(0x1, 0x100000).latency;   // now in L1
    EXPECT_GT(dramLat, l1Lat);
    EXPECT_GE(l1Lat, cfg.l1d.latency);
}

TEST(Hierarchy, WarmLineServesFromL2)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    MemHierarchy m(cfg);
    m.warmLine(lineAddr(0x200000));
    MemAccessResult r = m.load(0x1, 0x200000);
    EXPECT_EQ(static_cast<int>(r.level), static_cast<int>(MemLevel::L2));
}

TEST(Hierarchy, SnoopInvalidatesEverywhere)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    MemHierarchy m(cfg);
    m.load(0x1, 0x300000);
    m.snoop(0x300000);
    MemAccessResult r = m.load(0x1, 0x300000);
    EXPECT_EQ(static_cast<int>(r.level), static_cast<int>(MemLevel::Dram));
}

TEST(Hierarchy, CountsReadsAndWrites)
{
    MemHierarchy m;
    m.load(0x1, 0x1000);
    m.store(0x2, 0x2000);
    m.store(0x2, 0x2000);
    EXPECT_EQ(m.l1dReads, 1u);
    EXPECT_EQ(m.l1dWrites, 2u);
    StatSet s;
    m.exportStats(s);
    EXPECT_DOUBLE_EQ(s.get("mem.l1d.reads"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("mem.l1d.writes"), 2.0);
}

TEST(Hierarchy, L1EvictHookFires)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    cfg.l1d.sizeKB = 1;   // 16 lines: easy to overflow
    cfg.l1d.ways = 2;
    MemHierarchy m(cfg);
    int evictions = 0;
    m.setL1EvictHook([&](Addr, bool) { ++evictions; });
    for (Addr a = 0; a < 64 * 64; a += 64)
        m.load(0x1, 0x400000 + a);
    EXPECT_GT(evictions, 0);
}

} // namespace
} // namespace constable
