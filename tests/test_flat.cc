/**
 * @file
 * Differential tests of the flat hot-path containers (common/flat.hh)
 * against standard-library references, over seeded random operation
 * sequences: FlatTable vs std::unordered_multimap, FixedRing vs std::deque,
 * and the ring-bitmap oldest-first select vs a min-generation heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat.hh"
#include "common/rng.hh"

namespace constable {
namespace {

/** Every value stored under @p key, sorted (the table's probe order and
 *  the multimap's bucket order are both unspecified). */
std::vector<int>
matches(const FlatTable<uint64_t, int>& t, uint64_t key)
{
    std::vector<int> out;
    t.forEachMatch(key, [&](int v) { out.push_back(v); });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<int>
matches(const std::unordered_multimap<uint64_t, int>& m, uint64_t key)
{
    std::vector<int> out;
    auto [lo, hi] = m.equal_range(key);
    for (auto it = lo; it != hi; ++it)
        out.push_back(it->second);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlatTable, MatchesUnorderedMultimapOnRandomOps)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        // A small table with few distinct keys: long clusters, many
        // duplicates, and wrap-around at the array end.
        FlatTable<uint64_t, int> table(6);
        std::unordered_multimap<uint64_t, int> ref;
        const uint64_t keySpace = 4 + seed * 3;
        for (int step = 0; step < 20000; ++step) {
            uint64_t key = rng.below(keySpace);
            unsigned action = static_cast<unsigned>(rng.below(3));
            if (action == 0 && ref.size() < 12) {
                int v = static_cast<int>(rng.below(50));
                table.insert(key, v);
                ref.emplace(key, v);
            } else if (action == 1) {
                int v = static_cast<int>(rng.below(50));
                bool erased =
                    table.eraseIf(key, [v](int x) { return x == v; });
                auto [lo, hi] = ref.equal_range(key);
                auto it = std::find_if(lo, hi, [v](const auto& kv) {
                    return kv.second == v;
                });
                ASSERT_EQ(erased, it != hi) << "seed " << seed;
                if (it != hi)
                    ref.erase(it);
            }
            ASSERT_EQ(table.size(), ref.size());
            ASSERT_EQ(matches(table, key), matches(ref, key))
                << "seed " << seed << " step " << step;
            ASSERT_EQ(table.contains(key), ref.count(key) > 0);
        }
        // Full sweep: every key agrees, and forEach visits exactly the
        // multiset of entries.
        for (uint64_t k = 0; k < keySpace; ++k)
            ASSERT_EQ(matches(table, k), matches(ref, k));
        std::vector<std::pair<uint64_t, int>> all, want(ref.begin(),
                                                        ref.end());
        table.forEach([&](uint64_t k, int v) { all.emplace_back(k, v); });
        std::sort(all.begin(), all.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(all, want);
    }
}

TEST(FlatTable, EraseWrapsTheTableEnd)
{
    FlatTable<uint64_t, int> table(4);
    const size_t last = table.capacity() - 1;
    // Keys homing at the last bucket and at bucket 0: their cluster wraps
    // from the end of the array to its start.
    std::vector<uint64_t> atEnd, atZero;
    for (uint64_t k = 1; atEnd.size() < 3 || atZero.size() < 2; ++k) {
        if (table.bucketOf(k) == last && atEnd.size() < 3)
            atEnd.push_back(k);
        else if (table.bucketOf(k) == 0 && atZero.size() < 2)
            atZero.push_back(k);
    }
    for (int round = 0; round < 3; ++round) {
        // Fill: end-homed keys occupy [last, 0, 1], zero-homed ones are
        // pushed past them to [2, 3].
        for (size_t i = 0; i < atEnd.size(); ++i)
            table.insert(atEnd[i], static_cast<int>(i));
        for (size_t i = 0; i < atZero.size(); ++i)
            table.insert(atZero[i], 10 + static_cast<int>(i));
        // Erase the entry sitting at the array's last bucket: every wrapped
        // entry must shift back across the end and stay findable.
        ASSERT_TRUE(table.eraseIf(atEnd[0], [](int) { return true; }));
        EXPECT_EQ(table.find(atEnd[0]), nullptr);
        for (size_t i = 1; i < atEnd.size(); ++i)
            ASSERT_NE(table.find(atEnd[i]), nullptr) << i;
        for (size_t i = 0; i < atZero.size(); ++i) {
            ASSERT_NE(table.find(atZero[i]), nullptr) << i;
            EXPECT_EQ(*table.find(atZero[i]), 10 + static_cast<int>(i));
        }
        // Drain in a different order; the table must end empty.
        for (size_t i = atZero.size(); i-- > 0;)
            ASSERT_TRUE(table.eraseIf(atZero[i], [](int) { return true; }));
        for (size_t i = 1; i < atEnd.size(); ++i)
            ASSERT_TRUE(table.eraseIf(atEnd[i], [](int) { return true; }));
        EXPECT_TRUE(table.empty());
    }
}

TEST(FlatTable, MapAndSetSemanticsAndGrowth)
{
    FlatTable<uint64_t, uint64_t> counts(2);
    FlatSet<uint64_t> seen(2);
    std::vector<uint64_t> firstSeen;
    Rng rng(99);
    std::unordered_map<uint64_t, uint64_t> ref;
    for (int i = 0; i < 5000; ++i) {
        uint64_t k = rng.below(700) * 64;
        ++counts[k];
        ++ref[k];
        if (seen.insertUnique(k))
            firstSeen.push_back(k);
    }
    EXPECT_EQ(counts.size(), ref.size());
    EXPECT_GE(counts.capacity(), 2 * counts.size());
    for (const auto& [k, n] : ref) {
        ASSERT_NE(counts.find(k), nullptr);
        EXPECT_EQ(*counts.find(k), n);
    }
    // insertUnique reports first occurrences exactly once each.
    EXPECT_EQ(firstSeen.size(), ref.size());
    EXPECT_EQ(seen.size(), ref.size());
}

TEST(FixedRing, MatchesDequeThroughWrapTruncateAndPartition)
{
    for (size_t cap : { 1u, 7u, 64u, 336u }) {
        Rng rng(cap);
        FixedRing<uint64_t> ring;
        ring.reset(cap);
        std::deque<uint64_t> ref;
        uint64_t nextSeq = 0;
        size_t pushes = 0;
        for (int step = 0; step < 20000; ++step) {
            unsigned action = static_cast<unsigned>(rng.below(10));
            if (action < 5 && !ring.full()) {
                ring.push_back(nextSeq);
                ref.push_back(nextSeq++);
                ++pushes;
            } else if (action < 8 && !ring.empty()) {
                ring.pop_front();
                ref.pop_front();
            } else if (action == 8 && !ring.empty()) {
                // Squash: keep a random prefix; younger seqs are reused.
                size_t keep = rng.below(ref.size() + 1);
                ring.truncate(keep);
                ref.resize(keep);
                nextSeq = ref.empty() ? nextSeq : ref.back() + 1;
            } else if (!ring.empty()) {
                uint64_t probe = ref.front() + rng.below(ref.size() + 2);
                size_t pp = ring.partitionPoint(
                    [probe](uint64_t s) { return s <= probe; });
                size_t want = static_cast<size_t>(
                    std::upper_bound(ref.begin(), ref.end(), probe) -
                    ref.begin());
                ASSERT_EQ(pp, want) << "cap " << cap << " step " << step;
            }
            ASSERT_EQ(ring.size(), ref.size());
            ASSERT_EQ(ring.full(), ref.size() == cap);
            for (size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(ring[i], ref[i]) << "cap " << cap;
        }
        EXPECT_GT(pushes, 3 * cap) << "cap " << cap; // the head wrapped
    }
}

TEST(RingIndex, PhysicalAndLogicalPositionsInvert)
{
    RingIndex r;
    r.reset(5);
    for (int i = 0; i < 13; ++i) { // walk the head around the ring
        r.pushBack();
        r.popFront();
    }
    while (!r.full())
        r.pushBack();
    for (size_t i = 0; i < r.size(); ++i) {
        EXPECT_LT(r.phys(i), 5u);
        EXPECT_EQ(r.logical(r.phys(i)), i);
    }
    EXPECT_EQ(r.phys(0), r.head());
}

/**
 * The core's issue select in miniature: per-thread ROB rings whose
 * positions carry globally increasing allocation generations, one ready
 * bitmap per ring, and oldestScan() merging one RingBitScan per ring --
 * checked pop for pop against the min-generation heap with lazy
 * invalidation that the bitmaps replaced.
 */
void
checkSelectMatchesHeap(unsigned threads, size_t cap, uint64_t seed)
{
    struct Thread
    {
        RingIndex rob;
        RingBitmap ready;
        std::vector<uint64_t> gen; ///< per physical position
    };
    std::vector<Thread> th(threads);
    for (Thread& t : th) {
        t.rob.reset(cap);
        t.ready.reset(cap);
        t.gen.assign(cap, 0);
    }
    // Reference: (gen, thread, pos) min-heap; squashed entries stay behind
    // and are skipped when their gen no longer matches the position.
    using Entry = std::tuple<uint64_t, unsigned, size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    std::vector<std::vector<bool>> inHeap(threads,
                                          std::vector<bool>(cap, false));
    uint64_t genCounter = 1;
    Rng rng(seed);
    size_t selected = 0;

    for (int step = 0; step < 20000; ++step) {
        unsigned tid = static_cast<unsigned>(rng.below(threads));
        Thread& t = th[tid];
        unsigned action = static_cast<unsigned>(rng.below(12));
        if (action < 5 && !t.rob.full()) {
            size_t p = t.rob.pushBack();
            t.gen[p] = genCounter++;
            if (rng.chance(0.5)) {
                t.ready.set(p);
                heap.emplace(t.gen[p], tid, p);
                inHeap[tid][p] = true;
            }
        } else if (action < 7 && !t.rob.empty()) {
            // Wake a random waiting op.
            size_t p = t.rob.phys(rng.below(t.rob.size()));
            if (!t.ready.test(p)) {
                t.ready.set(p);
                heap.emplace(t.gen[p], tid, p);
                inHeap[tid][p] = true;
            }
        } else if (action < 9 && !t.rob.empty() &&
                   !t.ready.test(t.rob.head())) {
            t.rob.popFront(); // retire (never a ready op)
        } else if (action == 9 && !t.rob.empty()) {
            // Squash-style tail truncation.
            size_t keep = rng.below(t.rob.size());
            for (size_t i = keep; i < t.rob.size(); ++i) {
                size_t p = t.rob.phys(i);
                t.ready.clear(p);
                inHeap[tid][p] = false;
            }
            t.rob.truncate(keep);
        } else {
            // Issue up to `width` oldest ready ops across all threads.
            unsigned width = static_cast<unsigned>(rng.below(5));
            RingBitScan scans[2];
            for (unsigned i = 0; i < threads; ++i)
                scans[i] = RingBitScan(th[i].ready, th[i].rob);
            auto genOf = [&](unsigned i, size_t p) { return th[i].gen[p]; };
            for (unsigned n = 0; n < width; ++n) {
                int k = oldestScan(scans, threads, genOf);
                // Reference pop with lazy invalidation.
                while (!heap.empty()) {
                    auto [g, ht, hp] = heap.top();
                    if (inHeap[ht][hp] && th[ht].gen[hp] == g)
                        break;
                    heap.pop();
                }
                if (heap.empty()) {
                    ASSERT_EQ(k, -1) << "step " << step;
                    break;
                }
                auto [g, ht, hp] = heap.top();
                heap.pop();
                ASSERT_EQ(k, static_cast<int>(ht)) << "step " << step;
                ASSERT_EQ(scans[k].current(), hp) << "step " << step;
                th[ht].ready.clear(hp);
                inHeap[ht][hp] = false;
                scans[k].next();
                ++selected;
            }
        }
    }
    EXPECT_GT(selected, 1000u);
}

TEST(RingBitScan, OldestFirstSelectMatchesMinGenHeapOneThread)
{
    checkSelectMatchesHeap(1, 64, 1);
    checkSelectMatchesHeap(1, 100, 2);
    checkSelectMatchesHeap(1, 1536, 3);
}

TEST(RingBitScan, OldestFirstSelectMatchesMinGenHeapTwoThreads)
{
    checkSelectMatchesHeap(2, 64, 4);
    checkSelectMatchesHeap(2, 37, 5);
    checkSelectMatchesHeap(2, 256, 6);
}

} // namespace
} // namespace constable
