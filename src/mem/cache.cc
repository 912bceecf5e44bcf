#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"
#include "common/logging.hh"

namespace constable {

namespace {

/** Retired tag arrays kept per thread for reuse. Three geometries recur
 *  (L1D/L2/LLC), so the pool reaches steady state after one run; the cap
 *  bounds a thread at a few MB even when tests churn odd sizes. */
constexpr size_t kMaxPooledArrays = 6;

} // namespace

std::vector<Cache::TagArray>&
Cache::arrayPool()
{
    thread_local std::vector<TagArray> pool;
    return pool;
}

Cache::TagArray
Cache::acquireArray(size_t n)
{
    auto& pool = arrayPool();
    // Most recently released first: the pool stays ordered by last use.
    for (size_t i = pool.size(); i-- > 0;) {
        if (pool[i].lines.size() == n) {
            TagArray a = std::move(pool[i]);
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
            CONSTABLE_DCHECK(
                std::all_of(a.lines.begin(), a.lines.end(),
                            [](const Line& l) { return l == Line{}; }) &&
                    std::all_of(a.filledSets.begin(), a.filledSets.end(),
                                [](uint64_t w) { return w == 0; }),
                "pooled tag array is not entirely reset");
            return a;
        }
    }
    return TagArray{ std::vector<Line>(n),
                     std::vector<uint64_t>((n + 63) / 64) };
}

void
Cache::releaseArray()
{
    if (lines.empty())
        return; // moved from
    // Reset the sets insert() filled; every other line is still Line{}.
    for (size_t w = 0; w < filledSets.size(); ++w) {
        for (uint64_t bits = filledSets[w]; bits != 0; bits &= bits - 1) {
            size_t set = w * 64 + static_cast<size_t>(std::countr_zero(bits));
            std::fill_n(lines.begin() +
                            static_cast<std::ptrdiff_t>(set * cfg.ways),
                        cfg.ways, Line{});
        }
        filledSets[w] = 0;
    }
    auto& pool = arrayPool();
    if (pool.size() >= kMaxPooledArrays)
        pool.erase(pool.begin()); // the least recently released
    pool.push_back(TagArray{ std::move(lines), std::move(filledSets) });
}

Cache::Cache(const CacheConfig& cache_cfg) : cfg(cache_cfg)
{
    uint64_t numLines = static_cast<uint64_t>(cfg.sizeKB) * 1024 / kLineBytes;
    if (cfg.ways == 0 || numLines % cfg.ways != 0)
        fatal("Cache " + cfg.name + ": bad geometry");
    sets = static_cast<unsigned>(numLines / cfg.ways);
    if (!std::has_single_bit(sets))
        fatal("Cache " + cfg.name + ": set count must be a power of two");
    setShift = static_cast<unsigned>(std::countr_zero(sets));
    TagArray a = acquireArray(numLines);
    lines = std::move(a.lines);
    filledSets = std::move(a.filledSets);
}

Cache::~Cache()
{
    releaseArray();
}

bool
Cache::lookup(Addr line, bool is_write)
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line& l = lines[set * cfg.ways + w];
        if (l.valid && l.tag == tag) {
            l.lru = ++stamp;
            l.rrpv = 0;
            l.dirty |= is_write;
            ++hits;
            return true;
        }
    }
    ++misses;
    return false;
}

bool
Cache::contains(Addr line) const
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        const Line& l = lines[set * cfg.ways + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

unsigned
Cache::victimWay(unsigned set)
{
    // Prefer an invalid way.
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (!lines[set * cfg.ways + w].valid)
            return w;
    }
    if (cfg.policy == ReplPolicy::LRU) {
        unsigned best = 0;
        uint64_t bestStamp = UINT64_MAX;
        for (unsigned w = 0; w < cfg.ways; ++w) {
            const Line& l = lines[set * cfg.ways + w];
            if (l.lru < bestStamp) {
                bestStamp = l.lru;
                best = w;
            }
        }
        return best;
    }
    // RRIP: evict first line with max RRPV, aging the set until one exists.
    for (;;) {
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (lines[set * cfg.ways + w].rrpv >= 3)
                return w;
        }
        for (unsigned w = 0; w < cfg.ways; ++w)
            ++lines[set * cfg.ways + w].rrpv;
    }
}

void
Cache::insert(Addr line, bool is_write, bool from_prefetch)
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    // Refresh if already present (prefetch racing a demand fill).
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line& l = lines[set * cfg.ways + w];
        if (l.valid && l.tag == tag) {
            l.dirty |= is_write;
            return;
        }
    }
    filledSets[set / 64] |= 1ull << (set % 64);
    unsigned w = victimWay(set);
    Line& l = lines[set * cfg.ways + w];
    if (l.valid) {
        ++evictions;
        if (evictHook) {
            Addr victimLine = (l.tag << setShift) | set;
            evictHook(victimLine, l.dirty);
        }
    }
    l.valid = true;
    l.tag = tag;
    l.dirty = is_write;
    l.lru = ++stamp;
    l.rrpv = from_prefetch ? 3 : 2;
}

std::optional<bool>
Cache::invalidate(Addr line)
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line& l = lines[set * cfg.ways + w];
        if (l.valid && l.tag == tag) {
            l.valid = false;
            return l.dirty;
        }
    }
    return std::nullopt;
}

} // namespace constable
