/**
 * @file
 * Generic set-associative cache tag array with pluggable replacement.
 * Timing is owned by the hierarchy facade; this class models presence,
 * recency and evictions (the latter feed the Constable-AMT-I variant and
 * the directory CV-bit logic).
 */

#ifndef CONSTABLE_MEM_CACHE_HH
#define CONSTABLE_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace constable {

/** Replacement policies used across the hierarchy (Table 2). */
enum class ReplPolicy : uint8_t {
    LRU,
    RRIP,   ///< re-reference interval prediction (dead-block-aware stand-in)
};

/** Cache geometry + behaviour configuration. */
struct CacheConfig
{
    std::string name = "cache";
    unsigned sizeKB = 48;
    unsigned ways = 12;
    unsigned latency = 5;          ///< round-trip hit latency in cycles
    ReplPolicy policy = ReplPolicy::LRU;
};

/**
 * Set-associative tag array over 64-byte lines.
 * Eviction notifications carry the victim line address and its dirty bit.
 */
class Cache
{
  public:
    using EvictHook = std::function<void(Addr line, bool dirty)>;

    explicit Cache(const CacheConfig& cfg);
    ~Cache();

    /** The tag array comes from a per-thread pool of arrays that are
     *  entirely reset (every line Line{}), matched by exact line count,
     *  and goes back on destruction. Every line that can differ from
     *  Line{} got there through insert(), which records its set; the
     *  destructor resets only those sets, so a cell pays for the sets it
     *  filled, not for the array's size. A Cache may be destroyed on any
     *  thread: its array then joins that thread's pool. Copies are
     *  deleted; moves keep the array and leave the source empty. */
    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;
    Cache(Cache&&) = default;
    Cache& operator=(Cache&&) = default;

    /** Probe for a line; updates recency on hit. @param line line address. */
    bool lookup(Addr line, bool is_write);

    /** Probe without recency update or stats. */
    bool contains(Addr line) const;

    /**
     * Fill a line (allocate-on-miss). Evicts a victim if the set is full
     * and calls the eviction hook.
     * @param from_prefetch fills from prefetchers get distant RRIP ages.
     */
    void insert(Addr line, bool is_write, bool from_prefetch = false);

    /** Invalidate a line if present (snoop); @return was present+dirty. */
    std::optional<bool> invalidate(Addr line);

    void setEvictHook(EvictHook hook) { evictHook = std::move(hook); }

    const CacheConfig& config() const { return cfg; }
    unsigned numSets() const { return sets; }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;

  private:
    /** Packed to 24 bytes: the tag array is scanned way-by-way, so line
     *  size is probe cost. */
    struct Line
    {
        Addr tag = 0;
        uint64_t lru = 0;     ///< recency stamp (LRU)
        uint8_t rrpv = 3;     ///< re-reference prediction value (RRIP)
        bool valid = false;
        bool dirty = false;

        bool operator==(const Line&) const = default;
    };

    /** A pooled tag array and its set bitmap, both entirely reset. The
     *  bitmap has a bit per line, enough for any geometry of that line
     *  count. */
    struct TagArray
    {
        std::vector<Line> lines;
        std::vector<uint64_t> filledSets;
    };

    unsigned setIndex(Addr line) const { return line & (sets - 1); }
    Addr tagOf(Addr line) const { return line >> setShift; }
    unsigned victimWay(unsigned set);

    /** Per-thread pool of reset arrays (see the note above). */
    static std::vector<TagArray>& arrayPool();
    static TagArray acquireArray(size_t n);
    void releaseArray();

    CacheConfig cfg;
    unsigned sets;
    unsigned setShift;
    uint64_t stamp = 0;
    std::vector<Line> lines;   ///< sets * ways, row-major
    /** One bit per set that insert() has filled since the array was
     *  acquired: the sets the destructor resets. */
    std::vector<uint64_t> filledSets;
    EvictHook evictHook;
};

} // namespace constable

#endif
