/**
 * @file
 * Address Monitor Table (AMT): physical-address-indexed (cacheline
 * granularity, §6.6) table mapping monitored lines to the load PCs
 * currently being eliminated from them. Stores and snoops consult the AMT
 * and reset the listed loads' elimination — Condition 2 of the safety
 * argument (§6.1, §6.4.3-6.4.4). Table 1 geometry: 256 entries, 32 sets x
 * 8 ways, 4 load PCs per entry.
 */

#ifndef CONSTABLE_CORE_AMT_HH
#define CONSTABLE_CORE_AMT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace constable {

/** AMT geometry. */
struct AmtConfig
{
    unsigned sets = 32;
    unsigned ways = 8;
    unsigned pcsPerEntry = 4;
    /** Index/tag at full byte-address granularity instead of cachelines
     *  (the paper's 0.4%-better full-address variant, §6.6). */
    bool fullAddress = false;
};

class Amt
{
  public:
    explicit Amt(const AmtConfig& cfg = AmtConfig{});

    /**
     * Track an eliminated load's address (writeback of a likely-stable
     * load, §6.4.1 step 5). Allocates the entry if absent.
     * @param evicted_out PCs whose tracking was lost to capacity (entry or
     *        PC-list eviction); the caller must reset them.
     */
    void insert(Addr addr, PC load_pc, std::vector<PC>& evicted_out);

    /**
     * A store's address was generated, or a snoop arrived (§6.4.3-6.4.4):
     * evict the matching entry and put the PCs monitoring it in @p out,
     * replacing its contents (empty on a miss). The entry's PC list and
     * @p out keep their capacity.
     */
    void invalidate(Addr addr, std::vector<PC>& out);

    /** Is this address currently monitored? */
    bool contains(Addr addr) const;

    void flushAll();

    uint64_t inserts = 0;
    uint64_t invalidations = 0;      ///< store/snoop hits
    uint64_t capacityEvictions = 0;

  private:
    struct Entry
    {
        Addr key = 0;
        std::vector<PC> pcs;
        bool valid = false;
        uint64_t lru = 0;
    };

    Addr keyOf(Addr addr) const
    {
        return cfg.fullAddress ? addr : lineAddr(addr);
    }
    /** Hashed index: real physical addresses are well spread, but aligned
     *  allocations would otherwise pile into one set. */
    unsigned
    setOf(Addr key) const
    {
        return static_cast<unsigned>(
            (key ^ (key >> 5) ^ (key >> 11) ^ (key >> 17)) &
            (cfg.sets - 1));
    }

    AmtConfig cfg;
    std::vector<Entry> entries;
    uint64_t stamp = 0;
};

} // namespace constable

#endif
