/**
 * @file
 * Register Monitor Table (RMT): architectural-register-indexed lists of
 * load PCs currently being eliminated that use the register as an address
 * source. Every renamed instruction consults the RMT with its destination
 * register and resets the elimination status of the listed loads —
 * enforcing Condition 1 of the paper's safety argument (§6.1, §6.4.2).
 * Table 1 capacity: 16 PCs for RSP/RBP, 8 for the other 14 registers.
 */

#ifndef CONSTABLE_CORE_RMT_HH
#define CONSTABLE_CORE_RMT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/reg.hh"

namespace constable {

/** RMT capacity configuration. */
struct RmtConfig
{
    unsigned stackRegPcs = 16;   ///< RSP/RBP entry capacity
    unsigned otherRegPcs = 8;
};

class Rmt
{
  public:
    explicit Rmt(const RmtConfig& cfg = RmtConfig{});

    /**
     * Track an eliminated load's source register.
     * @param evicted_out when the entry is full the oldest PC is evicted;
     *        the caller must reset its elimination status (safety).
     * @return true if inserted (false if already present).
     */
    bool insert(uint8_t reg, PC load_pc, std::vector<PC>& evicted_out);

    /**
     * A renamed instruction writes @p reg: drain every load PC monitoring
     * that register into @p out, replacing its contents (the caller resets
     * them in the SLD). Both the list and @p out keep their capacity, so
     * steady-state draining does not allocate.
     */
    void drainOnWrite(uint8_t reg, std::vector<PC>& out);

    /** Remove a specific PC everywhere (entry re-learned after a reset). */
    void removePc(PC load_pc);

    void flushAll();

    size_t occupancy(uint8_t reg) const { return lists[reg].size(); }

    uint64_t inserts = 0;
    uint64_t drains = 0;         ///< register writes that drained PCs
    uint64_t capacityEvictions = 0;

  private:
    RmtConfig cfg;
    std::vector<std::vector<PC>> lists;   ///< per architectural register
};

} // namespace constable

#endif
