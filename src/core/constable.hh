/**
 * @file
 * ConstableEngine: the public facade of the paper's mechanism, wiring the
 * Stable Load Detector, Register Monitor Table, Address Monitor Table and
 * xPRF together and exposing the pipeline touch-points the core calls
 * (Fig 8's numbered operations). Unit-testable without the core.
 */

#ifndef CONSTABLE_CORE_CONSTABLE_HH
#define CONSTABLE_CORE_CONSTABLE_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "core/amt.hh"
#include "core/rmt.hh"
#include "core/sld.hh"
#include "core/xprf.hh"
#include "isa/microop.hh"

namespace constable {

/** Full Constable configuration. */
struct ConstableConfig
{
    bool enabled = true;
    SldConfig sld;
    RmtConfig rmt;
    AmtConfig amt;
    unsigned xprfEntries = 32;

    /** CV-bit pinning (§6.6). When false, the Constable-AMT-I variant is
     *  modeled instead: the AMT entry is invalidated on every L1D eviction
     *  (Fig 22). */
    bool cvBitPinning = true;

    /** Addressing-mode elimination filters (Fig 13). */
    bool eliminatePcRel = true;
    bool eliminateStackRel = true;
    bool eliminateRegRel = true;

    /** Let wrong-path renames update RMT/SLD (Fig 9b sensitivity). */
    bool wrongPathUpdates = true;
};

/** Rename-stage decision for one load (Fig 8 steps 1-3). */
struct ElimDecision
{
    bool eliminate = false;      ///< convert to a rename-completed move
    bool likelyStable = false;   ///< execute normally, arm at writeback
    Addr addr = 0;               ///< last-computed address (for the LB entry)
    uint64_t value = 0;          ///< last-fetched value (xPRF payload)
};

class ConstableEngine
{
  public:
    explicit ConstableEngine(const ConstableConfig& cfg = ConstableConfig{});

    /**
     * Rename-stage load lookup (step 1). Applies the addressing-mode
     * filter, the confidence gate, and xPRF availability.
     */
    ElimDecision renameLoad(PC pc, AddrMode mode);

    /**
     * A renamed instruction writes @p dst_reg (steps 7-8): drain the RMT
     * entry and reset every listed load in the SLD.
     * @return number of SLD can_eliminate updates performed (write-port
     *         pressure modeling, §6.7.1 / Fig 9a).
     */
    unsigned renameDstWrite(uint8_t dst_reg);

    /**
     * Writeback of a non-eliminated load (steps 4-6).
     * @param likely_stable_marked set at rename when confidence >= threshold
     * @param srcs address source registers for RMT insertion
     * @return true when can_eliminate was armed (caller pins the CV bit)
     */
    bool writebackLoad(PC pc, Addr addr, uint64_t value,
                       bool likely_stable_marked,
                       const std::array<uint8_t, 3>& srcs);

    /** Store address generated, or snoop arrived (steps 9-10 + 8). */
    void storeOrSnoopAddr(Addr addr);

    /** An eliminated instance of this load violated memory ordering and is
     *  being re-executed: halve its confidence (Fig 10 step G) so repeated
     *  store-load races back off instead of thrashing. */
    void onEliminationViolation(PC pc);

    /** L1D eviction notification (Constable-AMT-I variant only). */
    void onL1Evict(Addr line);

    /** Eliminated load retired or squashed: free its xPRF register. */
    void releaseEliminated();

    /** Physical address mapping changed (§6.7.3): flush everything. */
    void contextSwitch();

    bool modeAllowed(AddrMode mode) const;

    void exportStats(StatSet& stats) const;

    const ConstableConfig& config() const { return cfg; }

    // Exposed for unit tests and benches.
    Sld sld;
    Rmt rmt;
    Amt amt;
    Xprf xprf;

    uint64_t eliminated = 0;
    std::array<uint64_t, 4> eliminatedByMode { 0, 0, 0, 0 };
    uint64_t xprfRejected = 0;
    uint64_t storeResets = 0;
    uint64_t snoopResets = 0;

  private:
    void resetPcs(const std::vector<PC>& pcs);

    ConstableConfig cfg;
    /** Retained scratch buffers: PCs drained from the RMT/AMT, and PCs
     *  evicted by a writeback's inserts. Reused so the per-op paths do
     *  not allocate. */
    std::vector<PC> drained_;
    std::vector<PC> evicted_;
};

} // namespace constable

#endif
