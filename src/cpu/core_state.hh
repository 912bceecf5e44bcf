/**
 * @file
 * The narrow shared state of the out-of-order core: in-flight op slots,
 * per-thread contexts, per-port ready bitmaps, the event wheel, and every
 * statistic counter. The pipeline-stage translation units (cpu/rename.cc,
 * cpu/schedule.cc, cpu/mem_pipe.cc, cpu/retire.cc) and the pluggable
 * load-elimination mechanisms (cpu/mechanism.hh) all operate on this one
 * struct; none of them sees the others' code.
 *
 * The in-flight window is program-ordered and flat. Each thread owns a
 * partition of robPerThread() slots that its ROB allocates in ring order,
 * so within a thread slot ring order is age order, and a slot's ROB
 * position is O(1) arithmetic. The LB/SB lists are fixed-capacity rings
 * whose entries carry their seq, so the seq binary searches never touch the
 * slot array. Squash truncates every ring's tail.
 */

#ifndef CONSTABLE_CPU_CORE_STATE_HH
#define CONSTABLE_CPU_CORE_STATE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>
#include <vector>

#include "common/check.hh"
#include "common/flat.hh"
#include "common/small_vec.hh"
#include "common/stats.hh"
#include "cpu/config.hh"
#include "cpu/mechanism.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "predictor/branch.hh"
#include "predictor/storeset.hh"
#include "trace/trace.hh"

namespace constable {

/** Event-wheel span: the farthest ahead an event can be scheduled (longer
 *  delays clamp to kEventWheelSize - 1). */
inline constexpr unsigned kEventWheelSize = 2048;

/** Scheduling state of an in-flight op. */
enum class OpState : uint8_t {
    WaitDeps, Ready, Blocked, Issued, Done,
};

enum class EventKind : uint8_t {
    ExecDone,    ///< non-memory op finished / load data returned
    AguDone,     ///< load address generated -> memory stage
    StaDone,     ///< store address resolved -> disambiguation
    ValueAvail,  ///< speculative value delivered to dependents (RFP)
};

/** Branches share the ALU ports but issue with priority (fast branch
 *  resolution keeps mispredict windows short). */
enum class PortType : uint8_t { Alu = 0, Load = 1, Sta = 2, Branch = 3 };

/** Generation-checked reference to an in-flight slot. */
struct SlotRef
{
    int slot = -1;
    uint64_t gen = 0;
};

/**
 * Trivially-copyable part of an in-flight op: slot recycling resets it
 * with one aggregate copy of a reset image (memcpy-class code) instead of
 * running member-wise constructors, and keeps the consumer list's storage
 * alive across generations.
 */
struct InFlightState
{
    MicroOp op;
    uint64_t gen = 0;
    size_t traceIdx = 0;
    SeqNum seq = 0;       ///< per-thread program-order sequence
    ThreadId tid = 0;
    OpState state = OpState::WaitDeps;
    bool valid = false;

    bool inRs = false;
    bool doneAtRename = false;
    bool eliminated = false;        ///< Constable elimination
    bool idealEliminated = false;
    bool likelyStableMarked = false;
    bool vpApplied = false;         ///< dependents woken speculatively
    bool vpWrong = false;
    bool valueAvailable = false;    ///< consumers need not wait
    bool noDataFetch = false;       ///< ideal LVP-no-fetch (AGU only)
    bool elarReady = false;         ///< address resolved at decode
    bool mrnForwarded = false;
    bool evesPredicted = false;
    bool evesTracked = false;       ///< counted in E-Stride inflight
    bool xprfHeld = false;          ///< owns an xPRF register
    bool rfpPredicted = false;
    bool isGsLoad = false;          ///< PC in the global-stable set
                                    ///< (cached at rename; the set is
                                    ///< immutable during a run)
    PC fwdFromStorePc = 0;          ///< actual forwarding store (MRN train)

    Addr lbAddr = 0;
    bool lbAddrValid = false;
    uint64_t elimValue = 0;         ///< SLD-provided value (golden check)
    bool storeAddrResolved = false;
    bool loadValueDelivered = false; ///< disambiguation "completed" bit

    unsigned pendingSrcs = 0;
    uint8_t dstReg = kNoReg;
    SlotRef prevWriter;             ///< rename-map checkpoint for squash
    SlotRef blockingStore;          ///< MDP wait target
};
static_assert(std::is_trivially_copyable_v<InFlightState>,
              "slot recycling relies on aggregate reset");

struct InFlight : InFlightState
{
    /** Dependent ops woken at completion; inline for the common fan-out,
     *  spill storage retained across slot reuse. */
    SmallVec<SlotRef, 4> consumers;
};

/** An LB/SB entry: the op's slot plus its seq, so the program-order
 *  binary searches over the lists read only the list. */
struct LsqEntry
{
    int slot = -1;
    SeqNum seq = 0;
};

/** Issue-port classes (PortType values). */
inline constexpr unsigned kNumPorts = 4;

struct ThreadCtx
{
    const Trace* trace = nullptr;
    size_t traceIdx = 0;
    size_t snoopIdx = 0;
    SeqNum nextSeq = 0;
    /** First slot of this thread's partition; ROB position i occupies
     *  slot slotBase + rob.phys(i). */
    int slotBase = 0;
    RingIndex rob;                  ///< program order over the partition
    FixedRing<LsqEntry> storeList;  ///< in-flight stores (the SB)
    FixedRing<LsqEntry> loadList;   ///< in-flight loads (the LB):
                                    ///< disambiguation scans loads
                                    ///< only, not the whole ROB
    /** In-flight stores whose address is still unresolved, in program
     *  order: the load-AGU memory-dependence check walks only these (the
     *  handful of recently issued stores) instead of the whole SB. */
    std::vector<int> unresolvedStores;
    /**
     * Resolved in-flight stores (chunk -> slot, one entry per chunk)
     * indexed by the 8-byte-aligned chunks their byte range covers (a
     * store of size <= 8 spans at most two chunks), so it never holds more
     * than 2 x SB entries. Two byte ranges that overlap share a byte and
     * therefore a chunk, so probing the load's chunks finds every
     * forwarding candidate without scanning the store buffer. Maintained
     * incrementally: insert at STA, erase at store retire and on squash.
     */
    FlatTable<Addr, int> storeAddrIndex;
    /** Ready (state Ready, not yet issued) ops per issue port, one bit per
     *  ROB ring position: a ring-order scan from the ROB head visits them
     *  oldest first. */
    std::array<RingBitmap, kNumPorts> ready;
    std::array<SlotRef, kMaxArchRegs> renameMap;
    Cycle frontendBlockedUntil = 0;
    SlotRef pendingBranch;          ///< unresolved mispredicted branch
    std::vector<MicroOp> recentOps; ///< wrong-path template ring
    size_t recentIdx = 0;
    FlatTable<PC, SlotRef> lastStoreByPc; ///< MRN producer lookup
    uint64_t retired = 0;
    Cycle finishCycle = 0;
    bool done = false;
    /** Rename fence for sampled windows (cpu/warmup.cc): ops at indices
     *  >= renameLimit never enter the pipeline. SIZE_MAX (the default)
     *  reproduces full-fidelity behaviour exactly. */
    size_t renameLimit = SIZE_MAX;

    /** First trace index rename must not cross (trace end or the sampled
     *  window fence, whichever is lower). */
    size_t
    opsEnd() const
    {
        return std::min(renameLimit, trace->ops.size());
    }

    /** Slot at ROB position @p i (0 = oldest). */
    int
    robSlot(size_t i) const
    {
        return slotBase + static_cast<int>(rob.phys(i));
    }

    /** ROB position of an in-flight slot of this thread. */
    size_t
    robPos(int slot) const
    {
        return rob.logical(static_cast<size_t>(slot - slotBase));
    }
};

/** A scheduled event for the op in @c slot at generation @c gen. */
struct Event
{
    uint64_t gen;
    int slot;
    EventKind kind;
};

/**
 * Hashed timing wheel (Varghese & Lauck, SOSP'87) over kEventWheelSize
 * one-cycle buckets. Each bucket is a FIFO list threaded through one node
 * slab, and drained nodes go back on a free list, so once the slab is
 * reserved the wheel schedules and drains without allocating; it grows
 * only when more events are pending than were reserved. An occupancy
 * bitmap lets nextDelay() find the next populated bucket with a handful of
 * word scans.
 */
class EventWheel
{
  public:
    void reserve(size_t nodes) { slab_.reserve(nodes); }

    /** Append @p ev to the bucket of cycle @p when (FIFO within it). */
    void
    push(Cycle when, const Event& ev)
    {
        unsigned idx = static_cast<unsigned>(when % kEventWheelSize);
        int32_t n = free_;
        if (n >= 0) {
            free_ = slab_[n].next;
            slab_[n] = Node{ ev, -1 };
        } else {
            n = static_cast<int32_t>(slab_.size());
            slab_.push_back(Node{ ev, -1 });
        }
        Bucket& b = buckets_[idx];
        if (b.tail >= 0)
            slab_[b.tail].next = n;
        else
            b.head = n;
        b.tail = n;
        occupied_[idx / 64] |= 1ull << (idx % 64);
        ++pending_;
    }

    /** Hand every event of cycle @p now's bucket to @p handle, in the
     *  order they were pushed. @p handle may push to any other bucket. */
    template <typename F>
    void
    drain(Cycle now, F&& handle)
    {
        unsigned idx = static_cast<unsigned>(now % kEventWheelSize);
        Bucket& b = buckets_[idx];
        if (b.head < 0)
            return;
        CONSTABLE_ASSERT((occupied_[idx / 64] >> (idx % 64)) & 1,
                         "draining a populated wheel bucket whose "
                         "occupancy bit is clear");
        // Detach the list first. A node goes back on the free list before
        // its event is handled (the event is copied out), so the handler
        // may reuse it at once.
        int32_t n = b.head;
        b = Bucket{};
        occupied_[idx / 64] &= ~(1ull << (idx % 64));
        while (n >= 0) {
            CONSTABLE_ASSERT(pending_ > 0,
                             "wheel bucket holds more events than the "
                             "global pending count");
            --pending_;
            Node& node = slab_[n];
            Event ev = node.ev;
            int32_t next = node.next;
            node.next = free_;
            free_ = n;
            handle(ev);
            n = next;
        }
    }

    /** Smallest delay d >= 1 from @p now with a populated bucket; 0 when
     *  the wheel is empty. The current bucket is always drained, so a set
     *  bit is never at delay 0. */
    unsigned
    nextDelay(Cycle now) const
    {
        if (pending_ == 0)
            return 0;
        constexpr unsigned kWords = kEventWheelSize / 64;
        unsigned cur = static_cast<unsigned>(now % kEventWheelSize);
        unsigned s0 = (cur + 1) % kEventWheelSize;
        unsigned found = kEventWheelSize;
        uint64_t head = occupied_[s0 / 64] & (~0ull << (s0 % 64));
        if (head != 0) {
            found = (s0 / 64) * 64 +
                    static_cast<unsigned>(std::countr_zero(head));
        } else {
            for (unsigned i = 1; i <= kWords; ++i) {
                unsigned w = (s0 / 64 + i) % kWords;
                uint64_t bits = occupied_[w];
                if (w == s0 / 64) // wrapped: only bits below the start count
                    bits &= (s0 % 64) ? ((1ull << (s0 % 64)) - 1) : 0;
                if (bits != 0) {
                    found = w * 64 +
                            static_cast<unsigned>(std::countr_zero(bits));
                    break;
                }
            }
        }
        CONSTABLE_ASSERT(found != kEventWheelSize,
                         "events are pending but the occupancy bitmap has "
                         "no set bit: wheel and bitmap disagree");
        return (found + kEventWheelSize - cur) % kEventWheelSize;
    }

  private:
    /** A slab node: an event and the next node of its bucket or of the
     *  free list; -1 ends a list. */
    struct Node
    {
        Event ev;
        int32_t next;
    };
    struct Bucket
    {
        int32_t head = -1;
        int32_t tail = -1;
    };

    std::vector<Node> slab_;
    int32_t free_ = -1;
    std::array<Bucket, kEventWheelSize> buckets_ {};
    std::array<uint64_t, kEventWheelSize / 64> occupied_ {};
    uint64_t pending_ = 0;
};

/** Shared core state; see file header. Construction and the run loop live
 *  in OooCore (cpu/core.hh), which derives from this. */
struct CoreState
{
    CoreState(const CoreConfig& core_cfg, const MechanismConfig& mech_cfg)
        : cfg(core_cfg), memory(core_cfg.mem), mechs(mech_cfg)
    {}

    CoreConfig cfg;
    std::vector<ThreadCtx> threads;
    /** Offline-identified global-stable load PCs (statistics only). */
    FlatSet<PC> globalStable;

    MemHierarchy memory;
    Directory directory;
    TageLite branchPred;
    StoreSets storeSets;
    /** The active load-elimination mechanisms (Constable, EVES, ...). */
    MechanismSet mechs;

    /** Every thread's slot partition, back to back. */
    std::vector<InFlight> slots;
    /** A slot's reset image. allocSlot() copies it from memory: GCC lowers
     *  an in-place InFlightState{} to `rep stos`, whose start-up latency
     *  was the largest single cost of slot allocation. */
    const InFlightState freshSlot {};
    uint64_t genCounter = 1;

    unsigned rsUsed = 0;
    Cycle now = 0;

    /** Ready ops per port over all threads (the idle-skip gate). */
    std::array<unsigned, kNumPorts> readyCount {};
    /** Ready (state Ready, not yet issued) loads whose PC is NOT in the
     *  global-stable set: makes the Fig 6b "is a non-GS load waiting?"
     *  check O(1) instead of a queue scan per GS-load-issue cycle. */
    uint64_t readyNonGsLoads = 0;
    std::vector<SlotRef> blockedLoads;
    /** Load-issue token bucket: loadPorts tokens arrive per cycle, each
     *  issued load costs loadPortOccupancy tokens (sustained bandwidth
     *  loadPorts / occupancy, age-fair across cycles). */
    unsigned loadTokens = 0;

    /** Pending events by cycle. The constructor reserves one slab node
     *  per slot; fig11, fig14 and fig20 over 20 traces of 20k ops peak
     *  at 7% of that. */
    EventWheel wheel;

    // ---------------------------------------------------------- statistics
    Histogram sldUpdateHist { { 1, 2, 3, 4 } };
    uint64_t sldUpdateCycles = 0;
    uint64_t sldUpdateTotal = 0;
    uint64_t loadUtilCycles = 0;
    uint64_t gsOccupiedWaitCycles = 0;
    uint64_t gsOccupiedNoWaitCycles = 0;
    uint64_t robAllocs = 0;
    uint64_t rsAllocs = 0;
    uint64_t renameStallsSldRead = 0;
    uint64_t renameStallsSldWrite = 0;
    uint64_t elimOrderingViolations = 0;
    uint64_t orderingViolations = 0;
    uint64_t vpFlushes = 0;
    uint64_t branchMispredicts = 0;
    uint64_t loadsRetired = 0;
    uint64_t loadsEliminatedRetired = 0;
    uint64_t loadsVpRetired = 0;
    uint64_t loadsElimRetiredByMode[4] = { 0, 0, 0, 0 };
    uint64_t gsElimRetired = 0;
    uint64_t nonGsElimRetired = 0;
    uint64_t gsLoadsRetired = 0;
    uint64_t aluExecs = 0;
    uint64_t aguExecs = 0;
    uint64_t issueEvents = 0;
    uint64_t renamedOps = 0;
    // Rename-stall attribution (first blocking reason per cycle).
    uint64_t stallFrontend = 0;
    uint64_t stallPendingBranch = 0;
    uint64_t fbuBranch = 0;
    uint64_t fbuSquash = 0;
    uint64_t stallRobFull = 0;
    uint64_t stallRsFull = 0;
    uint64_t stallLbFull = 0;
    uint64_t stallSbFull = 0;
    uint64_t renameZeroCycles = 0;
    /** Cycles skipped wholesale by tryFastForward(). Observability-only:
     *  flushed to the obs registry at the end of run(), never exported
     *  into a RunResult or StatSet (the stall counters above already
     *  account these cycles for the simulated stats). */
    uint64_t idleFastForwardedCycles = 0;
    FlatTable<PC, uint64_t> vpWrongByPc;
    bool goldenFailed = false;
    std::string goldenMsg;

    // ------------------------------------------------------------ helpers

    InFlight& at(int slot) { return slots[slot]; }
    const InFlight& at(int slot) const { return slots[slot]; }

    bool
    refValid(const SlotRef& r) const
    {
        return r.slot >= 0 && slots[r.slot].valid && slots[r.slot].gen ==
                                                         r.gen;
    }

    /** Allocate the youngest ROB position of @p t and reset its slot
     *  (the caller checked the ROB has room). */
    int
    allocSlot(ThreadCtx& t)
    {
        int s = t.slotBase + static_cast<int>(t.rob.pushBack());
        InFlight& e = slots[s];
        CONSTABLE_ASSERT(!e.valid, "ROB ring allocated a live slot");
        // Aggregate reset of the trivially-copyable part; clearing the
        // consumer list keeps its spill storage.
        static_cast<InFlightState&>(e) = freshSlot;
        e.consumers.clear();
        e.gen = genCounter++;
        e.valid = true;
        return s;
    }

    void
    schedule(int slot, EventKind kind, unsigned delay)
    {
        CONSTABLE_ASSERT(slots[slot].valid,
                         "scheduling an event for a freed slot");
        if (delay == 0)
            delay = 1;
        if (delay >= kEventWheelSize)
            delay = kEventWheelSize - 1;
        wheel.push(now + delay, Event{ slots[slot].gen, slot, kind });
    }

    /** Smallest delay d >= 1 with a pending event; 0 when none is. */
    unsigned nextEventDelay() const { return wheel.nextDelay(now); }

    PortType
    portOf(const InFlight& e) const
    {
        if (e.op.isLoad())
            return PortType::Load;
        if (e.op.isStore())
            return PortType::Sta;
        if (e.op.cls == OpClass::Branch)
            return PortType::Branch;
        return PortType::Alu;
    }

    void
    addReady(int slot)
    {
        InFlight& e = at(slot);
        e.state = OpState::Ready;
        unsigned port = static_cast<unsigned>(portOf(e));
        ThreadCtx& t = threads[e.tid];
        CONSTABLE_ASSERT(!t.ready[port].test(slot - t.slotBase),
                         "op made ready twice");
        t.ready[port].set(slot - t.slotBase);
        ++readyCount[port];
        if (port == static_cast<unsigned>(PortType::Load) && !e.isGsLoad)
            ++readyNonGsLoads;
    }

    /** Take a Ready op off its port (issue or squash). */
    void
    removeReady(int slot)
    {
        InFlight& e = at(slot);
        unsigned port = static_cast<unsigned>(portOf(e));
        ThreadCtx& t = threads[e.tid];
        CONSTABLE_ASSERT(t.ready[port].test(slot - t.slotBase),
                         "removeReady on an op whose ready bit is clear");
        t.ready[port].clear(slot - t.slotBase);
        --readyCount[port];
        if (port == static_cast<unsigned>(PortType::Load) && !e.isGsLoad) {
            CONSTABLE_ASSERT(readyNonGsLoads > 0,
                             "non-GS ready-load counter underflow");
            --readyNonGsLoads;
        }
    }

    bool
    overlaps(Addr a1, unsigned s1, Addr a2, unsigned s2) const
    {
        return a1 < a2 + s2 && a2 < a1 + s1;
    }
};

} // namespace constable

#endif
