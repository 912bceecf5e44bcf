#include "sim/cell_key.hh"

#include <bit>
#include <string>
#include <type_traits>

#include "common/rng.hh"
#include "trace/serialize.hh"

namespace constable {

namespace {

// ------------------------------------------------ key-completeness guard

/** Converts to any field type, so T{AnyField{}...} probes an aggregate's
 *  field count. */
struct AnyField
{
    template <class T>
    operator T() const;
};

/** Number of fields of aggregate T: the longest AnyField brace list T
 *  accepts. */
template <class T, class... Fields>
constexpr size_t
fieldCount()
{
    if constexpr (requires { T{ Fields{}..., AnyField{} }; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

// Every struct the key covers, with the number of fields hashed below. A
// new field breaks the build here until it is hashed and the count bumped.
static_assert(fieldCount<SystemConfig>() == 2, "hash the SystemConfig change");
static_assert(fieldCount<CoreConfig>() == 22, "hash the CoreConfig change");
static_assert(fieldCount<HierarchyConfig>() == 5,
              "hash the HierarchyConfig change");
static_assert(fieldCount<CacheConfig>() == 5, "hash the CacheConfig change");
static_assert(fieldCount<DramConfig>() == 8, "hash the DramConfig change");
static_assert(fieldCount<MechanismConfig>() == 7,
              "hash the MechanismConfig change");
static_assert(fieldCount<ConstableConfig>() == 10,
              "hash the ConstableConfig change");
static_assert(fieldCount<SldConfig>() == 6, "hash the SldConfig change");
static_assert(fieldCount<RmtConfig>() == 2, "hash the RmtConfig change");
static_assert(fieldCount<AmtConfig>() == 4, "hash the AmtConfig change");
static_assert(fieldCount<IdealSpec>() == 2, "hash the IdealSpec change");

// ------------------------------------------------------------ the hasher

template <class V>
uint64_t
word(const V& v)
{
    if constexpr (std::is_same_v<V, double>) {
        return std::bit_cast<uint64_t>(v);
    } else if constexpr (std::is_same_v<V, std::string>) {
        return fnv1a(v);
    } else {
        static_assert(std::is_integral_v<V> || std::is_enum_v<V>,
                      "no canonical hash for this field type");
        return static_cast<uint64_t>(v);
    }
}

template <class... V>
void
mix(uint64_t& h, const V&... v)
{
    ((h = hashCombine(h, word(v))), ...);
}

void
mixCache(uint64_t& h, const CacheConfig& c)
{
    mix(h, c.name, c.sizeKB, c.ways, c.latency, c.policy);
}

void
mixCore(uint64_t& h, const CoreConfig& c)
{
    mix(h, c.renameWidth, c.retireWidth, c.robEntries, c.lbEntries,
        c.sbEntries, c.rsEntries, c.aluPorts, c.loadPorts,
        c.loadPortOccupancy, c.staPorts, c.branchMispredictPenalty,
        c.valueMispredictPenalty, c.aluLat, c.mulLat, c.divLat, c.fpLat,
        c.aguLat, c.storeForwardLat, c.smt2, c.depthScale, c.maxCycles);
    const HierarchyConfig& m = c.mem;
    mixCache(h, m.l1d);
    mixCache(h, m.l2);
    mixCache(h, m.llc);
    const DramConfig& d = m.dram;
    mix(h, d.channels, d.ranksPerChannel, d.banksPerRank, d.rowBufferBytes,
        d.tCas, d.tRcd, d.tRp, d.busTransfer, m.enablePrefetchers);
}

void
mixMech(uint64_t& h, const MechanismConfig& m)
{
    mix(h, m.mrn, m.eves, m.elar, m.rfp, m.rfpLatency);
    const ConstableConfig& c = m.constable;
    mix(h, c.enabled, c.xprfEntries, c.cvBitPinning, c.eliminatePcRel,
        c.eliminateStackRel, c.eliminateRegRel, c.wrongPathUpdates);
    mix(h, c.sld.sets, c.sld.ways, c.sld.confThreshold, c.sld.confMax,
        c.sld.readPorts, c.sld.writePorts);
    mix(h, c.rmt.stackRegPcs, c.rmt.otherRegPcs);
    mix(h, c.amt.sets, c.amt.ways, c.amt.pcsPerEntry, c.amt.fullAddress);
    // Set membership, not iteration order: a commutative sum of mixed PCs.
    uint64_t pcSum = 0;
    for (PC pc : m.ideal.stablePcs) // lint:ordered commutative sum
        pcSum += Rng::splitmix(pc);
    mix(h, m.ideal.mode, m.ideal.stablePcs.size(), pcSum);
}

} // namespace

uint64_t
configHash(const SystemConfig& cfg)
{
    uint64_t h = fnv1a("SystemConfig");
    mixCore(h, cfg.core);
    mixMech(h, cfg.mech);
    return h;
}

uint64_t
smtRowKey(uint64_t first, uint64_t second)
{
    return hashCombine(hashCombine(fnv1a("smt-pair"), first), second);
}

uint64_t
cellKey(uint64_t row_key, const SystemConfig& cfg, const CellKeyContext& ctx)
{
    uint64_t h = fnv1a("cell");
    mix(h, kCellModelVersion, row_key, ctx.inspected, configHash(cfg));
    if (ctx.sample && ctx.sample->enabled)
        mix(h, ctx.sample->spec(), ctx.seed);
    return h;
}

} // namespace constable
