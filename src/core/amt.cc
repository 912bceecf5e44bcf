#include "core/amt.hh"

#include <algorithm>

#include "common/logging.hh"

namespace constable {

Amt::Amt(const AmtConfig& amt_cfg)
    : cfg(amt_cfg), entries(amt_cfg.sets * amt_cfg.ways)
{
    if ((cfg.sets & (cfg.sets - 1)) != 0)
        fatal("Amt: set count must be a power of two");
}

void
Amt::insert(Addr addr, PC load_pc, std::vector<PC>& evicted_out)
{
    Addr key = keyOf(addr);
    unsigned set = setOf(key);
    Entry* target = nullptr;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Entry& e = entries[set * cfg.ways + w];
        if (e.valid && e.key == key) {
            target = &e;
            break;
        }
    }
    if (!target) {
        // Allocate; evicting a victim loses its PCs' tracking, so the
        // caller must reset their elimination status (safety first).
        Entry* victim = &entries[set * cfg.ways];
        for (unsigned w = 0; w < cfg.ways; ++w) {
            Entry& cand = entries[set * cfg.ways + w];
            if (!cand.valid) {
                victim = &cand;
                break;
            }
            if (cand.lru < victim->lru)
                victim = &cand;
        }
        if (victim->valid) {
            ++capacityEvictions;
            for (PC pc : victim->pcs)
                evicted_out.push_back(pc);
        }
        victim->valid = true;
        victim->key = key;
        victim->pcs.clear();
        target = victim;
    }
    target->lru = ++stamp;
    auto& pcs = target->pcs;
    if (std::find(pcs.begin(), pcs.end(), load_pc) != pcs.end())
        return;
    if (pcs.size() >= cfg.pcsPerEntry) {
        ++capacityEvictions;
        evicted_out.push_back(pcs.front());
        pcs.erase(pcs.begin());
    }
    pcs.push_back(load_pc);
    ++inserts;
}

void
Amt::invalidate(Addr addr, std::vector<PC>& out)
{
    out.clear();
    Addr key = keyOf(addr);
    unsigned set = setOf(key);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Entry& e = entries[set * cfg.ways + w];
        if (e.valid && e.key == key) {
            ++invalidations;
            out.assign(e.pcs.begin(), e.pcs.end());
            e.pcs.clear();
            e.key = 0;
            e.valid = false;
            e.lru = 0;
            return;
        }
    }
}

bool
Amt::contains(Addr addr) const
{
    Addr key = keyOf(addr);
    unsigned set = setOf(key);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        const Entry& e = entries[set * cfg.ways + w];
        if (e.valid && e.key == key)
            return true;
    }
    return false;
}

void
Amt::flushAll()
{
    for (Entry& e : entries)
        e = Entry{};
}

} // namespace constable
