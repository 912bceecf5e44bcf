#include "core/rmt.hh"

#include <algorithm>

namespace constable {

Rmt::Rmt(const RmtConfig& rmt_cfg) : cfg(rmt_cfg), lists(kMaxArchRegs)
{
}

bool
Rmt::insert(uint8_t reg, PC load_pc, std::vector<PC>& evicted_out)
{
    if (reg >= kMaxArchRegs)
        return false;
    auto& list = lists[reg];
    if (std::find(list.begin(), list.end(), load_pc) != list.end())
        return false;
    unsigned cap = isStackReg(reg) ? cfg.stackRegPcs : cfg.otherRegPcs;
    if (list.size() >= cap) {
        // Conservative capacity handling: evict the oldest tracked PC and
        // have the caller reset its elimination (loses coverage, never
        // safety).
        evicted_out.push_back(list.front());
        list.erase(list.begin());
        ++capacityEvictions;
    }
    list.push_back(load_pc);
    ++inserts;
    return true;
}

void
Rmt::drainOnWrite(uint8_t reg, std::vector<PC>& out)
{
    out.clear();
    if (reg >= kMaxArchRegs)
        return;
    auto& list = lists[reg];
    if (!list.empty()) {
        out.assign(list.begin(), list.end());
        list.clear();
        ++drains;
    }
}

void
Rmt::removePc(PC load_pc)
{
    for (auto& list : lists)
        std::erase(list, load_pc);
}

void
Rmt::flushAll()
{
    for (auto& list : lists)
        list.clear();
}

} // namespace constable
