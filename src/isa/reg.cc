#include "isa/reg.hh"

namespace constable {

std::string
regName(uint8_t r)
{
    static const char* names16[] = {
        "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    };
    if (r < 16)
        return names16[r];
    // append, not literal + std::string: GCC 12 raises a false
    // -Wrestrict on the inlined insert that operator+ expands to.
    std::string num = std::to_string(static_cast<int>(r));
    if (r < kMaxArchRegs)
        return std::string("r").append(num);
    if (r == kNoReg)
        return "<none>";
    return std::string("<bad:").append(num).append(">");
}

} // namespace constable
