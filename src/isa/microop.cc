#include "isa/microop.hh"

#include <cstdio>

namespace constable {

std::string
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::Alu: return "alu";
      case OpClass::Mul: return "mul";
      case OpClass::Div: return "div";
      case OpClass::FpOp: return "fp";
      case OpClass::Load: return "load";
      case OpClass::Store: return "store";
      case OpClass::Branch: return "branch";
      case OpClass::Jump: return "jump";
      case OpClass::Move: return "move";
      case OpClass::ZeroIdiom: return "zero";
      case OpClass::StackAdj: return "stackadj";
      case OpClass::Nop: return "nop";
    }
    return "?";
}

std::string
addrModeName(AddrMode m)
{
    switch (m) {
      case AddrMode::None: return "none";
      case AddrMode::PcRel: return "pc-rel";
      case AddrMode::StackRel: return "stack-rel";
      case AddrMode::RegRel: return "reg-rel";
    }
    return "?";
}

std::string
MicroOp::str() const
{
    char buf[256];
    if (isMem()) {
        std::snprintf(buf, sizeof(buf),
                      "%s pc=%#llx %s [%#llx]=%#llx sz=%u dst=%s src=%s,%s",
                      opClassName(cls).c_str(),
                      static_cast<unsigned long long>(pc),
                      addrModeName(addrMode).c_str(),
                      static_cast<unsigned long long>(effAddr),
                      static_cast<unsigned long long>(value), size,
                      regName(dst).c_str(), regName(src[0]).c_str(),
                      regName(src[1]).c_str());
    } else if (isBranch()) {
        std::snprintf(buf, sizeof(buf), "%s pc=%#llx %s",
                      opClassName(cls).c_str(),
                      static_cast<unsigned long long>(pc),
                      taken ? "T" : "NT");
    } else {
        std::snprintf(buf, sizeof(buf), "%s pc=%#llx dst=%s src=%s,%s",
                      opClassName(cls).c_str(),
                      static_cast<unsigned long long>(pc),
                      regName(dst).c_str(), regName(src[0]).c_str(),
                      regName(src[1]).c_str());
    }
    return buf;
}

} // namespace constable
