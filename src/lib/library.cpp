#include "lib/library.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/diag.h"

namespace mphls {

FuClass classOf(OpKind k) {
  switch (k) {
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Inc:
    case OpKind::Dec:
    case OpKind::Neg:
      return FuClass::Adder;
    case OpKind::And:
    case OpKind::Or:
    case OpKind::Xor:
    case OpKind::Not:
      return FuClass::Logic;
    case OpKind::Mul:
      return FuClass::Multiplier;
    case OpKind::Div:
    case OpKind::UDiv:
    case OpKind::Mod:
    case OpKind::UMod:
      return FuClass::Divider;
    case OpKind::Shl:
    case OpKind::Shr:
    case OpKind::Sar:
      return FuClass::Shifter;
    case OpKind::Eq:
    case OpKind::Ne:
    case OpKind::Lt:
    case OpKind::Le:
    case OpKind::Gt:
    case OpKind::Ge:
    case OpKind::ULt:
    case OpKind::ULe:
    case OpKind::UGt:
    case OpKind::UGe:
      return FuClass::Comparator;
    case OpKind::Select:
      return FuClass::Selector;
    case OpKind::StoreVar:
    case OpKind::WritePort:
      return FuClass::Move;  // only when structurally a stand-alone move
    default:
      return FuClass::None;
  }
}

std::string_view fuClassName(FuClass c) {
  switch (c) {
    case FuClass::None: return "none";
    case FuClass::Adder: return "adder";
    case FuClass::Logic: return "logic";
    case FuClass::Multiplier: return "mult";
    case FuClass::Divider: return "div";
    case FuClass::Shifter: return "shift";
    case FuClass::Comparator: return "cmp";
    case FuClass::Selector: return "sel";
    case FuClass::Move: return "move";
    case FuClass::Alu: return "alu";
  }
  return "?";
}

bool Component::supports(OpKind k) const {
  return std::find(ops.begin(), ops.end(), k) != ops.end();
}

CompId HwLibrary::addComponent(Component c) {
  c.id = CompId(comps_.size());
  comps_.push_back(std::move(c));
  return comps_.back().id;
}

CompId HwLibrary::findByName(const std::string& name) const {
  for (const auto& c : comps_)
    if (c.name == name) return c.id;
  return CompId::invalid();
}

CompId HwLibrary::cheapestFor(OpKind k, int width) const {
  CompId best;
  double bestArea = std::numeric_limits<double>::max();
  for (const auto& c : comps_) {
    if (c.supports(k) && c.area(width) < bestArea) {
      bestArea = c.area(width);
      best = c.id;
    }
  }
  return best;
}

CompId HwLibrary::cheapestForAll(const std::vector<OpKind>& ks,
                                 int width) const {
  CompId best;
  double bestArea = std::numeric_limits<double>::max();
  for (const auto& c : comps_) {
    bool all = true;
    for (OpKind k : ks)
      if (!c.supports(k)) {
        all = false;
        break;
      }
    if (all && c.area(width) < bestArea) {
      bestArea = c.area(width);
      best = c.id;
    }
  }
  return best;
}

double HwLibrary::muxDelay(int inputs) const {
  if (inputs <= 1) return 0.0;
  // Tree of 2-to-1 muxes: ~0.8 units per level.
  return 0.8 * std::ceil(std::log2(static_cast<double>(inputs)));
}

HwLibrary HwLibrary::defaultLibrary() {
  HwLibrary lib;
  const std::vector<OpKind> adderOps = {OpKind::Add, OpKind::Sub, OpKind::Inc,
                                        OpKind::Dec, OpKind::Neg};
  const std::vector<OpKind> logicOps = {OpKind::And, OpKind::Or, OpKind::Xor,
                                        OpKind::Not};
  const std::vector<OpKind> cmpOps = {
      OpKind::Eq,  OpKind::Ne,  OpKind::Lt,  OpKind::Le,  OpKind::Gt,
      OpKind::Ge,  OpKind::ULt, OpKind::ULe, OpKind::UGt, OpKind::UGe};

  {
    Component c;
    c.name = "adder";
    c.ops = adderOps;
    c.areaBase = 2.0;
    c.areaPerBit = 1.0;
    c.delayBase = 1.0;
    c.delayPerBit = 0.35;  // ripple carry
    lib.addComponent(std::move(c));
  }
  {
    Component c;
    c.name = "logic_unit";
    c.ops = logicOps;
    c.areaBase = 1.0;
    c.areaPerBit = 0.5;
    c.delayBase = 0.8;
    c.delayPerBit = 0.0;
    lib.addComponent(std::move(c));
  }
  {
    Component c;
    c.name = "comparator";
    c.ops = cmpOps;
    c.areaBase = 1.5;
    c.areaPerBit = 0.6;
    c.delayBase = 1.0;
    c.delayPerBit = 0.3;
    lib.addComponent(std::move(c));
  }
  {
    // Multi-function ALU: bigger than any single-function unit it replaces,
    // cheaper than three of them.
    Component c;
    c.name = "alu";
    c.ops = adderOps;
    c.ops.insert(c.ops.end(), logicOps.begin(), logicOps.end());
    c.ops.insert(c.ops.end(), cmpOps.begin(), cmpOps.end());
    c.areaBase = 4.0;
    c.areaPerBit = 1.6;
    c.delayBase = 1.4;
    c.delayPerBit = 0.35;
    lib.addComponent(std::move(c));
  }
  {
    Component c;
    c.name = "multiplier";
    c.ops = {OpKind::Mul};
    c.areaBase = 8.0;
    c.areaPerBit = 9.0;  // ~array multiplier, dominated by width^1 rows here
    c.delayBase = 3.0;
    c.delayPerBit = 0.6;
    lib.addComponent(std::move(c));
  }
  {
    Component c;
    c.name = "divider";
    c.ops = {OpKind::Div, OpKind::UDiv, OpKind::Mod, OpKind::UMod};
    c.areaBase = 10.0;
    c.areaPerBit = 11.0;
    c.delayBase = 4.0;
    c.delayPerBit = 1.2;
    lib.addComponent(std::move(c));
  }
  {
    Component c;
    c.name = "barrel_shifter";
    c.ops = {OpKind::Shl, OpKind::Shr, OpKind::Sar};
    c.areaBase = 2.0;
    c.areaPerBit = 1.2;
    c.delayBase = 1.2;
    c.delayPerBit = 0.05;
    lib.addComponent(std::move(c));
  }
  {
    Component c;
    c.name = "selector";
    c.ops = {OpKind::Select};
    c.areaBase = 0.5;
    c.areaPerBit = 0.3;
    c.delayBase = 0.8;
    c.delayPerBit = 0.0;
    lib.addComponent(std::move(c));
  }
  return lib;
}

}  // namespace mphls
