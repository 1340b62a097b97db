// Hardware module library (Section 2, "module binding"): parameterized
// RT-level components with normalized area/delay models.
//
// "For the binding of functional units, known components such as adders can
// be taken from a hardware library. Libraries facilitate the synthesis
// process and the size/timing estimation." The numbers here are normalized
// units chosen to preserve the tutorial-era relative costs: a multiplier is
// an order of magnitude larger than an adder, a divider larger and slower
// still, wiring (mux) cost is non-trivial, and constant shifts are free.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "ir/opcode.h"

namespace mphls {

/// Functional-unit classes used by the resource-constrained schedulers.
enum class FuClass {
  None,        ///< op needs no functional unit (free / transparent)
  Adder,       ///< add, sub, inc, dec, neg
  Logic,       ///< and, or, xor, not
  Multiplier,  ///< mul
  Divider,     ///< div, mod
  Shifter,     ///< variable-amount shifts
  Comparator,  ///< compares
  Selector,    ///< select (2-to-1 data mux as an operation)
  Move,        ///< stand-alone register/port transfer (e.g. "0 -> I")
  Alu,         ///< multi-function unit: Adder + Logic + Comparator
};

/// FU class of an operation kind (Move is decided structurally, not here).
[[nodiscard]] FuClass classOf(OpKind k);
[[nodiscard]] std::string_view fuClassName(FuClass c);

/// One library component: a hardware module that can execute a set of
/// operation kinds at a given width.
struct Component {
  CompId id;
  std::string name;
  std::vector<OpKind> ops;   ///< operation kinds this module performs
  double areaBase = 0;       ///< fixed area (normalized units)
  double areaPerBit = 0;     ///< area per operand bit
  double delayBase = 0;      ///< fixed delay (normalized ns)
  double delayPerBit = 0;    ///< delay per operand bit (ripple-style)
  int cycles = 1;            ///< execution latency in control steps

  [[nodiscard]] bool supports(OpKind k) const;
  [[nodiscard]] double area(int width) const {
    return areaBase + areaPerBit * width;
  }
  [[nodiscard]] double delay(int width) const {
    return delayBase + delayPerBit * width;
  }
};

/// The component library plus technology cost parameters for storage and
/// interconnect, used by allocation and estimation.
class HwLibrary {
 public:
  /// The default normalized technology.
  [[nodiscard]] static HwLibrary defaultLibrary();

  CompId addComponent(Component c);
  [[nodiscard]] const Component& component(CompId id) const {
    return comps_.at(id.index());
  }
  [[nodiscard]] const std::vector<Component>& components() const {
    return comps_;
  }
  [[nodiscard]] CompId findByName(const std::string& name) const;

  /// Cheapest (by area at `width`) component executing `k`; invalid id if
  /// none exists.
  [[nodiscard]] CompId cheapestFor(OpKind k, int width) const;

  /// Smallest component (by area at `width`) covering every kind in `ks`.
  [[nodiscard]] CompId cheapestForAll(const std::vector<OpKind>& ks,
                                      int width) const;

  // --- storage & interconnect cost model --------------------------------
  [[nodiscard]] double registerArea(int width) const {
    return kRegAreaPerBit * width;
  }
  /// Area of an n-input multiplexer ((n-1) 2-to-1 muxes per bit).
  [[nodiscard]] double muxArea(int inputs, int width) const {
    return inputs <= 1 ? 0.0 : kMuxAreaPerBit * (inputs - 1) * width;
  }
  [[nodiscard]] double muxDelay(int inputs) const;
  /// Area of one bus: per-bit wire cost plus a tristate driver per source.
  [[nodiscard]] double busArea(int sources, int width) const {
    return kBusWirePerBit * width + kBusDriverPerBit * sources * width;
  }
  [[nodiscard]] double busDelay(int sources) const {
    return kBusBaseDelay + kBusDelayPerSource * sources;
  }
  [[nodiscard]] double registerSetupDelay() const { return kRegSetup; }

 private:
  std::vector<Component> comps_;

  static constexpr double kRegAreaPerBit = 0.6;
  static constexpr double kMuxAreaPerBit = 0.3;
  static constexpr double kBusWirePerBit = 0.15;
  static constexpr double kBusDriverPerBit = 0.12;
  static constexpr double kBusBaseDelay = 1.5;
  static constexpr double kBusDelayPerSource = 0.25;
  static constexpr double kRegSetup = 0.5;
};

}  // namespace mphls
