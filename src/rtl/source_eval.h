// Shared datapath-source evaluation for the FSM-driven and the
// microprogram-driven simulators: resolve a Source against the current
// register file / input ports / per-cycle FU outputs and apply its wiring
// transforms.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/datapath.h"
#include "common/bitutil.h"
#include "ir/interp.h"
#include "rtl/rtlsim.h"

namespace mphls::rtl {

/// Apply a wiring-transform chain to a raw value of width `width`.
inline std::uint64_t applyXform(std::uint64_t v, int width,
                                const std::vector<WireXform>& xform) {
  for (const WireXform& x : xform) {
    v = Interpreter::evalPure(x.kind, x.width, x.imm, {v}, {width});
    width = x.width;
  }
  return v;
}

/// Value of `s` in the current cycle. `fuOut`/`fuActive` describe this
/// cycle's combinational functional-unit outputs.
inline std::uint64_t sourceValue(const Source& s,
                                 const std::vector<std::uint64_t>& regVal,
                                 const std::vector<std::uint64_t>& inPort,
                                 const std::vector<std::uint64_t>& fuOut,
                                 const std::vector<bool>& fuActive) {
  std::uint64_t raw = 0;
  switch (s.kind) {
    case Source::Kind::Reg:
      raw = truncBits(regVal[(std::size_t)s.id], s.rootWidth);
      break;
    case Source::Kind::Port:
      raw = truncBits(inPort[(std::size_t)s.id], s.rootWidth);
      break;
    case Source::Kind::Const:
      raw = truncBits((std::uint64_t)s.imm, s.rootWidth);
      break;
    case Source::Kind::Fu:
      MPHLS_CHECK(s.id >= 0, "unit source without a unit");
      if (!fuActive[(std::size_t)s.id])
        throw DesignFault("read of inactive unit output");
      raw = fuOut[(std::size_t)s.id];
      break;
  }
  return applyXform(raw, s.rootWidth, s.xform);
}

}  // namespace mphls::rtl
