// Verilog emission of the synthesized RTL structure: the register-transfer
// netlist (registers, functional units, multiplexers) plus the hardwired
// FSM controller, as one synthesizable-subset Verilog-2001 module.
#pragma once

#include <string>

#include "rtl/design.h"

namespace mphls {

/// Emit the whole design as a Verilog module named after the function.
/// Interface: clk, rst (synchronous, active high), every BDL input/output
/// port, and `done` (high in the halt state). The text is appended into one
/// buffer as it is produced, every wiring transform chain written in place;
/// the output is byte-identical to the stream-per-expression emitter it
/// replaced (pinned by Digest.VerilogMatchesCapturedDigest).
[[nodiscard]] std::string emitVerilog(const RtlDesign& design);

}  // namespace mphls
