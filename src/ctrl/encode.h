// State encoding and hardwired control-logic synthesis (Section 2):
// "the FSM can be synthesized using known methods, including state encoding
// and optimization of the combinational logic."
//
// Three encodings are provided (binary, Gray, one-hot); the control logic
// (next-state function + every datapath control signal) is emitted as a
// two-level cover over {state bits, branch condition} and minimized, so the
// area effect of the encoding choice is measurable (bench E12).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ctrl/fsm.h"
#include "ctrl/sop.h"

namespace mphls {

enum class StateEncoding { Binary, Gray, OneHot };

struct EncodedFsm {
  StateEncoding encoding = StateEncoding::Binary;
  int stateBits = 0;
  std::vector<std::uint64_t> codeOf;  ///< code per state id

  /// Names of control outputs, in the cover's output column order.
  std::vector<std::string> signalNames;

  /// Inputs: [state bits][cond]; outputs: [next-state bits][signals].
  SopCover logic;          ///< raw (one or two cubes per state)
  SopCover minimizedLogic;

  [[nodiscard]] int numInputs() const { return logic.numInputs; }
};

/// Encode the controller and synthesize its control logic. The signal set
/// comprises: per-register load enables and mux-select bits, per-FU
/// function-select and mux-select bits, and per-port write enables and
/// selects — everything the datapath needs each cycle.
[[nodiscard]] EncodedFsm encodeController(const Controller& ctrl,
                                          const InterconnectResult& ic,
                                          const FuBinding& binding,
                                          StateEncoding encoding);

/// Audit an encoding against the controller it was built from: state codes
/// are distinct and fit in `stateBits`, and at every state × branch
/// condition the minimized cover computes the raw cover's outputs, whose
/// next-state bits are the successor state's code. Returns "" when sound,
/// else the first violation. Cubes are matched word-parallel, so the cost
/// is linear in states × cubes at any input width.
[[nodiscard]] std::string validateEncoding(const EncodedFsm& fsm,
                                           const Controller& ctrl);

}  // namespace mphls
