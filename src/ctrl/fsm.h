// Controller construction (Section 2): "Once the schedule and the data
// paths have been chosen, it is necessary to synthesize a controller that
// will drive the data paths as required by the schedule. ... If hardwired
// control is chosen, a control step corresponds to a state in the
// controlling finite state machine."
//
// The controller is built directly from the schedule and the interconnect's
// per-op wiring: each (block, control step) becomes a state asserting the
// register-load enables, mux selects and FU function codes of the
// operations scheduled there; block terminators become (possibly
// conditional) state transitions.
#pragma once

#include <string>
#include <vector>

#include "alloc/interconnect.h"

namespace mphls {

/// Functional-unit activity in one state. For a multicycle operation the
/// action appears in the ISSUE state with `cycles` > 1: the unit latches
/// its operands there and delivers its result `cycles - 1` states later
/// (consumers and the result-register load are placed at completion).
struct FuAction {
  int fu = -1;
  OpKind kind = OpKind::Nop;       ///< function code the unit performs
  int muxSel[3] = {-1, -1, -1};    ///< selected leg per input port
  int width = 0;                   ///< result width of the operation
  int cycles = 1;                  ///< execution time in control steps
};

/// A register load in one state.
struct RegAction {
  int reg = -1;
  int muxSel = -1;
};

/// An output-port write in one state.
struct PortAction {
  int port = -1;
  int muxSel = -1;
};

struct CtrlState {
  StateId id;
  BlockId block;
  int step = 0;

  std::vector<FuAction> fuActions;
  std::vector<RegAction> regActions;
  std::vector<PortAction> portActions;

  /// Transition. When `conditional`, `cond` names the 1-bit datapath value
  /// steering it (a register bit or an FU output in this very state).
  bool conditional = false;
  Source cond;
  StateId nextTaken;   ///< conditional: condition true
  StateId nextNot;     ///< conditional: condition false
  StateId next;        ///< unconditional (invalid + !conditional => halt)
  bool halt = false;
};

class Controller {
 public:
  std::vector<CtrlState> states;
  StateId initial;
  StateId haltState;

  [[nodiscard]] const CtrlState& state(StateId s) const {
    return states.at(s.index());
  }
  [[nodiscard]] std::size_t numStates() const { return states.size(); }
  /// State for (block, step); invalid when the block has no steps.
  [[nodiscard]] StateId stateAt(BlockId b, int step) const;

  [[nodiscard]] std::string describe() const;

 private:
  friend Controller buildController(const Function&, const Schedule&,
                                    const LifetimeInfo&, const RegAssignment&,
                                    const FuBinding&,
                                    const InterconnectResult&,
                                    const OpLatencyModel&);
  std::vector<std::vector<int>> stateOf_;  ///< [block][step] -> state index
};

[[nodiscard]] Controller buildController(
    const Function& fn, const Schedule& sched, const LifetimeInfo& lifetimes,
    const RegAssignment& regs, const FuBinding& binding,
    const InterconnectResult& ic,
    const OpLatencyModel& latencies = OpLatencyModel::unit());

}  // namespace mphls
