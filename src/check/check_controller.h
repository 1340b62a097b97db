// Stage-boundary analyzer 3: controller completeness.
//
// The contract controller synthesis must establish (Section 2: "synthesize a
// controller that will drive the data paths as required by the schedule"):
// every scheduled control step of every block is covered by exactly one FSM
// state; transitions follow the schedule within a block and the terminators
// across blocks; every state is reachable from the initial state and can
// reach the halt state; and each state asserts exactly the functional-unit
// operations, register loads and port writes that the datapath binding
// requires in that step — nothing missing, nothing extra.
#pragma once

#include "alloc/interconnect.h"
#include "check/report.h"
#include "ctrl/fsm.h"
#include "ir/latency.h"
#include "sched/schedule.h"

namespace mphls {

// Check ids reported:
//   ctrl.step-uncovered      a scheduled (block, step) has no FSM state
//   ctrl.state-binding       a state's (block, step) disagrees with the map
//   ctrl.transition-range    successor state out of range
//   ctrl.transition-target   successor disagrees with schedule/terminator
//   ctrl.cond-width          branch condition is not 1 bit wide
//   ctrl.cond-source         branch condition names a nonexistent unit
//   ctrl.action-range        action names a nonexistent unit, register,
//                            port or mux leg
//   ctrl.unreachable-state   state unreachable from the initial state
//   ctrl.dead-state          state cannot reach the halt state
//   ctrl.action-missing      required datapath action not asserted
//   ctrl.action-extra        asserted action the binding does not require
void checkController(const Function& fn, const Schedule& sched,
                     const Controller& ctrl, const InterconnectResult& ic,
                     const FuBinding& binding,
                     const OpLatencyModel& latencies, CheckReport& report);

/// The first error ("" when none) of checkController's range part, which
/// needs no schedule: the initial state, every successor, condition unit
/// and action in range. It remains for the stage-by-stage replay in
/// perfbench/src/synth_large.cpp, which calls this name; new code calls
/// checkController.
[[nodiscard]] std::string validateController(const Controller& ctrl,
                                             const InterconnectResult& ic,
                                             const FuBinding& binding);

}  // namespace mphls
