// Functional-unit allocation (Section 3.2, Figs. 6 and 7).
//
// Iterative/constructive methods: "select an operation ... make the
// assignment, and then iterate. The rules which determine the next
// operation ... can vary from global rules, which examine many or all
// items before selecting one, to local selection rules, which select the
// items in a fixed order, usually as they occur in the data flow graph
// from inputs to outputs."
//
//   - GreedyLocal (Fig. 6): ops in control-step order; each goes to the
//     compatible idle unit that adds the least interconnect (mux) cost.
//   - InterconnectBlind: Fig. 6's cautionary variant ("if we had assigned
//     a2 to adder1 and a4 to adder1 without checking for interconnection
//     costs, then the final multiplexing would have been more expensive").
//   - GreedyGlobal (EMUCS-like): repeatedly assign the (op, unit) pair with
//     the minimum cost increase over all unassigned ops.
//   - Clique (Fig. 7, Tseng–Siewiorek): compatibility-graph clique cover;
//     "mutually exclusive operations, e.g. operations in different control
//     steps, clearly can share functional units".
#pragma once

#include "alloc/datapath.h"
#include "alloc/lifetime.h"
#include "alloc/reg_alloc.h"
#include "sched/schedule.h"

namespace mphls {

enum class FuAllocMethod { GreedyLocal, GreedyGlobal, InterconnectBlind, Clique };

[[nodiscard]] FuBinding allocateFus(
    const Function& fn, const Schedule& sched, const LifetimeInfo& lifetimes,
    const RegAssignment& regs, const HwLibrary& lib, FuAllocMethod method,
    const OpLatencyModel& latencies = OpLatencyModel::unit());

/// The datapath source feeding operand `argIndex` of op `opIndex` in
/// `block` (resolving free-op chains, registers, ports and constants).
[[nodiscard]] Source operandSource(const Function& fn,
                                   const LifetimeInfo& lifetimes,
                                   const RegAssignment& regs, BlockId block,
                                   std::size_t opIndex, std::size_t argIndex);

/// Datapath source of an arbitrary value: its root (register / input port /
/// constant / same-step FU output) plus the free wiring transforms applied
/// between root and consumer. Same-step FU roots come back with id == -1
/// and the root ValueId parked in `imm`; resolve via the FU binding.
[[nodiscard]] Source buildSource(const Function& fn,
                                 const LifetimeInfo& lifetimes,
                                 const RegAssignment& regs, ValueId v);

}  // namespace mphls
