// Force-directed scheduling (Paulin & Knight's HAL, Section 3.1.1/3.1.2,
// Fig. 5): time-constrained scheduling that balances functional-unit load
// across control steps.
//
// "The range of possible control steps for each operation is used to form a
// so-called Distribution Graph. The distribution graph shows, for each
// control step, how heavily loaded that step is, given that all possible
// schedules are equally likely. If an operation could be done in any of k
// control steps, then 1/k is added to each of those control steps ...
// Operations are then selected and placed so as to balance the distribution
// as much as possible."
#pragma once

#include <map>
#include <vector>

#include "ir/deps.h"
#include "sched/schedule.h"

namespace mphls {

/// Expected per-step load for one FU class, assuming uniform placement of
/// each op within its [ASAP, ALAP] frame.
struct DistributionGraph {
  FuClass fuClass = FuClass::None;
  std::vector<double> load;  ///< indexed by control step

  [[nodiscard]] double at(int step) const {
    return step >= 0 && step < static_cast<int>(load.size())
               ? load[static_cast<std::size_t>(step)]
               : 0.0;
  }
};

/// Build the distribution graphs for every FU class present in the block,
/// under a time constraint of `horizon` steps (>= critical length). Frames
/// may be narrowed by `fixed` (step per op, -1 when unfixed).
[[nodiscard]] std::map<FuClass, DistributionGraph> distributionGraphs(
    const BlockDeps& deps, int horizon,
    const std::vector<int>& fixed = {});

/// Force-directed schedule of one block into at most `horizon` steps
/// (clamped up to the critical length). Minimizes peak FU usage; the FU
/// allocation implied by the result is `peakUsage(deps, sched)` — "the
/// maximum number required in any control step".
///
/// Incremental implementation: the ASAP/ALAP time frames and the
/// distribution graphs are cached across the fix iterations. Fixing an op
/// moves only its descendants' ASAP and its ancestors' ALAP bounds, so
/// each iteration walks one pair of dependence cones per op (descendants
/// from the last step of its frame, ancestors from the first) and derives
/// every candidate step's frame changes by shifting them, instead of
/// rebuilding or re-propagating frames per candidate. Ops whose frame is
/// already one step wide are fixed in one batch before any force is
/// evaluated, where the reference fixes one per scan and discards that
/// scan's forces. The result is identical to the from-scratch HAL
/// formulation (tests/fd_reference.h) on every input: the shifted cones
/// give the same integer fixpoint and force terms accumulate in the same
/// order; only the wall time differs.
[[nodiscard]] BlockSchedule forceDirectedSchedule(const BlockDeps& deps,
                                                  int horizon);

}  // namespace mphls
