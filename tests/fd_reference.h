// Test-only oracle for force-directed scheduling: the from-scratch HAL
// formulation, kept so the production incremental scheduler
// (src/sched/force_directed.cpp) can be checked schedule-for-schedule
// against it. It carries its own time-frame and distribution-graph
// recompute and shares no helper with the scheduler it checks.
#pragma once

#include "ir/deps.h"
#include "sched/schedule.h"

namespace mphls {

/// Rebuilds every time frame and distribution graph on each candidate
/// evaluation, and fixes one op per scan (a tight frame is fixed outright
/// and the scan restarts). forceDirectedSchedule must return the identical
/// schedule.
[[nodiscard]] BlockSchedule forceDirectedScheduleReference(
    const BlockDeps& deps, int horizon);

}  // namespace mphls
