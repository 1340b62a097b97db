// Stage-boundary analyzer 1: schedule legality.
//
// The contract a scheduler must establish (Section 3.1): every operation is
// assigned a control step inside its block's range; every data/control
// dependence is separated by at least the producing edge's latency (so
// values exist before they are consumed and storage hazards are ordered);
// multi-cycle operations finish inside the block and never overlap their
// successors; and in no control step does the number of concurrently
// executing operations of a class exceed the declared resource limits.
#pragma once

#include "check/report.h"
#include "ir/cdfg.h"
#include "ir/latency.h"
#include "sched/resource.h"
#include "sched/schedule.h"

namespace mphls {

// Check ids reported:
//   sched.block-count       schedule does not cover every block
//   sched.op-count          block schedule does not cover every op
//   sched.step-range        op step outside [0, numSteps)
//   sched.dep-order         dependence edge separation violated
//   sched.multicycle-span   multi-cycle op runs past the end of its block
//   sched.resource-limit    per-step concurrency exceeds a resource limit
void checkSchedule(const Function& fn, const Schedule& sched,
                   const ResourceLimits& limits,
                   const OpLatencyModel& latencies, CheckReport& report);

/// The first error of checkSchedule ("" when clean). It remains for the
/// stage-by-stage replay in perfbench/src/synth_large.cpp, which calls
/// this name; new code calls checkSchedule.
[[nodiscard]] std::string validateSchedule(
    const Function& fn, const Schedule& sched, const ResourceLimits& limits,
    const OpLatencyModel& latencies = OpLatencyModel::unit());

}  // namespace mphls
