// Schedule representation and validation.
//
// "Scheduling consists in assigning the operations to so-called control
// steps. A control step is the fundamental sequencing unit in synchronous
// systems; it corresponds to a clock cycle." (Section 2)
//
// A BlockSchedule assigns every operation of one basic block to a control
// step; a Schedule aggregates per-block schedules for a whole function.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/analysis.h"
#include "ir/cdfg.h"
#include "ir/deps.h"
#include "lib/library.h"
#include "sched/resource.h"

namespace mphls {

/// Control-step assignment for one basic block.
struct BlockSchedule {
  std::vector<int> step;  ///< per op index in Block::ops
  int numSteps = 0;

  [[nodiscard]] bool empty() const { return step.empty(); }
};

/// Whole-function schedule.
struct Schedule {
  std::vector<BlockSchedule> blocks;  ///< indexed by BlockId

  [[nodiscard]] const BlockSchedule& of(BlockId b) const {
    return blocks.at(b.index());
  }
  [[nodiscard]] BlockSchedule& of(BlockId b) { return blocks.at(b.index()); }

  /// Sum of per-block step counts (static one-pass latency).
  [[nodiscard]] int totalSteps() const;

  /// Control steps consumed by an execution following `blockTrace`
  /// (e.g. the paper's 3 + 4*5 = 23 accounting for the sqrt loop).
  [[nodiscard]] long stepsForTrace(const std::vector<BlockId>& trace) const;
};

/// Check a block schedule against the dependence graph: every op has a
/// step in [0, numSteps), and every edge's latency is respected. Returns
/// an empty string when valid, else a description of the violation.
[[nodiscard]] std::string validateBlockSchedule(const BlockDeps& deps,
                                                const BlockSchedule& sched);

/// Also check resource limits: in no step does the number of slot-occupying
/// ops of a class exceed its limit.
[[nodiscard]] std::string validateBlockSchedule(const BlockDeps& deps,
                                                const BlockSchedule& sched,
                                                const ResourceLimits& limits);

/// Validate every block of a function schedule (with resource limits).
[[nodiscard]] std::string validateSchedule(
    const Function& fn, const Schedule& sched, const ResourceLimits& limits,
    const OpLatencyModel& latencies = OpLatencyModel::unit());

/// Per-class peak concurrency of a block schedule: the number of functional
/// units of each class the schedule requires (HAL's "maximum number required
/// in any control step").
[[nodiscard]] std::map<FuClass, int> peakUsage(const BlockDeps& deps,
                                               const BlockSchedule& sched);

/// Peak usage across all blocks of a function.
[[nodiscard]] std::map<FuClass, int> peakUsage(const Function& fn,
                                               const Schedule& sched);

/// The FU class an op is charged against in a schedule: structural moves
/// map to FuClass::Move, chained sinks and free ops to FuClass::None.
[[nodiscard]] FuClass scheduleClassOf(const BlockDeps& deps, std::size_t i);
/// The same for one op of `fn`, without a dependence graph.
[[nodiscard]] FuClass scheduleClassOf(const Function& fn, const Op& o);

/// ASCII rendering of a block schedule (one line per control step), in the
/// spirit of the paper's Fig. 2/3/4 schedule drawings.
[[nodiscard]] std::string renderBlockSchedule(const BlockDeps& deps,
                                              const BlockSchedule& sched);

}  // namespace mphls
