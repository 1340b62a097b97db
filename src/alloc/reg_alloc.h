// Register allocation (Section 3.2).
//
// Three methods, matching the paper:
//   - LeftEdge: REAL (Kurdahi & Parker) — "REAL is constructive, and
//     selects the earliest value to assign at each step, sharing registers
//     among values whenever possible." The left-edge algorithm is optimal
//     for interval lifetimes: it uses exactly max-overlap registers.
//   - Clique: compatibility-graph clique partitioning (Tseng–Siewiorek).
//   - Naive: one register per storage item (the do-nothing baseline the
//     others are measured against).
#pragma once

#include <vector>

#include "alloc/lifetime.h"

namespace mphls {

enum class RegAllocMethod { LeftEdge, Clique, Naive };

struct RegAssignment {
  /// Register index per storage item (parallel to LifetimeInfo::items).
  std::vector<int> regOfItem;
  int numRegs = 0;
  /// Width of each register: max width of the items sharing it.
  std::vector<int> regWidth;
};

[[nodiscard]] RegAssignment allocateRegisters(
    const LifetimeInfo& lifetimes,
    RegAllocMethod method = RegAllocMethod::LeftEdge);

}  // namespace mphls
