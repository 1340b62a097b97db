// Test-only oracle for two-level cover minimization: the original
// restart-scan merge/absorb loop, kept verbatim so the production bucketed
// minimizer (src/ctrl/sop.cpp) can be checked cover-for-cover against it.
#pragma once

#include "ctrl/sop.h"

namespace mphls {

/// After every merge or absorb the scan restarts at the first cube pair:
/// merges (first distance-1 pair with identical outputs, in (i, j) order)
/// run to a fixpoint, then the first covering pair in (big, small) order
/// drops its small cube. minimizeCover must return the identical cover.
/// When given, `merges` and `absorbs` receive how many steps of each kind
/// fired.
[[nodiscard]] SopCover minimizeCoverReference(const SopCover& cover,
                                              int* merges = nullptr,
                                              int* absorbs = nullptr);

}  // namespace mphls
