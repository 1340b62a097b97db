// Test-only oracle for clique partitioning: the original O(n^4)
// Tseng–Siewiorek loop, kept verbatim so the production bitset version
// (src/alloc/clique.cpp) can be checked cover-for-cover against it.
#pragma once

#include "alloc/clique.h"

namespace mphls {

/// The straightforward greedy: every merge rescans all compatible pairs and,
/// for each, all nodes for common neighbours. Same selection rule and
/// tie-break as cliquePartition, so the covers must be identical.
[[nodiscard]] CliqueCover cliquePartitionReference(const CompatGraph& g);

}  // namespace mphls
