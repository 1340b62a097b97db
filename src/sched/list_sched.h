// List scheduling (Section 3.1.2, Fig. 4): "For each control step to be
// scheduled, the operations that are available to be scheduled into that
// control step ... are kept in a list, ordered by some priority function.
// Each operation on the list is taken in turn and is scheduled if the
// resources it needs are still free in that step; otherwise it is deferred
// to the next step."
//
// The priority function is pluggable, reproducing the variants the paper
// attributes to different systems:
//   - PathLength: "the length of the path from the operation to the end of
//     the block" (BUD; also Fig. 4's worked example);
//   - Mobility:   least ALAP-ASAP slack first (most critical first);
//   - Urgency:    "the length of the shortest path from that operation to
//     the nearest local constraint" (Elf, ISYN) — here the distance to the
//     block end through the op's successor chain;
//   - ProgramOrder: no priority (degenerates to ASAP's behavior).
#pragma once

#include "ir/deps.h"
#include "sched/resource.h"
#include "sched/schedule.h"

namespace mphls {

enum class ListPriority { PathLength, Mobility, Urgency, ProgramOrder };

[[nodiscard]] BlockSchedule listSchedule(
    const BlockDeps& deps, const ResourceLimits& limits,
    ListPriority priority = ListPriority::PathLength);

}  // namespace mphls
