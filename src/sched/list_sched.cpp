#include "sched/list_sched.h"

#include <algorithm>
#include <functional>

#include "ir/analysis.h"
#include "sched/sched_util.h"

namespace mphls {

BlockSchedule listSchedule(const BlockDeps& deps, const ResourceLimits& limits,
                           ListPriority priority) {
  const std::size_t n = deps.numOps();
  LevelInfo li = computeLevels(deps);

  // Urgency (Elf/ISYN): the shortest path from the op to the nearest
  // constraint — here the block end. A longer shortest path means an
  // earlier effective deadline, hence more urgent.
  std::vector<int> shortestToEnd(n, 0);
  {
    auto order = deps.topoOrder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      std::size_t i = *it;
      int best = -1;
      for (std::size_t s : deps.succs(i)) {
        if (best < 0 || shortestToEnd[s] < best) best = shortestToEnd[s];
      }
      shortestToEnd[i] = std::max(best, 0) + (deps.occupiesSlot(i) ? 1 : 0);
    }
  }

  // Priority score: higher schedules first.
  auto score = [&](std::size_t i) -> double {
    switch (priority) {
      case ListPriority::PathLength:
        return li.pathToSink[i];
      case ListPriority::Mobility:
        return -li.mobility[i];
      case ListPriority::Urgency:
        return shortestToEnd[i];
      case ListPriority::ProgramOrder:
        return -static_cast<double>(i);
    }
    return 0;
  };

  std::vector<std::vector<const DepEdge*>> in(n);
  for (const DepEdge& e : deps.edges()) in[e.to].push_back(&e);

  std::vector<int> occSteps(n, -1);
  std::vector<int> placedStep(n, -1);  // all ops (chained resolved inline)
  std::vector<std::size_t> pending(n, 0);
  for (std::size_t i = 0; i < n; ++i) pending[i] = in[i].size();

  UsageTracker usage(limits);

  // Pool of occupying ops whose predecessors are all placed.
  std::vector<std::size_t> pool;
  std::size_t remaining = 0;

  // Resolve an op once its predecessors are placed: chained ops get their
  // bound step immediately; occupying ops enter the ready pool.
  std::vector<std::size_t> resolveQueue;
  auto onPredsPlaced = [&](std::size_t i) { resolveQueue.push_back(i); };

  auto bound = [&](std::size_t i) {
    int b = 0;
    for (const DepEdge* e : in[i]) {
      MPHLS_CHECK(placedStep[e->from] >= 0, "pred not placed");
      b = std::max(b, placedStep[e->from] + deps.edgeLatency(*e));
    }
    return b;
  };

  std::function<void(std::size_t)> markPlaced = [&](std::size_t i) {
    for (std::size_t s : deps.succs(i))
      if (--pending[s] == 0) onPredsPlaced(s);
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (deps.occupiesSlot(i)) ++remaining;
    if (pending[i] == 0) onPredsPlaced(i);
  }

  auto drainResolveQueue = [&]() {
    while (!resolveQueue.empty()) {
      std::size_t i = resolveQueue.back();
      resolveQueue.pop_back();
      if (deps.occupiesSlot(i)) {
        pool.push_back(i);
      } else {
        placedStep[i] = bound(i);
        markPlaced(i);
      }
    }
  };
  drainResolveQueue();

  int cur = 0;
  while (remaining > 0) {
    // Available = in pool with dependence bound satisfied at `cur`.
    std::vector<std::size_t> avail;
    for (std::size_t i : pool)
      if (bound(i) <= cur) avail.push_back(i);
    std::stable_sort(avail.begin(), avail.end(),
                     [&](std::size_t a, std::size_t b) {
                       return score(a) > score(b);
                     });
    for (std::size_t i : avail) {
      FuClass c = scheduleClassOf(deps, i);
      if (!usage.canPlace(c, cur, deps.duration(i)))
        continue;  // deferred to the next step
      usage.place(c, cur, deps.duration(i));
      occSteps[i] = cur;
      placedStep[i] = cur;
      pool.erase(std::find(pool.begin(), pool.end(), i));
      --remaining;
      markPlaced(i);
      drainResolveQueue();
    }
    ++cur;
    MPHLS_CHECK(cur < static_cast<int>(4 * n + 16),
                "list scheduler failed to converge");
  }
  return finalizeSchedule(deps, occSteps);
}

}  // namespace mphls
