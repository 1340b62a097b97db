#include "fd_reference.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "ir/analysis.h"
#include "sched/sched_util.h"

namespace mphls {

namespace {

/// ASAP/ALAP frames honoring already-fixed ops.
struct Frames {
  std::vector<int> lo, hi;
};

Frames computeFrames(const BlockDeps& deps, int horizon,
                     const std::vector<int>& fixed) {
  const std::size_t n = deps.numOps();
  Frames fr;
  fr.lo.assign(n, 0);
  fr.hi.assign(n, horizon - 1);

  std::vector<std::vector<const DepEdge*>> in(n), out(n);
  for (const DepEdge& e : deps.edges()) {
    in[e.to].push_back(&e);
    out[e.from].push_back(&e);
  }
  auto order = deps.topoOrder();
  for (std::size_t i : order) {
    if (fixed[i] >= 0) fr.lo[i] = fixed[i];
    for (const DepEdge* e : in[i])
      fr.lo[i] = std::max(fr.lo[i], fr.lo[e->from] + deps.edgeLatency(*e));
    if (fixed[i] >= 0) fr.lo[i] = std::max(fr.lo[i], fixed[i]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t i = *it;
    if (fixed[i] >= 0) fr.hi[i] = fixed[i];
    for (const DepEdge* e : out[i])
      fr.hi[i] = std::min(fr.hi[i], fr.hi[e->to] - deps.edgeLatency(*e));
    fr.hi[i] = std::max(fr.hi[i], fr.lo[i]);  // keep frames non-empty
  }
  return fr;
}

/// Expected per-step load per FU class: 1/k on each step of an op's
/// k-step frame.
std::map<FuClass, std::vector<double>> distributionGraphs(
    const BlockDeps& deps, int horizon, const Frames& fr) {
  std::map<FuClass, std::vector<double>> dgs;
  for (std::size_t i = 0; i < deps.numOps(); ++i) {
    FuClass c = scheduleClassOf(deps, i);
    if (c == FuClass::None) continue;
    auto& load = dgs[c];
    if (load.empty()) load.assign(static_cast<std::size_t>(horizon), 0.0);
    const int k = fr.hi[i] - fr.lo[i] + 1;
    for (int s = fr.lo[i]; s <= fr.hi[i]; ++s)
      load[static_cast<std::size_t>(s)] += 1.0 / k;
  }
  return dgs;
}

double loadAt(const std::vector<double>& load, int step) {
  return step >= 0 && step < static_cast<int>(load.size())
             ? load[static_cast<std::size_t>(step)]
             : 0.0;
}

}  // namespace

BlockSchedule forceDirectedScheduleReference(const BlockDeps& deps,
                                             int horizon) {
  const std::size_t n = deps.numOps();
  LevelInfo li = computeLevels(deps, horizon);
  horizon = std::max(horizon, li.criticalLength);

  std::vector<int> fixed(n, -1);

  // Iteratively fix the (op, step) assignment with the least force.
  for (;;) {
    Frames fr = computeFrames(deps, horizon, fixed);
    auto dgs = distributionGraphs(deps, horizon, fr);

    // Find an unfixed occupying op.
    bool any = false;
    double bestForce = std::numeric_limits<double>::max();
    std::size_t bestOp = 0;
    int bestStep = 0;

    for (std::size_t i = 0; i < n; ++i) {
      FuClass c = scheduleClassOf(deps, i);
      if (c == FuClass::None || fixed[i] >= 0) continue;
      if (fr.lo[i] == fr.hi[i]) {
        // Frame already tight: fix it outright.
        fixed[i] = fr.lo[i];
        any = true;
        bestForce = std::numeric_limits<double>::max();
        break;
      }
      any = true;
      const std::vector<double>& dg = dgs.at(c);
      const int k = fr.hi[i] - fr.lo[i] + 1;
      const double avg = 1.0 / k;
      for (int s = fr.lo[i]; s <= fr.hi[i]; ++s) {
        // Self force: DG(s)*(x(s) - avg) summed over the frame, where x is
        // the candidate assignment (1 at s, 0 elsewhere).
        double force = 0;
        for (int t = fr.lo[i]; t <= fr.hi[i]; ++t) {
          double x = (t == s) ? 1.0 : 0.0;
          force += loadAt(dg, t) * (x - avg);
        }
        // Successor/predecessor forces: fixing i at s narrows neighbors'
        // frames; approximate with the DG load change of direct neighbors.
        std::vector<int> trial = fixed;
        trial[i] = s;
        Frames trialFr = computeFrames(deps, horizon, trial);
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          FuClass cj = scheduleClassOf(deps, j);
          if (cj == FuClass::None || fixed[j] >= 0) continue;
          if (trialFr.lo[j] == fr.lo[j] && trialFr.hi[j] == fr.hi[j]) continue;
          const std::vector<double>& dgj = dgs.at(cj);
          int kOld = fr.hi[j] - fr.lo[j] + 1;
          int kNew = trialFr.hi[j] - trialFr.lo[j] + 1;
          for (int t = trialFr.lo[j]; t <= trialFr.hi[j]; ++t)
            force += loadAt(dgj, t) * (1.0 / kNew);
          for (int t = fr.lo[j]; t <= fr.hi[j]; ++t)
            force -= loadAt(dgj, t) * (1.0 / kOld);
        }
        if (force < bestForce) {
          bestForce = force;
          bestOp = i;
          bestStep = s;
        }
      }
    }
    if (!any) break;
    if (bestForce != std::numeric_limits<double>::max()) {
      fixed[bestOp] = bestStep;
    }
  }
  return finalizeSchedule(deps, fixed);
}

}  // namespace mphls
