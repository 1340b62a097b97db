#include "sched/force_directed.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>

#include "common/diag.h"
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
    if (!fixed.empty() && fixed[i] >= 0) fr.lo[i] = fixed[i];
    for (const DepEdge* e : in[i])
      fr.lo[i] = std::max(fr.lo[i], fr.lo[e->from] + deps.edgeLatency(*e));
    if (!fixed.empty() && fixed[i] >= 0)
      fr.lo[i] = std::max(fr.lo[i], fixed[i]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t i = *it;
    if (!fixed.empty() && fixed[i] >= 0) fr.hi[i] = fixed[i];
    for (const DepEdge* e : out[i])
      fr.hi[i] = std::min(fr.hi[i], fr.hi[e->to] - deps.edgeLatency(*e));
    fr.hi[i] = std::max(fr.hi[i], fr.lo[i]);  // keep frames non-empty
  }
  return fr;
}

/// One op of a fixed op's dependence cone: a descendant whose ASAP bound
/// or an ancestor whose ALAP bound the fix moves, with the longest-path
/// latency between the two.
struct ConeEntry {
  std::size_t op = 0;
  int dist = 0;       ///< L(i, op) for a descendant, L(op, i) for an ancestor
  bool down = false;  ///< descendant (lo moves) rather than ancestor (hi)
};

/// Cached frames + distribution graphs for one force-directed run.
///
/// The cached frames are the ASAP/ALAP fixpoint of computeFrames, and
/// every fix lands inside its op's frame. Under that invariant fixing op i
/// at step s moves exactly two sets of frames: each descendant j gets
/// lo = max(lo_j, s + L(i,j)) and each ancestor j gets
/// hi = min(hi_j, s - L(j,i)), where L is the longest-path latency. No
/// other frame moves: a descendant's new lo never passes its hi, so the
/// non-empty clamp (which holds the trailing non-occupying ops past the
/// horizon) keeps every clamped frame where it is. propagate() walks one
/// cone from i with a binary heap over topological positions, following
/// only the ops whose bound moved, and checks that no derived frame comes
/// out empty.
class FrameCache {
 public:
  FrameCache(const BlockDeps& deps, int horizon)
      : horizon_(horizon), n_(deps.numOps()) {
    in_.resize(n_);
    out_.resize(n_);
    for (const DepEdge& e : deps.edges()) {
      const int lat = deps.edgeLatency(e);
      in_[e.to].push_back({e.from, lat});
      out_[e.from].push_back({e.to, lat});
    }
    topo_ = deps.topoOrder();
    pos_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) pos_[topo_[k]] = k;
    fixed_.assign(n_, -1);
    fr_ = computeFrames(deps, horizon, fixed_);
    stamp_.assign(n_, 0);
    val_.assign(n_, 0);

    // One distribution graph per FU class present; each op keeps a
    // pointer to its own (map nodes do not move).
    dgOf_.assign(n_, nullptr);
    for (std::size_t i = 0; i < n_; ++i) {
      const FuClass c = scheduleClassOf(deps, i);
      if (c == FuClass::None) continue;
      dgOf_[i] = &dgs_[c];
      dgOf_[i]->fuClass = c;
    }
    rebuildDgs();
  }

  // dgOf_ points into dgs_.
  FrameCache(const FrameCache&) = delete;
  FrameCache& operator=(const FrameCache&) = delete;

  [[nodiscard]] const Frames& frames() const { return fr_; }
  [[nodiscard]] const std::vector<int>& fixed() const { return fixed_; }
  /// The distribution graph op `i` loads, or null for non-occupying ops.
  [[nodiscard]] const DistributionGraph* dgOf(std::size_t i) const {
    return dgOf_[i];
  }

  /// The two cones of op `i`, sorted by op index (so force terms
  /// accumulate in the reference order): the descendants whose lo moves
  /// when i is fixed at hi_i and the ancestors whose hi moves when it is
  /// fixed at lo_i. Fixing i at any s in its frame moves a descendant j to
  /// lo = s + dist where that exceeds lo_j, and an ancestor j to
  /// hi = s - dist where that is below hi_j. Valid until the next cones()
  /// or fix() call.
  const std::vector<ConeEntry>& cones(std::size_t i) {
    cone_.clear();
    propagate(i, fr_.hi[i], true);
    propagate(i, fr_.lo[i], false);
    std::sort(cone_.begin(), cone_.end(),
              [](const ConeEntry& a, const ConeEntry& b) {
                return a.op < b.op;
              });
    return cone_;
  }

  /// Fix op `i` at step `s`: move the frames of its cones at s and
  /// refresh the distribution graphs.
  void fix(std::size_t i, int s) {
    cone_.clear();
    propagate(i, s, true);
    propagate(i, s, false);
    for (const ConeEntry& e : cone_) {
      if (e.down)
        fr_.lo[e.op] = s + e.dist;
      else
        fr_.hi[e.op] = s - e.dist;
    }
    fixed_[i] = fr_.lo[i] = fr_.hi[i] = s;
    rebuildDgs();
  }

  /// Fix op `i`, whose frame is already one step wide, at that step.
  /// Pinning it there recomputes every frame to its current value (its lo
  /// and its clamped hi are that step either way), so frames and graphs
  /// stand.
  void fixTight(std::size_t i) { fixed_[i] = fr_.lo[i]; }

 private:
  /// Append to cone_ every op whose bound moves when op `i` takes `s` as
  /// its lo (`down`, walking descendants in topological order) or as its
  /// hi (walking ancestors in reverse topological order).
  void propagate(std::size_t i, int s, bool down) {
    ++gen_;
    heap_.clear();
    const auto key = [&](std::size_t j) {
      return down ? pos_[j] : n_ - 1 - pos_[j];
    };
    const auto push = [&](std::size_t j) {
      stamp_[j] = gen_;
      heap_.push_back(key(j));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<std::size_t>());
    };
    val_[i] = s;
    push(i);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<std::size_t>());
      const std::size_t k = heap_.back();
      heap_.pop_back();
      const std::size_t j = topo_[down ? k : n_ - 1 - k];
      const int v = val_[j];
      if (j != i) cone_.push_back({j, down ? v - s : s - v, down});
      for (const auto& [next, lat] : down ? out_[j] : in_[j]) {
        const int w = down ? v + lat : v - lat;
        const bool queued = stamp_[next] == gen_;
        const int cur = queued ? val_[next]
                        : down ? fr_.lo[next]
                               : fr_.hi[next];
        if (down ? w <= cur : w >= cur) continue;
        MPHLS_CHECK(down ? w <= fr_.hi[next] : w >= fr_.lo[next],
                    "force-directed fix empties the frame of op " << next);
        val_[next] = w;
        if (!queued) push(next);
      }
    }
  }

  // Same per-op contribution loop as distributionGraphs(), run over the
  // cached frames: identical iteration order, identical floating-point
  // sums.
  void rebuildDgs() {
    for (auto& [c, dg] : dgs_)
      dg.load.assign(static_cast<std::size_t>(horizon_), 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      if (dgOf_[i] == nullptr) continue;
      auto& load = dgOf_[i]->load;
      const int k = fr_.hi[i] - fr_.lo[i] + 1;
      for (int s = fr_.lo[i]; s <= fr_.hi[i]; ++s)
        load[static_cast<std::size_t>(s)] += 1.0 / k;
    }
  }

  const int horizon_;
  const std::size_t n_;
  std::vector<std::vector<std::pair<std::size_t, int>>> in_, out_;
  std::vector<std::size_t> topo_, pos_;
  std::vector<int> fixed_;
  Frames fr_;
  std::map<FuClass, DistributionGraph> dgs_;
  std::vector<DistributionGraph*> dgOf_;

  // Propagation scratch: a generation stamp marks the ops queued in the
  // current pass and val_ holds their moved bound, so nothing is cleared
  // between passes.
  unsigned gen_ = 0;
  std::vector<unsigned> stamp_;
  std::vector<int> val_;
  std::vector<std::size_t> heap_;  ///< keyed topological positions
  std::vector<ConeEntry> cone_;
};

}  // namespace

std::map<FuClass, DistributionGraph> distributionGraphs(
    const BlockDeps& deps, int horizon, const std::vector<int>& fixed) {
  LevelInfo li = computeLevels(deps, horizon);
  horizon = std::max(horizon, li.criticalLength);
  Frames fr = computeFrames(deps, horizon, fixed);

  std::map<FuClass, DistributionGraph> dgs;
  for (std::size_t i = 0; i < deps.numOps(); ++i) {
    FuClass c = scheduleClassOf(deps, i);
    if (c == FuClass::None) continue;
    auto& dg = dgs[c];
    dg.fuClass = c;
    if (dg.load.empty()) dg.load.assign(static_cast<std::size_t>(horizon), 0.0);
    const int k = fr.hi[i] - fr.lo[i] + 1;
    for (int s = fr.lo[i]; s <= fr.hi[i]; ++s)
      dg.load[static_cast<std::size_t>(s)] += 1.0 / k;
  }
  return dgs;
}

BlockSchedule forceDirectedSchedule(const BlockDeps& deps, int horizon) {
  const std::size_t n = deps.numOps();
  LevelInfo li = computeLevels(deps, horizon);
  horizon = std::max(horizon, li.criticalLength);

  FrameCache cache(deps, horizon);
  const Frames& fr = cache.frames();
  const std::vector<int>& fixed = cache.fixed();

  // Iteratively fix the (op, step) assignment with the least force.
  for (;;) {
    // Fix every op whose frame is already one step wide. The reference
    // fixes the first such op and rescans, discarding every force it
    // evaluated on the way; those fixes move no frame, so the rescans
    // reach each tight op in turn and then evaluate exactly the forces
    // evaluated below.
    for (std::size_t i = 0; i < n; ++i)
      if (cache.dgOf(i) != nullptr && fixed[i] < 0 && fr.lo[i] == fr.hi[i])
        cache.fixTight(i);

    bool any = false;
    double bestForce = std::numeric_limits<double>::max();
    std::size_t bestOp = 0;
    int bestStep = 0;

    for (std::size_t i = 0; i < n; ++i) {
      const DistributionGraph* dg = cache.dgOf(i);
      if (dg == nullptr || fixed[i] >= 0) continue;
      any = true;
      const int k = fr.hi[i] - fr.lo[i] + 1;
      const double avg = 1.0 / k;
      const std::vector<ConeEntry>& cone = cache.cones(i);
      for (int s = fr.lo[i]; s <= fr.hi[i]; ++s) {
        // Self force: DG(s)*(x(s) - avg) summed over the frame, where x is
        // the candidate assignment (1 at s, 0 elsewhere).
        double force = 0;
        for (int t = fr.lo[i]; t <= fr.hi[i]; ++t) {
          double x = (t == s) ? 1.0 : 0.0;
          force += dg->at(t) * (x - avg);
        }
        // Successor/predecessor forces: fixing i at s narrows neighbors'
        // frames; approximate with the DG load change of direct neighbors.
        // The cones, shifted to s, give exactly the ops whose frames the
        // placement moves, in ascending op order. Fixed ops never enter a
        // cone: their one-step frame cannot move.
        for (const ConeEntry& e : cone) {
          const std::size_t j = e.op;
          const DistributionGraph* dgj = cache.dgOf(j);
          if (dgj == nullptr) continue;
          int lo = fr.lo[j], hi = fr.hi[j];
          if (e.down) {
            if (s + e.dist <= lo) continue;
            lo = s + e.dist;
          } else {
            if (s - e.dist >= hi) continue;
            hi = s - e.dist;
          }
          int kOld = fr.hi[j] - fr.lo[j] + 1;
          int kNew = hi - lo + 1;
          for (int t = lo; t <= hi; ++t)
            force += dgj->at(t) * (1.0 / kNew);
          for (int t = fr.lo[j]; t <= fr.hi[j]; ++t)
            force -= dgj->at(t) * (1.0 / kOld);
        }
        if (force < bestForce) {
          bestForce = force;
          bestOp = i;
          bestStep = s;
        }
      }
    }
    if (!any) break;
    cache.fix(bestOp, bestStep);
  }
  return finalizeSchedule(deps, fixed);
}

}  // namespace mphls
