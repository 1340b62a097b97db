#include "sched/force_directed.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>

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

/// Frame change produced by a (trial or committed) fix.
struct FrameDiff {
  std::size_t op = 0;
  int lo = 0, hi = 0;  ///< the op's new frame
};

/// Cached frames + distribution graphs for one force-directed run.
///
/// trial(i, s) answers "which frames change if op i is fixed at step s?"
/// by propagating only along affected dependence chains: the ASAP pass
/// walks forward from i in topological order, the ALAP pass walks backward
/// from i and from every op whose ASAP bound moved (the non-empty-frame
/// clamp couples hi to lo). Both passes recompute a node exactly the way
/// computeFrames does, so the reachable fixpoint — and therefore the
/// schedule — is identical to the from-scratch computation. The worklists
/// are binary heaps over topological positions; a generation-stamped mark
/// keeps an op from being queued twice in one pass.
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
    loStamp_.assign(n_, 0);
    hiStamp_.assign(n_, 0);
    fwdQueued_.assign(n_, 0);
    revQueued_.assign(n_, 0);
    loVal_.assign(n_, 0);
    hiVal_.assign(n_, 0);

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

  /// Ops whose frames change when `i` is fixed at `s`, sorted by op index
  /// (so force terms accumulate in the reference order), each with its
  /// new frame. Ops whose recomputed frame is unchanged are absent. Valid
  /// until the next trial() or fix() call.
  const std::vector<FrameDiff>& trial(std::size_t i, int s) {
    ++gen_;
    diff_.clear();
    changedLo_.clear();
    changedHi_.clear();
    trialOp_ = i;
    trialStep_ = s;

    // ASAP pass: forward from i in topological order (min-heap).
    heap_.clear();
    queueFwd(i);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<std::size_t>());
      const std::size_t j = topo_[heap_.back()];
      heap_.pop_back();
      const int f = fixedAt(j);
      int v = f >= 0 ? f : 0;
      for (const auto& [from, lat] : in_[j])
        v = std::max(v, loOf(from) + lat);
      if (v == fr_.lo[j]) continue;
      loVal_[j] = v;
      loStamp_[j] = gen_;
      changedLo_.push_back(j);
      for (const auto& [to, lat] : out_[j]) queueFwd(to);
    }

    // ALAP pass: backward from i and from every op whose lo moved (the
    // non-empty-frame clamp couples hi to lo), in reverse topological
    // order (max-heap).
    heap_.clear();
    queueRev(i);
    for (std::size_t j : changedLo_) queueRev(j);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const std::size_t j = topo_[heap_.back()];
      heap_.pop_back();
      const int f = fixedAt(j);
      int v = f >= 0 ? f : horizon_ - 1;
      for (const auto& [to, lat] : out_[j]) v = std::min(v, hiOf(to) - lat);
      v = std::max(v, loOf(j));  // keep frames non-empty
      if (v == fr_.hi[j]) continue;
      hiVal_[j] = v;
      hiStamp_[j] = gen_;
      changedHi_.push_back(j);
      for (const auto& [from, lat] : in_[j]) queueRev(from);
    }

    for (std::size_t j : changedLo_) diff_.push_back({j, loOf(j), hiOf(j)});
    for (std::size_t j : changedHi_)
      if (loStamp_[j] != gen_) diff_.push_back({j, loOf(j), hiOf(j)});
    std::sort(diff_.begin(), diff_.end(),
              [](const FrameDiff& a, const FrameDiff& b) {
                return a.op < b.op;
              });
    return diff_;
  }

  /// Fix op `i` at step `s`: apply the trial deltas to the cached frames
  /// and refresh the distribution graphs.
  void fix(std::size_t i, int s) {
    const auto& d = trial(i, s);
    fixed_[i] = s;
    for (const FrameDiff& df : d) {
      fr_.lo[df.op] = df.lo;
      fr_.hi[df.op] = df.hi;
    }
    trialOp_ = kNoTrial;
    rebuildDgs();
  }

  /// Fix op `i`, whose frame is already one step wide, at that step.
  /// Pinning it there recomputes every frame to its current value (its lo
  /// and its clamped hi are that step either way), so frames and graphs
  /// stand.
  void fixTight(std::size_t i) { fixed_[i] = fr_.lo[i]; }

 private:
  static constexpr std::size_t kNoTrial =
      std::numeric_limits<std::size_t>::max();

  [[nodiscard]] int fixedAt(std::size_t j) const {
    return j == trialOp_ ? trialStep_ : fixed_[j];
  }
  [[nodiscard]] int loOf(std::size_t j) const {
    return loStamp_[j] == gen_ ? loVal_[j] : fr_.lo[j];
  }
  [[nodiscard]] int hiOf(std::size_t j) const {
    return hiStamp_[j] == gen_ ? hiVal_[j] : fr_.hi[j];
  }
  void queueFwd(std::size_t j) {
    if (fwdQueued_[j] == gen_) return;
    fwdQueued_[j] = gen_;
    heap_.push_back(pos_[j]);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<std::size_t>());
  }
  void queueRev(std::size_t j) {
    if (revQueued_[j] == gen_) return;
    revQueued_[j] = gen_;
    heap_.push_back(pos_[j]);
    std::push_heap(heap_.begin(), heap_.end());
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

  // Trial scratch: generation-stamped overlays over fr_ and queue marks,
  // so a trial costs only its affected ops — nothing is cleared between
  // candidates.
  unsigned gen_ = 0;
  std::size_t trialOp_ = kNoTrial;
  int trialStep_ = -1;
  std::vector<unsigned> loStamp_, hiStamp_, fwdQueued_, revQueued_;
  std::vector<int> loVal_, hiVal_;
  std::vector<std::size_t> changedLo_, changedHi_;
  std::vector<std::size_t> heap_;  ///< topological positions
  std::vector<FrameDiff> diff_;
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
        // The cache hands back exactly the ops whose frames the trial
        // placement moved, in ascending op order.
        for (const FrameDiff& df : cache.trial(i, s)) {
          const std::size_t j = df.op;
          const DistributionGraph* dgj = cache.dgOf(j);
          if (j == i || dgj == nullptr || fixed[j] >= 0) continue;
          int kOld = fr.hi[j] - fr.lo[j] + 1;
          int kNew = df.hi - df.lo + 1;
          for (int t = df.lo; t <= df.hi; ++t)
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

BlockSchedule forceDirectedScheduleReference(const BlockDeps& deps,
                                             int horizon) {
  const std::size_t n = deps.numOps();
  LevelInfo li = computeLevels(deps, horizon);
  horizon = std::max(horizon, li.criticalLength);

  std::vector<int> fixed(n, -1);

  // Iteratively fix the (op, step) assignment with the least force.
  for (;;) {
    Frames fr = computeFrames(deps, horizon, fixed);
    auto dgs = distributionGraphs(deps, horizon, fixed);

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
      const DistributionGraph& dg = dgs.at(c);
      const int k = fr.hi[i] - fr.lo[i] + 1;
      const double avg = 1.0 / k;
      for (int s = fr.lo[i]; s <= fr.hi[i]; ++s) {
        // Self force: DG(s)*(x(s) - avg) summed over the frame, where x is
        // the candidate assignment (1 at s, 0 elsewhere).
        double force = 0;
        for (int t = fr.lo[i]; t <= fr.hi[i]; ++t) {
          double x = (t == s) ? 1.0 : 0.0;
          force += dg.at(t) * (x - avg);
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
          const DistributionGraph& dgj = dgs.at(cj);
          int kOld = fr.hi[j] - fr.lo[j] + 1;
          int kNew = trialFr.hi[j] - trialFr.lo[j] + 1;
          for (int t = trialFr.lo[j]; t <= trialFr.hi[j]; ++t)
            force += dgj.at(t) * (1.0 / kNew);
          for (int t = fr.lo[j]; t <= fr.hi[j]; ++t)
            force -= dgj.at(t) * (1.0 / kOld);
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
