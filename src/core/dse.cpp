#include "core/dse.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/thread_pool.h"
#include "core/frontend_cache.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/verilog.h"
#include "sched/sched_util.h"

namespace mphls {

namespace {

/// Synthesize one sweep point from the shared optimized IR.
DsePoint synthesizePoint(const Function& fn, const SynthesisOptions& opts,
                         std::string label, int limit) {
  DsePoint p;
  {
    // The span both shows the point on the executing thread's trace lane
    // and measures DsePoint::wallSeconds — one clock pair for both.
    obs::TraceSpan span("dse.point", label, &p.wallSeconds);
    Synthesizer synth(opts);
    SynthesisResult r = synth.synthesizeOptimized(fn);
    p.label = std::move(label);
    p.limit = limit;
    p.latencySteps = r.staticLatency();
    p.cycleTime = r.timing.cycleTime;
    p.area = r.area.total();
    if (opts.dseCaptureVerilog && opts.latencies.isUnit())
      p.verilog = emitVerilog(r.design);
  }
  auto& mr = obs::MetricsRegistry::global();
  mr.counter("dse.points").add();
  mr.histogram("dse.point_seconds").observe(p.wallSeconds);
  return p;
}

/// The list-scheduled point with `n` universal units (resource sweep and
/// Chippe budgets).
DsePoint budgetPoint(const Function& fn, const SynthesisOptions& base,
                     int n) {
  SynthesisOptions opts = base;
  opts.scheduler = SchedulerKind::List;
  opts.resources = ResourceLimits::universalSet(n);
  return synthesizePoint(fn, opts, std::to_string(n) + " FUs", n);
}

}  // namespace

bool samePoint(const DsePoint& a, const DsePoint& b) {
  return a.label == b.label && a.limit == b.limit &&
         a.latencySteps == b.latencySteps && a.cycleTime == b.cycleTime &&
         a.area == b.area && a.pareto == b.pareto && a.verilog == b.verilog;
}

std::string renderPoints(const std::vector<DsePoint>& points) {
  std::string out;
  for (const auto& p : points) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-12s %6d %8d %12.4f %12.2f %s\n",
                  p.label.c_str(), p.limit, p.latencySteps, p.cycleTime,
                  p.area, p.pareto ? "*" : "-");
    out += buf;
  }
  return out;
}

void markPareto(std::vector<DsePoint>& points) {
  // Rank points by (latency, area, label); the label only sequences exact
  // metric ties, so the marking is a function of the point multiset alone
  // — independent of sweep order, thread count, and duplicate placement.
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const DsePoint& pa = points[a];
    const DsePoint& pb = points[b];
    if (pa.latencySteps != pb.latencySteps)
      return pa.latencySteps < pb.latencySteps;
    if (pa.area != pb.area) return pa.area < pb.area;
    return pa.label < pb.label;
  });

  // Sweep latency groups in increasing order. A point is on the front iff
  // it has its group's minimal area and no strictly faster point matched
  // or beat that area.
  double fasterBest = std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < order.size()) {
    const int lat = points[order[g]].latencySteps;
    const double groupMin = points[order[g]].area;  // sorted: first is min
    std::size_t h = g;
    while (h < order.size() && points[order[h]].latencySteps == lat) ++h;
    for (std::size_t i = g; i < h; ++i) {
      DsePoint& p = points[order[i]];
      p.pareto = p.area == groupMin && p.area < fasterBest;
    }
    fasterBest = std::min(fasterBest, groupMin);
    g = h;
  }
}

std::vector<DsePoint> exploreResourceSweep(const std::string& source,
                                           int maxUniversalFus,
                                           SynthesisOptions base) {
  if (maxUniversalFus < 1) return {};
  auto fn = FrontendCache::global().get(source, "", base.opt);
  const std::size_t count = static_cast<std::size_t>(maxUniversalFus);
  std::vector<DsePoint> points(count);
  obs::Logger::global().debug("dse", "resource sweep start",
                              {{"points", count}, {"jobs", base.jobs}});
  parallelFor(sharedPool("dse", base.jobs, count), count,
              [&](std::size_t idx) {
    points[idx] = budgetPoint(*fn, base, static_cast<int>(idx) + 1);
  });
  markPareto(points);
  obs::Logger::global().info("dse", "resource sweep done",
                             {{"points", count}, {"jobs", base.jobs}});
  return points;
}

std::vector<DsePoint> exploreTimeSweep(const std::string& source,
                                       int extraSlack,
                                       SynthesisOptions base) {
  auto fn = FrontendCache::global().get(source, "", base.opt);

  // Sweep uniform horizons upward from the longest block's unconstrained
  // ASAP length: the step count an unconstrained force-directed run ends
  // at (the tests hold the two equal), read off without synthesizing.
  // forceDirectedSchedule clamps each block to its own critical length.
  int maxBlockSteps = 0;
  for (const auto& blk : fn->blocks())
    maxBlockSteps = std::max(
        maxBlockSteps,
        asapUnconstrained(BlockDeps(*fn, blk, base.latencies)).numSteps);

  if (extraSlack < 0) extraSlack = 0;
  const std::size_t count = static_cast<std::size_t>(extraSlack) + 1;
  std::vector<DsePoint> points(count);
  parallelFor(sharedPool("dse", base.jobs, count), count,
              [&](std::size_t idx) {
    SynthesisOptions opts = base;
    opts.scheduler = SchedulerKind::ForceDirected;
    opts.timeConstraint = maxBlockSteps + static_cast<int>(idx);
    points[idx] = synthesizePoint(
        *fn, opts, std::to_string(opts.timeConstraint) + " steps",
        opts.timeConstraint);
  });
  markPareto(points);
  obs::Logger::global().info("dse", "time sweep done",
                             {{"points", count}, {"jobs", base.jobs}});
  return points;
}

std::vector<DsePoint> chippeIterate(const std::string& source,
                                    int targetLatency, int maxUniversalFus,
                                    SynthesisOptions base) {
  auto fn = FrontendCache::global().get(source, "", base.opt);
  ThreadPool* pool = sharedPool(
      "dse", base.jobs, static_cast<std::size_t>(std::max(maxUniversalFus, 0)));
  const int width = pool == nullptr ? 1 : pool->size() + 1;

  // The feedback decisions are sequential, but each round synthesizes the
  // next `width` budgets at once and then judges them in order, so the
  // loop runs as wide as the sweeps. The points of a round past the
  // accepted one are wasted work: at most width - 1, none at jobs = 1.
  std::vector<DsePoint> points;
  std::vector<DsePoint> round;
  bool accepted = false;
  for (int first = 1; first <= maxUniversalFus && !accepted;
       first += width) {
    round.assign(static_cast<std::size_t>(
                     std::min(width, maxUniversalFus - first + 1)),
                 DsePoint{});
    parallelFor(pool, round.size(), [&](std::size_t k) {
      round[k] = budgetPoint(*fn, base, first + static_cast<int>(k));
    });
    for (DsePoint& p : round) {
      const bool met = p.latencySteps <= targetLatency;
      const bool flat =
          !points.empty() && points.back().latencySteps == p.latencySteps;
      points.push_back(std::move(p));
      if (met || flat) {
        accepted = true;
        break;
      }
    }
  }
  markPareto(points);
  if (!points.empty())
    obs::Logger::global().info(
        "dse", "chippe iteration done",
        {{"points", points.size()},
         {"target_latency", targetLatency},
         {"met", points.back().latencySteps <= targetLatency}});
  return points;
}

}  // namespace mphls
