#include "core/dse.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

#include "common/thread_pool.h"
#include "core/frontend_cache.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/verilog.h"
#include "sched/sched_util.h"

namespace mphls {

namespace {

/// Pool for one exploration, or null for the jobs=1 serial bypass. Never
/// spawns more workers than there are points to synthesize.
std::unique_ptr<ThreadPool> makePool(int jobs, std::size_t numPoints) {
  const int n = resolveJobs(jobs);
  if (n <= 1 || numPoints <= 1) return nullptr;
  return std::make_unique<ThreadPool>(
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(n), numPoints)),
      "dse");
}

/// Synthesize one sweep point from the shared optimized IR.
DsePoint synthesizePoint(const Function& fn, const SynthesisOptions& opts,
                         std::string label, int limit, int worker) {
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
  p.threadId = worker < 0 ? 0 : worker;
  p.traceTid = obs::Tracer::global().currentTid();
  p.threadName = obs::Tracer::global().currentThreadName();
  auto& mr = obs::MetricsRegistry::global();
  mr.counter("dse.points").add();
  mr.histogram("dse.point_seconds").observe(p.wallSeconds);
  return p;
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
  auto pool = makePool(base.jobs, count);
  obs::Logger::global().debug("dse", "resource sweep start",
                              {{"points", count}, {"jobs", base.jobs}});
  parallelFor(pool.get(), count, [&](std::size_t idx, int worker) {
    const int n = static_cast<int>(idx) + 1;
    SynthesisOptions opts = base;
    opts.scheduler = SchedulerKind::List;
    opts.resources = ResourceLimits::universalSet(n);
    points[idx] = synthesizePoint(*fn, opts, std::to_string(n) + " FUs", n,
                                  worker);
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
  auto pool = makePool(base.jobs, count);
  parallelFor(pool.get(), count, [&](std::size_t idx, int worker) {
    SynthesisOptions opts = base;
    opts.scheduler = SchedulerKind::ForceDirected;
    opts.timeConstraint = maxBlockSteps + static_cast<int>(idx);
    points[idx] = synthesizePoint(
        *fn, opts, std::to_string(opts.timeConstraint) + " steps",
        opts.timeConstraint, worker);
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
  auto pool = makePool(base.jobs, 2);

  auto synthAt = [&](int n) {
    SynthesisOptions opts = base;
    opts.scheduler = SchedulerKind::List;
    opts.resources = ResourceLimits::universalSet(n);
    const int worker = pool ? pool->currentWorker() : -1;
    return synthesizePoint(*fn, opts, std::to_string(n) + " FUs", n, worker);
  };

  std::vector<DsePoint> points;
  std::optional<DsePoint> ready;  ///< speculated result for the current n
  for (int n = 1; n <= maxUniversalFus; ++n) {
    // The feedback decision is sequential, but the pool can already work
    // on the next budget while this one synthesizes (first lap) or while
    // its result is judged. At most one point is wasted on a stop.
    std::optional<std::future<DsePoint>> inflight;
    if (pool && n + 1 <= maxUniversalFus)
      inflight = pool->submit([&synthAt, next = n + 1] {
        return synthAt(next);
      });

    DsePoint p = ready ? std::move(*ready) : synthAt(n);
    ready.reset();
    points.push_back(std::move(p));

    const DsePoint& cur = points.back();
    const bool met = cur.latencySteps <= targetLatency;
    const bool flat =
        n > 1 && points[points.size() - 2].latencySteps == cur.latencySteps;
    if (met || flat) {
      // Accept. The speculative point (if any) is wasted work; wait for it
      // so it cannot outlive the locals it references.
      if (inflight) inflight->wait();
      break;
    }
    if (inflight) ready = inflight->get();
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
