// dse_sweep: design-space exploration throughput and thread-pool scaling.
//
// One caller runs, for each mid-size generated design (eight sets of eight,
// four templates, 48..95 nominal ops), a fixed-limit resource sweep (1..6
// universal FUs), a force-directed time sweep (critical length + 0..4 steps)
// and a Chippe feedback iteration (latency target: the design's 3-FU list-
// scheduled latency), each with jobs = nproc. A unit of work is one
// sweep; throughput counts the design points the sweeps return. Passes cycle
// through the sets until each has run and the measured time reaches --seconds.
// Each pass starts with an empty frontend cache, so every design's frontend is
// compiled once per pass, by its first sweep.
//
// Checks: per sweep, the shape of the result and one seeded point, which
// is synthesized again from source and must match the sweep's latency,
// cycle time and area, then co-simulated against the interpreter on the
// unoptimized compile.
#include <algorithm>
#include <map>
#include <set>

#include "calibrate.h"
#include "core/dse.h"
#include "core/frontend_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "rollup.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mphls;

enum Sweep { kResource, kTime, kChippe, kSweeps };
constexpr const char* kSweepNames[kSweeps] = {
    "dse.resource_sweep", "dse.time_sweep", "dse.chippe"};
constexpr int kMaxFus = 6, kExtraSlack = 4, kChippeCap = 8;

struct DesignIn {
  Design design;
  Reference ref;
  int chippeTarget = 0;
};

SynthesisOptions baseOptions(int jobs) {
  SynthesisOptions o;
  o.resources = ResourceLimits::universalSet(2);
  o.jobs = jobs;
  return o;
}

/// Design sets of eight (each template twice); pass p sweeps set p % sets.
constexpr int kSetSize = 8;

std::vector<DesignIn> makeInputs(const RunConfig& cfg) {
  static constexpr Template kTemplates[] = {Template::Chain, Template::Tree,
                                            Template::Loop, Template::Gen};
  std::vector<DesignIn> in;
  const int sets = cfg.tiny ? 1 : 8;
  for (int i = 0; i < sets * kSetSize; ++i) {
    // Sizes spread evenly over 48..95 nominal ops, so the sweep times form
    // a continuum rather than clusters a percentile could fall between.
    const int n = cfg.tiny ? 24 : 48 + (i * 29) % 48;
    const Template t = kTemplates[i % 4];
    // Of three seeded draws keep the one with the median 3-FU latency. The
    // force-directed time sweep's cost grows with the schedule length and
    // its heaviest sweeps set the tail, so this keeps the tail's seed-to-
    // seed spread small without moving the mix's centre.
    std::vector<std::pair<DesignIn, std::uint64_t>> draws;
    for (std::uint64_t c = 0; c < 3; ++c) {
      const std::uint64_t s =
          mixSeed(cfg.seed, 0xD5E000 + (std::uint64_t)i * 3 + c);
      DesignIn d{makeDesign(t, n, s), {}, 0};
      SynthesisOptions o = baseOptions(1);
      o.resources = ResourceLimits::universalSet(3);
      d.chippeTarget =
          Synthesizer(o).synthesizeSource(d.design.source).staticLatency();
      draws.emplace_back(std::move(d), s);
    }
    std::sort(draws.begin(), draws.end(), [](const auto& a, const auto& b) {
      return a.first.chippeTarget < b.first.chippeTarget;
    });
    auto& [d, s] = draws[1];
    d.ref = makeReference(d.design, s, 2);
    in.push_back(std::move(d));
  }
  return in;
}

std::vector<DsePoint> runSweep(Sweep kind, const DesignIn& d, int jobs) {
  const SynthesisOptions base = baseOptions(jobs);
  switch (kind) {
    case kResource:
      return exploreResourceSweep(d.design.source, kMaxFus, base);
    case kTime:
      return exploreTimeSweep(d.design.source, kExtraSlack, base);
    default:
      return chippeIterate(d.design.source, d.chippeTarget, kChippeCap, base);
  }
}

/// Synthesize `p` again from source, independently of the sweep, compare
/// its figures, and co-simulate it. Returns "" when it agrees.
std::string checkPoint(Sweep kind, const DesignIn& d, const DsePoint& p) {
  SynthesisOptions o = baseOptions(1);
  if (kind == kTime) {
    o.scheduler = SchedulerKind::ForceDirected;
    o.timeConstraint = p.limit;
  } else {
    o.resources = ResourceLimits::universalSet(p.limit);
  }
  try {
    const SynthesisResult r = Synthesizer(o).synthesizeSource(d.design.source);
    if (r.staticLatency() != p.latencySteps ||
        r.timing.cycleTime != p.cycleTime || r.area.total() != p.area)
      return "point " + p.label + " differs from a direct synthesis";
    return coSimulate(r, d.ref);
  } catch (const std::exception& e) {
    return e.what();
  }
}

std::string checkShape(Sweep kind, const std::vector<DsePoint>& pts) {
  const std::size_t want = kind == kResource ? kMaxFus
                           : kind == kTime   ? kExtraSlack + 1
                                             : 0;
  if (pts.empty() || (want > 0 && pts.size() != want))
    return "unexpected point count " + std::to_string(pts.size());
  if (std::none_of(pts.begin(), pts.end(),
                   [](const DsePoint& p) { return p.pareto; }))
    return "no Pareto point";
  return "";
}

struct SweepRun {
  std::size_t design = 0;  ///< index into the inputs
  Sweep kind = kResource;
  double seconds = 0;
  bool cold = false;  ///< the sweep compiled its design's frontend
  std::size_t points = 0;
  double synthesized = 0;   ///< dse.points counter delta
  double pointSeconds = 0;  ///< sum of the points' DsePoint::wallSeconds
};

/// Time covered by the union of `spans` within [lo, hi].
double covered(std::vector<std::pair<double, double>> spans, double lo,
               double hi) {
  std::sort(spans.begin(), spans.end());
  double total = 0, curLo = lo, curHi = lo;
  for (auto [a, b] : spans) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > curHi) {
      total += curHi - curLo;
      curLo = a;
      curHi = b;
    } else {
      curHi = std::max(curHi, b);
    }
  }
  return total + (curHi - curLo);
}

}  // namespace

Outcome runDseSweep(const RunConfig& cfg) {
  Outcome out;
  std::vector<DesignIn> in;
  const double setup = timedSetup(cfg.tiny ? 1 : 5, [&] {
    FrontendCache::global().clear();
    in = makeInputs(cfg);
  });

  auto& pointsCounter = obs::MetricsRegistry::global().counter("dse.points");
  const int sets = (int)in.size() / kSetSize;
  auto onePass = [&](int pass, std::vector<SweepRun>& runs,
                     std::vector<std::vector<DsePoint>>* keep) {
    FrontendCache::global().clear();
    const std::size_t begin = (std::size_t)(pass % sets * kSetSize);
    for (std::size_t i = begin; i < begin + kSetSize; ++i)
      for (int k = 0; k < kSweeps; ++k) {
        const DesignIn& d = in[i];
        if (cfg.calibrator) cfg.calibrator->sample();
        SweepRun run;
        run.design = i;
        run.kind = (Sweep)k;
        const double misses0 = (double)FrontendCache::global().misses();
        const double synth0 = (double)pointsCounter.value();
        const double t0 = now();
        std::vector<DsePoint> pts;
        {
          obs::TraceSpan s(std::string(kSpanPrefix) + kSweepNames[k]);
          pts = runSweep(run.kind, d, cfg.jobs);
        }
        run.seconds = now() - t0;
        run.cold = (double)FrontendCache::global().misses() > misses0;
        run.points = pts.size();
        run.synthesized = (double)pointsCounter.value() - synth0;
        for (const DsePoint& p : pts) run.pointSeconds += p.wallSeconds;
        runs.push_back(run);
        if (keep) keep->push_back(std::move(pts));
      }
  };

  // Untraced passes give the end-to-end numbers: every set once, then
  // until the measured time reaches --seconds. A traced run makes one
  // untraced cycle through the sets, then one traced cycle.
  const double budget = cfg.trace ? 0 : cfg.seconds;
  std::vector<SweepRun> runs;
  std::vector<std::vector<DsePoint>> first;
  double measured = 0;
  int passes = 0;
  const double hits0 = (double)FrontendCache::global().hits();
  const double misses0 = (double)FrontendCache::global().misses();
  double firstCycle = 0;
  while (passes < sets || (measured < budget && passes < 100000)) {
    const std::size_t before = runs.size();
    onePass(passes, runs, passes < sets ? &first : nullptr);
    for (std::size_t i = before; i < runs.size(); ++i) {
      measured += runs[i].seconds;
      if (passes < sets) firstCycle += runs[i].seconds;
    }
    ++passes;
  }
  const double hits = (double)FrontendCache::global().hits() - hits0;
  const double misses = (double)FrontendCache::global().misses() - misses0;

  // Checks on each set's first results, outside the timed region.
  std::vector<double> area, execNs, pointWall;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const DesignIn& d = in[i / kSweeps];
    const Sweep kind = (Sweep)(i % kSweeps);
    const std::vector<DsePoint>& pts = first[i];
    std::string msg = checkShape(kind, pts);
    if (msg.empty())
      msg = checkPoint(kind, d,
                       pts[mixSeed(cfg.seed, i) % pts.size()]);
    if (!msg.empty()) out.fail(d.design.name + " " + kSweepNames[kind] +
                               ": " + msg);
    for (const DsePoint& p : pts) {
      area.push_back(p.area);
      execNs.push_back(p.executionTime());
      pointWall.push_back(p.wallSeconds);
    }
  }

  // Latencies are per distinct (design, sweep), the median over its
  // passes, which resists a slow stretch of host time; throughput is one
  // cycle's. Runs are recorded pass by pass, kSetSize * kSweeps per pass.
  std::map<std::pair<std::size_t, int>, std::vector<double>> bySweep;
  std::set<std::pair<std::size_t, int>> coldSweeps;
  std::vector<double> passPoints, passSeconds;
  double chippePoints = 0, chippeSynth = 0, pointSeconds = 0;
  const std::size_t perPass = (std::size_t)kSetSize * kSweeps;
  for (std::size_t p = 0; p + perPass <= runs.size(); p += perPass) {
    double points = 0, seconds = 0;
    for (std::size_t i = p; i < p + perPass; ++i) {
      const SweepRun& r = runs[i];
      ++out.attempted;
      bySweep[{r.design, r.kind}].push_back(r.seconds * 1e3);
      if (r.cold) coldSweeps.insert({r.design, r.kind});
      points += (double)r.points;
      seconds += r.seconds;
      pointSeconds += r.pointSeconds;
      if (r.kind == kChippe) {
        chippePoints += (double)r.points;
        chippeSynth += r.synthesized;
      }
    }
    passPoints.push_back(points);
    passSeconds.push_back(seconds);
  }
  std::vector<double> latencyMs, coldMs;
  for (const auto& [key, ms] : bySweep) {
    latencyMs.push_back(median(ms));
    if (coldSweeps.count(key)) coldMs.push_back(median(ms));
  }
  const Tail t = tail(latencyMs);
  out.set("setup_s", setup, "s");
  out.set("throughput_per_s", cycleRate(passPoints, passSeconds, sets),
          "1/s");
  out.set("latency_p50_ms", median(latencyMs), "ms");
  out.set("latency_tail_ms", t.value, "ms");
  out.set("cold_latency_p50_ms", median(coldMs), "ms");
  out.set("qor_area_geomean", geomean(area), "area");
  out.set("qor_exec_ns_geomean", geomean(execNs), "ns");
  out.note("unit", str("one sweep; throughput counts returned points"));
  out.note("jobs", num(cfg.jobs));
  out.note("passes", num(passes));
  out.note("latency_tail", tailJson(t));
  std::vector<double> nominal, ops;
  for (const DesignIn& d : in) {
    nominal.push_back(d.design.nominalOps);
    ops.push_back((double)opsAfterOpt(d.design.source));
  }
  out.note("nominal_ops", distributionJson(nominal));
  out.note("ops_after_opt", distributionJson(ops));
  // One row per (design, sweep): median time over its passes.
  std::string rows;
  for (const auto& [key, ms] : bySweep)
    rows += std::string(rows.empty() ? "" : ",") + "{\"design\":" +
            str(in[key.first].design.name) + ",\"sweep\":" +
            str(kSweepNames[key.second]) + ",\"ms_p50\":" + num(median(ms)) +
            "}";
  out.note("sweeps", "[" + rows + "]");
  if (!cfg.trace) return out;

  out.set("dse.point_s_p50", median(pointWall), "s");
  out.set("dse.pool_busy_frac", pointSeconds / (measured * cfg.jobs),
          "ratio");
  out.set("dse.frontend_misses_per_sweep", misses / (double)runs.size(),
          "count");
  out.set("dse.chippe_useful_ratio", chippePoints / chippeSynth, "ratio");
  out.set("frontend_cache.hits", hits, "count");
  out.set("frontend_cache.misses", misses, "count");
  out.set("frontend_cache.hit_ratio", hits / std::max(1.0, hits + misses),
          "ratio");

  // Traced passes: a span around every sweep; the program's own
  // "dse.point" spans show the sweep time no point covers.
  std::vector<SweepRun> tracedRuns;
  beginTrace();
  for (int p = 0; p < sets; ++p) onePass(p, tracedRuns, nullptr);
  const auto tracks = endTrace();
  const std::vector<std::pair<double, double>> pointSpans =
      intervals(tracks, "dse.point");
  const std::map<std::string, SpanTotals> spans = rollUp(tracks);
  double sweepTotal = 0, uncovered = 0;
  for (int k = 0; k < kSweeps; ++k) {
    for (const auto& [b, e] :
         intervals(tracks, std::string(kSpanPrefix) + kSweepNames[k])) {
      sweepTotal += e - b;
      uncovered += (e - b) - covered(pointSpans, b, e);
    }
    const auto it = spans.find(kSweepNames[k]);
    out.set(std::string(kSweepNames[k]) + "_s",
            it == spans.end() ? 0 : it->second.total / (double)it->second.count,
            "s");
  }
  out.set("trace.unattributed_frac", uncovered / sweepTotal, "ratio");
  out.set("trace.overhead_frac", sweepTotal / firstCycle - 1.0, "ratio");
  writeTrace(cfg.outDir + "/trace-dse_sweep-" + std::to_string(cfg.seed) +
             ".json");
  return out;
}

}  // namespace perfbench
