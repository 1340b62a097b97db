// Design-space exploration (Sections 1.2 and 3.1.1).
//
// "A good synthesis system can produce several designs for the same
// specification in a reasonable amount of time. This allows the developer
// to explore different trade-offs between cost, speed, power and so on."
//
// Three interaction styles between scheduling and allocation are provided,
// mirroring the paper's taxonomy:
//   - fixed-limit sweep: "set some limit on the number of functional units
//     available and then schedule" (Facet / early DAA / Flamel), swept over
//     a range of limits;
//   - Chippe-style feedback: "first choosing a resource limit, then
//     scheduling, then changing the limit based on the results of the
//     scheduling, rescheduling and so on until a satisfactory design has
//     been found";
//   - HAL-style time sweep: force-directed scheduling under successively
//     relaxed time constraints, reading off the implied allocation.
//
// Throughput model: each entry point compiles and optimizes the source
// exactly once (core/frontend_cache.h), hands every sweep point a clone of
// the cached IR, and synthesizes the points `jobs` wide
// (SynthesisOptions::jobs), or as wide as there are points if fewer: the
// calling thread and width - 1 workers of the process's "dse" pool of
// that width (sharedPool in common/thread_pool.h) claim points off one
// counter. The pool is made on first use and then kept for the life of
// the process, so a sweep pays no thread start-up. The sweeps are
// embarrassingly parallel. Chippe's feedback loop is inherently
// sequential; it synthesizes its budgets in rounds of `jobs` and judges
// each round in order, so it wastes at most jobs - 1 points when the loop
// stops, and none at jobs = 1. Results are deterministic: points land in
// index order and markPareto is input-order independent, so the returned
// vector — and any Verilog captured per point — is identical at every
// thread count.
#pragma once

#include <string>
#include <vector>

#include "core/synthesizer.h"

namespace mphls {

struct DsePoint {
  std::string label;       ///< e.g. "2 FUs" or "11 steps"
  int limit = 0;           ///< FU limit or time constraint driving the point
  int latencySteps = 0;    ///< static one-pass latency
  double cycleTime = 0;
  double area = 0;
  bool pareto = false;     ///< on the area/latency Pareto front

  // Excluded from renderPoints and equality, since it differs between runs:
  // the backend synthesis wall time, measured by the same "dse.point"
  // TraceSpan that emits the point into --trace output.
  double wallSeconds = 0;

  /// Emitted Verilog for the point's design; filled only when
  /// SynthesisOptions::dseCaptureVerilog is set and the latency model is
  /// unit (the emitter's precondition). Deterministic across thread counts.
  std::string verilog;

  [[nodiscard]] double executionTime() const {
    return latencySteps * cycleTime;
  }
};

/// True when the deterministic fields (label, limit, latency, cycle time,
/// area, pareto flag, captured Verilog) of both points agree.
[[nodiscard]] bool samePoint(const DsePoint& a, const DsePoint& b);

/// Render the deterministic fields of every point, one line each — the
/// byte-comparison surface for the "identical at any thread count"
/// guarantee, and the table body printed by `mphls --sweep`.
[[nodiscard]] std::string renderPoints(const std::vector<DsePoint>& points);

/// Mark the Pareto-optimal points (minimal area for their latency class).
/// Order independent and stable under ties: the marking depends only on
/// the multiset of (label, latency, area) — points are ranked by latency,
/// then area, then label — so serial and parallel sweeps print
/// identically. Points with exactly equal latency and area are either all
/// on the front or all off it.
void markPareto(std::vector<DsePoint>& points);

/// Fixed-limit sweep: synthesize with 1..maxUniversalFus universal units.
/// Points are synthesized concurrently per `base.jobs`.
[[nodiscard]] std::vector<DsePoint> exploreResourceSweep(
    const std::string& source, int maxUniversalFus,
    SynthesisOptions base = {});

/// HAL-style: force-directed with time constraints from the critical
/// length to critical + extraSlack steps (per block, applied uniformly).
/// Points are synthesized concurrently per `base.jobs`.
[[nodiscard]] std::vector<DsePoint> exploreTimeSweep(
    const std::string& source, int extraSlack, SynthesisOptions base = {});

/// Chippe-style feedback: grow the FU budget until the latency target is
/// met (or the budget cap is reached); returns the visited points, last
/// one being the accepted design. The feedback decisions are sequential,
/// but the budgets are synthesized `jobs` at a time and judged in order;
/// the points of the last round past the accepted one are discarded, so
/// at most jobs - 1 points are wasted (none at jobs = 1). The dse.points
/// counter counts them too.
[[nodiscard]] std::vector<DsePoint> chippeIterate(const std::string& source,
                                                  int targetLatency,
                                                  int maxUniversalFus = 8,
                                                  SynthesisOptions base = {});

}  // namespace mphls
