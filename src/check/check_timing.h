// Timing-closure lint: the stage-boundary analyzer over the finished RTL
// design's timing. Three families of findings:
//
//   timing.negative-slack     error    a named path misses the declared
//                                      clock (state, launch, route,
//                                      capture, arrival vs required)
//   timing.estimate-divergence error   the STA engine (src/sta/) and
//                                      estimateTiming (src/estim/) — two
//                                      independent implementations of the
//                                      same timing model — disagree beyond
//                                      tolerance, i.e. one of them is wrong
//   timing.chain-overrun      warning  wiring overhead (operand/destination
//                                      muxes, setup, chained captures) in
//                                      one control step eats more of the
//                                      clock budget than the scheduler's
//                                      single-FU-delay assumption allows
//   timing.comb-loop          error    the structural timing graph has a
//                                      combinational cycle
//   timing.analysis-error     error    the analysis itself failed (corrupt
//                                      design); analyzers never throw
#pragma once

#include "check/report.h"
#include "rtl/design.h"

namespace mphls {

namespace sta {
struct StaResult;
}

struct TimingLintOptions {
  /// Declared clock period; 0 uses the design's estimated cycle time
  /// (negative slack then only appears when the models diverge).
  double clockNs = 0;
  /// Absolute tolerance for slack and for STA-vs-estimator agreement.
  double tolerance = 1e-6;
  /// Warn when a state's wiring overhead beyond the scheduler's per-step
  /// FU-delay assumption exceeds this fraction of the clock.
  double chainSlackFraction = 0.5;
  /// Cap on reported negative-slack paths.
  int maxReported = 5;
};

/// Run STA on `design` (keeping options.maxReported paths) and lint it.
void checkTiming(const RtlDesign& design, const TimingLintOptions& options,
                 CheckReport& report);

/// Lint an STA result already computed for `design` at options.clockNs.
/// Reads at most options.maxReported of its paths.
void checkTiming(const RtlDesign& design, const sta::StaResult& r,
                 const TimingLintOptions& options, CheckReport& report);

}  // namespace mphls
