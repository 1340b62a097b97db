// Whole-flow static verification: run the stage-boundary analyzers over a
// finished RTL design and collect one report. `mphls lint` adds the lints
// synthesis does not run; tests assert that known-good designs are
// check-clean while hand-corrupted ones fail with precise check ids.
#pragma once

#include "check/check_binding.h"
#include "check/check_controller.h"
#include "check/check_schedule.h"
#include "check/check_semantics.h"
#include "check/check_timing.h"
#include "check/lint_verilog.h"
#include "check/report.h"
#include "rtl/design.h"

namespace mphls {

struct CheckOptions {
  /// Resource limits the schedule was produced under (unlimited to skip the
  /// concurrency check, e.g. for time-constrained schedulers).
  ResourceLimits resources = ResourceLimits::unlimited();
  OpLatencyModel latencies = OpLatencyModel::unit();
  /// Run schedule legality, binding consistency and controller
  /// completeness. False for a design fresh from Synthesizer, whose stage
  /// exits already ran these analyzers.
  bool structure = true;
  /// Run the abstract-interpretation semantic lints (check_semantics.h)
  /// over the behavioral IR: read-before-write, dead branches, unreachable
  /// blocks, guaranteed truncation, possible division by zero.
  bool semantics = true;
  /// Run the timing-closure lint (check_timing.h) at the estimated clock:
  /// negative slack, STA-vs-estimator cross-validation, chain overruns.
  bool timing = true;
};

/// Run all enabled analyzers, then lint the emitted Verilog (unit latency
/// only, as the emitter); findings accumulate in one report.
[[nodiscard]] CheckReport checkDesign(const RtlDesign& design,
                                      const CheckOptions& options = {});

}  // namespace mphls
