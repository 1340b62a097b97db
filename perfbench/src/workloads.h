// The four benchmark workloads and the catalogue of metric names they
// report. Every run prints every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1); a per-layer metric a workload does not
// exercise reads 0.
#pragma once

#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

[[nodiscard]] const std::vector<MetricSpec>& endToEndMetrics();
[[nodiscard]] const std::vector<MetricSpec>& perLayerMetrics();

/// One caller synthesizing seeded 50..800-op designs in a closed loop.
[[nodiscard]] Outcome runSynthLarge(const RunConfig& cfg);
/// Closed-loop fuzz campaigns on the standard 24-point matrix, nproc wide.
[[nodiscard]] Outcome runFuzzStandard(const RunConfig& cfg);
/// Closed-loop keep-alive HTTP clients against an in-process daemon.
[[nodiscard]] Outcome runServeMixed(const RunConfig& cfg);
/// Resource, time and Chippe sweeps over mid-size designs, nproc wide.
[[nodiscard]] Outcome runDseSweep(const RunConfig& cfg);

}  // namespace perfbench
