// Shared run configuration, result record and summary statistics for the
// benchmark workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Calibrator;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured time per run
  bool trace = false;   ///< --trace 1: per-layer metrics from a traced pass
  bool tiny = false;    ///< smoke-test scale: few, small inputs
  int nproc = 1;        ///< CPUs this process may run on
  int jobs = 1;         ///< worker threads, = nproc
  std::string outDir;   ///< report and trace files go here
  /// Host-speed calibration the workload threads sample between units
  /// (calibrate.h); null at smoke-test scale.
  Calibrator* calibrator = nullptr;
};

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A percentile with the number of samples it was taken over.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t samples = 0;
};

/// What one workload run produced.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::vector<Metric> metrics;        ///< end-to-end or per-layer
  /// Workload details for the report file: already-rendered JSON members
  /// ("key": value), joined into one object by the caller.
  std::vector<std::pair<std::string, std::string>> detail;

  void fail(const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& json) {
    detail.emplace_back(key, json);
  }
};

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
/// above it (p50 when the sample is smaller than that allows).
[[nodiscard]] Tail tail(const std::vector<double>& v);
[[nodiscard]] double geomean(const std::vector<double>& v);
/// Work per second over one cycle through `sets` input sets, where pass i
/// ran set i % sets: every set's work over the sum of each set's median
/// pass time. Unlike a median over passes, it does not depend on how many
/// passes each set got, and it resists a slow stretch of host time.
[[nodiscard]] double cycleRate(const std::vector<double>& passWork,
                               const std::vector<double>& passSeconds,
                               int sets);
[[nodiscard]] double sum(const std::vector<double>& v);

/// {"n":..,"min":..,"p50":..,"max":..} of a size distribution.
[[nodiscard]] std::string distributionJson(const std::vector<double>& v);
[[nodiscard]] std::string tailJson(const Tail& t);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMb();

/// Compact JSON number / string renderers (all digits kept).
[[nodiscard]] std::string num(double v);
[[nodiscard]] std::string str(const std::string& s);

/// Seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] double now();

/// Run `setup` `times` times and return the median wall seconds; the
/// state left by the last run is what the workload measures against.
template <typename F>
double timedSetup(int times, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < times; ++i) {
    const double t0 = now();
    setup();
    t.push_back(now() - t0);
  }
  return median(std::move(t));
}

}  // namespace perfbench
