// Host-speed calibration for the end-to-end timings.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over seconds to minutes, both in how fast a core runs and in how much of
// each core other tenants take, which would swamp a 2x regression gate.
// Between units of work the workloads time a fixed benchmark-owned kernel
// (sort and binary search over buffers allocated once, up front; no mphls
// code, no heap allocation) on as many threads at once as the workload
// keeps busy, in wall time, so each sample sees the CPU the work would have
// had at that moment. The median sample against the kernel's nominal time
// is the host's slowdown factor over the run; timings are reported divided
// by it, throughputs multiplied.
//
// Samples are taken only while no mphls work runs: from the one caller
// thread between units (synth_large, dse_sweep, fuzz_standard, whose pools
// are idle or gone by then) or with every client stopped between rounds
// (serve_mixed). The kernel then shares no threads, no allocator state and
// no concurrent cache or memory traffic with the program; a change to the
// program can reach it only through what it leaves in the caches, which
// the kernel's untimed warm-up run refills. The raw timings and the factor
// stay in the report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  /// `threads`: how many threads the workload keeps busy.
  explicit Calibrator(int threads);

  /// Take one sample, unless the last one is less than kMinInterval old.
  /// Call it only while no other benchmark thread is working.
  void sample();
  /// Median sample over the nominal kernel time (1 with no samples).
  [[nodiscard]] double factor() const;
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

  /// The kernel's wall time on one thread of an unloaded reference host.
  static constexpr double kNominalSeconds = 0.003;
  static constexpr double kMinIntervalSeconds = 0.05;

 private:
  /// One run of the kernel over `buf`, in wall seconds.
  static double kernelSeconds(std::vector<std::uint64_t>& buf);

  /// One buffer per thread, sized once.
  std::vector<std::vector<std::uint64_t>> bufs_;
  std::vector<double> samples_;
  double last_ = -1e300;
};

}  // namespace perfbench
