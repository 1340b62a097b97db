// Process-wide metrics registry: counters, gauges, histograms.
//
// Pipeline stages publish here (pass change counts, stage seconds, cache
// hit/miss, DSE point timings, fuzz campaign progress, simulation
// coverage); the CLI exports a snapshot as JSON via --stats and `mphls
// profile`, and the serve daemon returns the same snapshot from /metrics,
// so there is one source of numeric truth.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime: reset() zeroes values but never invalidates them,
// so instrumentation sites may cache handles across test cases.
//
// Zero-dependency (std only) — see trace.h for the layering rationale.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mphls::obs {

/// Monotonic event count (thread-safe).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value (thread-safe).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Running distribution summary: count/sum/min/max plus fixed latency
/// buckets. Lock-free: every observe() is a handful of relaxed atomic
/// RMWs (sum/min/max via compare-exchange on the double's bit pattern),
/// so the serve daemon's hot per-request histograms never serialize
/// worker threads on a mutex. A concurrent snapshot can see a torn
/// view (count ahead of sum by in-flight observations); exporters that
/// need internal consistency (Prometheus `_count` vs `+Inf`) derive
/// both from the same bucket array.
class Histogram {
 public:
  /// Upper bounds (seconds) of the fixed buckets, shared by every
  /// histogram; the implicit final bucket is +Inf. Chosen for
  /// request/stage latencies: 0.5 ms .. 10 s, roughly 2-2.5x apart.
  static constexpr std::array<double, 14> kBucketBounds = {
      0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
      0.1,    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};
  static constexpr std::size_t kNumBuckets = kBucketBounds.size() + 1;

  void observe(double v);
  struct Stats {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    /// Per-bucket counts (NOT cumulative); last entry is the +Inf
    /// overflow bucket.
    std::array<std::uint64_t, kNumBuckets> buckets{};
    [[nodiscard]] double mean() const { return count ? sum / count : 0; }
    /// Sum of the bucket array — the count Prometheus exposition uses
    /// so `_count` always equals the cumulative `+Inf` bucket.
    [[nodiscard]] std::uint64_t bucketTotal() const {
      std::uint64_t t = 0;
      for (std::uint64_t b : buckets) t += b;
      return t;
    }
  };
  [[nodiscard]] Stats stats() const;
  void reset();

 private:
  static constexpr std::uint64_t kPosInfBits =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  static constexpr std::uint64_t kNegInfBits =
      std::bit_cast<std::uint64_t>(-std::numeric_limits<double>::infinity());

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sumBits_{0};  ///< double 0.0 is all-zero bits
  std::atomic<std::uint64_t> minBits_{kPosInfBits};
  std::atomic<std::uint64_t> maxBits_{kNegInfBits};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Name -> instrument registry. Lookups intern the name on first use and
/// return a stable reference; values snapshot/export as JSON.
class MetricsRegistry {
 public:
  [[nodiscard]] static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point-in-time copy of every instrument, sorted by name.
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Stats>> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, mean}, ...}}
  [[nodiscard]] std::string toJson() const;
  bool writeJson(const std::string& path) const;

  /// Prometheus text exposition format (v0): names sanitized to
  /// [a-zA-Z0-9_] under an `mphls_` prefix, counters suffixed
  /// `_total`, histograms as cumulative `_bucket{le="..."}` series
  /// plus `_sum`/`_count` (`_count` derived from the `+Inf` bucket so
  /// a concurrent scrape is internally consistent).
  [[nodiscard]] std::string toPrometheus() const;

  /// Zero every instrument. Handles stay valid (names persist).
  void reset();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace mphls::obs
