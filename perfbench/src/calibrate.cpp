#include "calibrate.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "stats.h"

namespace perfbench {

namespace {

constexpr std::size_t kKernelWords = 8192;  ///< 64 KiB per thread
constexpr int kLookups = 20000;

}  // namespace

Calibrator::Calibrator(int threads)
    : bufs_((std::size_t)std::max(1, threads),
            std::vector<std::uint64_t>(kKernelWords)) {
  samples_.reserve(4096);
}

double Calibrator::kernelSeconds(std::vector<std::uint64_t>& buf) {
  const double t0 = now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
  auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint64_t& w : buf) w = next();
  std::sort(buf.begin(), buf.end());
  for (int i = 0; i < kLookups; ++i)
    acc += (std::uint64_t)(std::lower_bound(buf.begin(), buf.end(), next()) -
                           buf.begin());
  // Keep the result observable so the loops are not optimized away.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(acc, std::memory_order_relaxed);
  return now() - t0;
}

void Calibrator::sample() {
  if (now() - last_ < kMinIntervalSeconds) return;
  // Every thread runs the kernel twice, the first run untimed to warm its
  // caches; the sample is the mean of the timed runs.
  std::vector<double> secs(bufs_.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < bufs_.size(); ++t)
    threads.emplace_back([this, &secs, t] {
      (void)kernelSeconds(bufs_[t]);
      secs[t] = kernelSeconds(bufs_[t]);
    });
  for (auto& th : threads) th.join();
  samples_.push_back(sum(secs) / (double)secs.size());
  last_ = now();
}

double Calibrator::factor() const {
  return samples_.empty() ? 1.0 : median(samples_) / kNominalSeconds;
}

}  // namespace perfbench
