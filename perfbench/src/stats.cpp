#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/trace.h"

namespace perfbench {

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back({name, value, unit});
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q% of the sample at or
  // below it.
  const double rank = std::ceil(q / 100.0 * (double)v.size());
  const std::size_t idx =
      (std::size_t)std::clamp(rank, 1.0, (double)v.size()) - 1;
  return v[idx];
}

Tail tail(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  for (double p : kLadder)
    if ((double)v.size() * (1.0 - p / 100.0) >= 10.0 || p == 50)
      return {p, percentile(v, p), v.size()};
  return {};
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logSum = 0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / (double)v.size());
}

double cycleRate(const std::vector<double>& passWork,
                 const std::vector<double>& passSeconds, int sets) {
  double work = 0, seconds = 0;
  for (int set = 0; set < sets && set < (int)passWork.size(); ++set) {
    std::vector<double> t;
    for (std::size_t i = (std::size_t)set; i < passSeconds.size();
         i += (std::size_t)sets)
      t.push_back(passSeconds[i]);
    work += passWork[(std::size_t)set];
    seconds += median(std::move(t));
  }
  return work / seconds;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::string distributionJson(const std::vector<double>& v) {
  if (v.empty()) return "{\"n\":0}";
  return "{\"n\":" + num((double)v.size()) +
         ",\"min\":" + num(*std::min_element(v.begin(), v.end())) +
         ",\"p50\":" + num(median(v)) +
         ",\"max\":" + num(*std::max_element(v.begin(), v.end())) + "}";
}

std::string tailJson(const Tail& t) {
  return "{\"percentile\":" + num(t.percentile) + ",\"value\":" +
         num(t.value) + ",\"samples\":" + num((double)t.samples) + "}";
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (double)ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out;
  mphls::obs::appendJsonString(out, s);
  return out;
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
