// Roll-up of the traced runs' spans, read back from the program's tracer.
//
// The traced passes record spans with obs::TraceSpan from the benchmark's
// own code, around each call into a layer's public functions, so the
// program is measured without any change to it. Those spans carry names
// that start with "pb." (kSpanPrefix). The program records spans of its
// own into the same tracer (stage.*, pass.*, sta.run, dse.point, ...);
// they stay in the Chrome trace, but the roll-up counts only the
// benchmark's, so a program span nested inside a layer span does not take
// that layer's self time.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

inline constexpr const char kSpanPrefix[] = "pb.";

/// Starts the traced pass: clears and enables the global tracer.
void beginTrace();
/// Ends the traced pass: disables the tracer and returns its events.
[[nodiscard]] std::vector<mphls::obs::Tracer::TrackSnapshot> endTrace();
/// Writes the global tracer's events as Chrome trace JSON, then clears it.
void writeTrace(const std::string& path);

struct SpanTotals {
  double total = 0;  ///< summed duration, seconds
  double self = 0;   ///< total minus the part nested benchmark spans cover
  std::size_t count = 0;
};

/// Totals per benchmark span name, the prefix stripped.
[[nodiscard]] std::map<std::string, SpanTotals> rollUp(
    const std::vector<mphls::obs::Tracer::TrackSnapshot>& tracks);

/// [begin, end] of every span named exactly `name`, in tracer seconds.
[[nodiscard]] std::vector<std::pair<double, double>> intervals(
    const std::vector<mphls::obs::Tracer::TrackSnapshot>& tracks,
    const std::string& name);

}  // namespace perfbench
