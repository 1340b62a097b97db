#include "rollup.h"

#include <cstring>

namespace perfbench {

using mphls::obs::TraceEvent;
using mphls::obs::Tracer;

void beginTrace() {
  Tracer::global().clear();
  Tracer::global().enable();
}

std::vector<Tracer::TrackSnapshot> endTrace() {
  Tracer::global().disable();
  return Tracer::global().snapshot();
}

void writeTrace(const std::string& path) {
  Tracer::global().writeChromeTrace(path);
  Tracer::global().clear();
}

namespace {

/// A span whose B event has been seen and whose E event has not.
struct Open {
  const TraceEvent* begin;
  double children = 0;  ///< seconds of directly nested benchmark spans
};

/// Calls `fn(open, endMicros, enclosing)` as each span of each track ends,
/// matching B and E events by nesting; `enclosing` holds the spans still
/// open around it, innermost last.
template <typename F>
void forEachSpan(const std::vector<Tracer::TrackSnapshot>& tracks, F&& fn) {
  for (const auto& track : tracks) {
    std::vector<Open> open;
    for (const TraceEvent& e : track.events) {
      if (e.phase == 'B') {
        open.push_back({&e});
      } else if (e.phase == 'E' && !open.empty()) {
        const Open o = open.back();
        open.pop_back();
        fn(o, e.tsMicros, open);
      }
    }
  }
}

bool ours(const std::string& name) {
  return name.compare(0, std::strlen(kSpanPrefix), kSpanPrefix) == 0;
}

}  // namespace

std::map<std::string, SpanTotals> rollUp(
    const std::vector<Tracer::TrackSnapshot>& tracks) {
  std::map<std::string, SpanTotals> out;
  forEachSpan(tracks, [&](const Open& o, double end,
                          std::vector<Open>& enclosing) {
    if (!ours(o.begin->name)) return;
    const double seconds = (end - o.begin->tsMicros) / 1e6;
    for (auto it = enclosing.rbegin(); it != enclosing.rend(); ++it)
      if (ours(it->begin->name)) {
        it->children += seconds;
        break;
      }
    SpanTotals& t = out[o.begin->name.substr(std::strlen(kSpanPrefix))];
    t.total += seconds;
    t.self += seconds - o.children;
    ++t.count;
  });
  return out;
}

std::vector<std::pair<double, double>> intervals(
    const std::vector<Tracer::TrackSnapshot>& tracks,
    const std::string& name) {
  std::vector<std::pair<double, double>> out;
  forEachSpan(tracks, [&](const Open& o, double end, std::vector<Open>&) {
    if (o.begin->name == name)
      out.emplace_back(o.begin->tsMicros / 1e6, end / 1e6);
  });
  return out;
}

}  // namespace perfbench
