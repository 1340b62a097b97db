// Hierarchical span tracer with Chrome trace_event JSON export.
//
// The tutorial presents synthesis as a pipeline of inspectable subtasks
// (compile -> transform -> schedule -> allocate -> bind -> control
// synthesis); the tracer makes that pipeline visible as nested spans on a
// timeline, loadable in Perfetto / chrome://tracing. Every thread gets its
// own event track (ThreadPool workers register stable names), so parallel
// DSE fan-out shows up as side-by-side per-worker lanes.
//
// Cost model: instrumentation is compiled in everywhere and must be
// near-free when tracing is off. A TraceSpan with no accumulator performs
// exactly one relaxed atomic load when the tracer is disabled — no clock
// read, no allocation, no lock (the null-sink fast path). Spans that also
// feed a StageTimes field (accum != nullptr) always read the clock, which
// is what the pre-existing stage timers did; the span is then the single
// source of truth for both the trace event and the accumulated seconds.
//
// This layer is deliberately zero-dependency (std only): common/ links
// against it, so it cannot use anything above obs/.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mphls::obs {

/// One recorded event. `phase` follows the Chrome trace_event format:
/// 'B' span begin, 'E' span end, 'i' instant.
struct TraceEvent {
  std::string name;
  std::string arg;  ///< optional detail payload; empty = omitted
  char phase = 'i';
  double tsMicros = 0;  ///< microseconds since the tracer epoch
};

/// Thread-safe process-wide span collector. Threads register lazily on
/// first use and keep a stable integer track id (`tid`) for life; tids
/// come from a counter and are never reused. A track that holds no events
/// when its thread exits leaves the registry. Event appends touch only the
/// calling thread's buffer (one uncontended mutex).
class Tracer {
 public:
  struct ThreadBuf;   // one event track; defined in trace.cpp
  struct TrackLease;  // a thread's hold on its track; defined in trace.cpp

  /// The process-wide tracer used by all instrumentation sites. Tests
  /// should use this instance (clear() between cases) — per-thread track
  /// caching assumes one long-lived tracer.
  [[nodiscard]] static Tracer& global();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Stable track id of the calling thread (registers it on first use).
  int currentTid();
  /// Track name of the calling thread ("thread-N" unless named).
  [[nodiscard]] std::string currentThreadName();
  /// Name the calling thread's track (shown in Perfetto); returns its tid.
  int setThreadName(const std::string& name);

  /// Microseconds since the tracer epoch (process start, monotonic).
  [[nodiscard]] double nowMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Raw event appends. Events land in the calling thread's track; the
  // RAII TraceSpan below is the intended interface.
  void beginSpanAt(std::string name, double tsMicros, std::string arg = {});
  void endSpanAt(std::string name, double tsMicros);
  void instant(std::string name, std::string arg = {});

  /// Copy of one thread's track, for tests and custom exporters.
  struct TrackSnapshot {
    int tid = 0;
    std::string name;
    std::vector<TraceEvent> events;
  };
  [[nodiscard]] std::vector<TrackSnapshot> snapshot() const;

  /// Total recorded events across all tracks.
  [[nodiscard]] std::size_t eventCount() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}), with one metadata
  /// event naming each track. Loadable in Perfetto / chrome://tracing.
  [[nodiscard]] std::string chromeTraceJson() const;
  bool writeChromeTrace(const std::string& path) const;

  /// Drop all recorded events, and the tracks of threads that have
  /// exited. Tracks of live threads (tids, names) persist.
  void clear();

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  ThreadBuf& localBuf();
  /// Unregister a departing thread's track if it holds no events.
  void releaseTrack(const std::shared_ptr<ThreadBuf>& buf);

  mutable std::mutex m_;  ///< guards threads_ and nextTid_ (track registry)
  std::vector<std::shared_ptr<ThreadBuf>> threads_;
  int nextTid_ = 0;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII scope: emits a B/E event pair on the calling thread's track while
/// the tracer is enabled, and optionally accumulates its elapsed seconds
/// into `*accumSeconds` (always, enabled or not) — both derived from the
/// same two clock reads, so a trace and a StageTimes field reporting the
/// same stage can never disagree.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name, double* accumSeconds = nullptr)
      : TraceSpan(name, std::string(), accumSeconds) {}

  TraceSpan(std::string_view name, std::string arg,
            double* accumSeconds = nullptr)
      : accum_(accumSeconds), emit_(Tracer::global().enabled()) {
    if (!emit_ && accum_ == nullptr) return;  // null-sink fast path
    startMicros_ = Tracer::global().nowMicros();
    if (emit_) {
      name_ = name;
      Tracer::global().beginSpanAt(name_, startMicros_, std::move(arg));
    }
  }

  /// A span whose detail payload (typically the size of the work) is
  /// built by `makeArg()` only when the span is emitted, so computing it
  /// costs nothing while tracing is off. The payload is built before the
  /// span's clock starts. `accumSeconds` as above.
  template <class MakeArg,
            class = std::enable_if_t<
                std::is_invocable_r_v<std::string, MakeArg&>>>
  TraceSpan(std::string_view name, MakeArg makeArg,
            double* accumSeconds = nullptr)
      : accum_(accumSeconds), emit_(Tracer::global().enabled()) {
    if (!emit_) {
      if (accum_ != nullptr) startMicros_ = Tracer::global().nowMicros();
      return;
    }
    std::string arg = makeArg();
    name_ = name;
    startMicros_ = Tracer::global().nowMicros();
    Tracer::global().beginSpanAt(name_, startMicros_, std::move(arg));
  }

  ~TraceSpan() {
    if (!emit_ && accum_ == nullptr) return;
    const double end = Tracer::global().nowMicros();
    if (accum_ != nullptr) *accum_ += (end - startMicros_) / 1e6;
    if (emit_) Tracer::global().endSpanAt(std::move(name_), end);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;  ///< kept for the E event (only when emitting)
  double* accum_ = nullptr;
  bool emit_ = false;
  double startMicros_ = 0;
};

/// Append a JSON string literal (quotes included), escaping control
/// characters and validating UTF-8: every byte of an invalid sequence
/// is replaced by U+FFFD so the output is always valid JSON/UTF-8.
/// Shared by the trace, metrics, and log exporters.
void appendJsonString(std::string& out, std::string_view s);

}  // namespace mphls::obs
