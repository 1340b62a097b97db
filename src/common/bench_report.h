// Benchmark reporting: a wall-clock timer, a tiny ordered JSON document
// builder, and the BenchReporter that `mphls loadgen` writes
// BENCH_serve.json through. The JSON builder also renders the fuzz
// campaign summary, the STA report and every command-layer response;
// keys are emitted in insertion order so diffs between runs stay
// readable.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mphls {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A JSON value: null, bool, number, string, array, or object with
/// insertion-ordered keys. Just enough for the bench reports — no parsing.
class JsonValue {
 public:
  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(int v) : kind_(Kind::Number), num_(v) {}
  JsonValue(long v) : kind_(Kind::Number), num_(static_cast<double>(v)) {}
  JsonValue(std::size_t v)
      : kind_(Kind::Number), num_(static_cast<double>(v)) {}
  JsonValue(double v) : kind_(Kind::Number), num_(v) {}
  JsonValue(const char* s) : kind_(Kind::String), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  [[nodiscard]] static JsonValue object();
  [[nodiscard]] static JsonValue array();

  /// Object access; inserts a null member on first use. Converts a null
  /// value into an object.
  JsonValue& operator[](const std::string& key);

  /// Array append. Converts a null value into an array.
  JsonValue& push(JsonValue v);

  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }

  /// Serialize with 2-space indentation and a trailing newline at the top
  /// level. Doubles are printed with enough digits to round-trip.
  [[nodiscard]] std::string dump() const;

 private:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  void dumpTo(std::string& out, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Collects metrics for one benchmark into a JSON document and writes it
/// to disk. Typical use:
///
///   BenchReporter rep("serve_loadgen");
///   rep.root()["clients"] = 4;
///   rep.root()["wall_seconds"] = t.seconds();
///   rep.writeFile("BENCH_serve.json");
class BenchReporter {
 public:
  explicit BenchReporter(const std::string& benchmarkName);

  [[nodiscard]] JsonValue& root() { return root_; }

  [[nodiscard]] std::string json() const { return root_.dump(); }

  /// Write the document to `path`; returns false on I/O failure.
  bool writeFile(const std::string& path) const;

 private:
  JsonValue root_;
};

}  // namespace mphls
