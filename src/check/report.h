// Diagnostics engine for the stage-boundary checkers (src/check/).
//
// Section 4's observation that "each step in the synthesis process preserves
// the behavior of the initial specification" is only useful if a violated
// step fails *locally*: a broken scheduler should be reported as a broken
// schedule, not as a mismatched simulation trace three stages later. Every
// analyzer reports through this engine so a whole run can be rendered as one
// report: each finding carries a severity, a stable dotted check id (e.g.
// "sched.dep-order"), the location of the offending op/net/state, and text.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mphls {

enum class CheckSeverity { Note, Warning, Error };

[[nodiscard]] std::string_view checkSeverityName(CheckSeverity s);

/// One finding of a stage-boundary analyzer or the netlist linter.
struct CheckDiag {
  CheckSeverity severity = CheckSeverity::Error;
  std::string id;       ///< stable dotted check id, e.g. "bind.reg-overlap"
  std::string where;    ///< source location: op, net, state, register, ...
  std::string message;  ///< human-readable description of the violation

  /// "error [sched.dep-order] block loop op 3 (add): ..." rendering.
  [[nodiscard]] std::string str() const;

  friend bool operator==(const CheckDiag& a, const CheckDiag& b) {
    return a.severity == b.severity && a.id == b.id && a.where == b.where &&
           a.message == b.message;
  }
};

/// Accumulates findings across one or more analyzers. Analyzers never throw:
/// they report everything they can find so a single run surfaces every
/// violation (mirroring DiagEngine for user-facing frontend errors).
class CheckReport {
 public:
  void add(CheckSeverity sev, std::string id, std::string where,
           std::string message) {
    diags_.push_back({sev, std::move(id), std::move(where),
                      std::move(message)});
  }
  void error(std::string id, std::string where, std::string message) {
    add(CheckSeverity::Error, std::move(id), std::move(where),
        std::move(message));
  }
  void warning(std::string id, std::string where, std::string message) {
    add(CheckSeverity::Warning, std::move(id), std::move(where),
        std::move(message));
  }
  void note(std::string id, std::string where, std::string message) {
    add(CheckSeverity::Note, std::move(id), std::move(where),
        std::move(message));
  }

  /// True when no error-severity finding was reported.
  [[nodiscard]] bool clean() const { return errorCount() == 0; }
  [[nodiscard]] std::size_t errorCount() const;
  [[nodiscard]] std::size_t warningCount() const;

  /// True when any finding carries check id `id`.
  [[nodiscard]] bool has(std::string_view id) const;

  [[nodiscard]] const std::vector<CheckDiag>& all() const { return diags_; }
  [[nodiscard]] bool empty() const { return diags_.empty(); }

  void merge(const CheckReport& other) {
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
  }

  /// Text of the first error finding ("" when clean) — used by the pipeline
  /// to build a throwable message. First in *insertion* order, so a
  /// translation-validation run pinpoints the first guilty pass.
  [[nodiscard]] std::string firstError() const;

  /// Findings in deterministic presentation order — sorted by descending
  /// severity, then id, then where, then message, with exact duplicates
  /// collapsed — so report text is stable across analyzer orderings.
  [[nodiscard]] std::vector<CheckDiag> sorted() const;

  /// Full multi-line report in `sorted()` order, one finding per line,
  /// plus a summary line.
  [[nodiscard]] std::string render() const;

  /// Machine-readable report: {"diagnostics":[{"severity","code","where",
  /// "message"},...],"errors":N,"warnings":N,"clean":bool}, diagnostics in
  /// `sorted()` order.
  [[nodiscard]] std::string renderJson() const;

 private:
  std::vector<CheckDiag> diags_;
};

}  // namespace mphls
