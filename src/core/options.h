// The one grammar of synthesis options. The tutorial's Section 3
// comparisons need every synthesis task's algorithm to be selectable; this
// table is the only place that says how. It has one row per option, with
// its CLI flag, its serve "options" key and its valid values: for an
// enumeration one {value, token, display name} entry per value, for a
// number its range. The token is what the CLI (`--fu-alloc clique`) and
// the daemon ({"fu_alloc": "clique"}) accept; the display name is what
// reports, fuzz point labels and corpus names print (`greedy-local`).
// `mphls` usage text is generated from the same rows.
#pragma once

#include <climits>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/synthesizer.h"
#include "opt/pass.h"

namespace mphls {

namespace json {
class Node;
}

/// One enumeration value.
struct OptionChoice {
  int value;                ///< the enumerator, as int
  std::string_view token;   ///< CLI / JSON spelling ("onehot")
  std::string_view display; ///< report spelling ("one-hot")
};

/// Valid values of a numeric option: [lo, hi], whole numbers only when
/// `integral`. Checked before any cast, so hostile input (1e12, 2.5,
/// -5) is rejected instead of truncated or overflowed.
struct NumRange {
  double lo = 0;
  double hi = 0;
  bool integral = true;
  [[nodiscard]] bool contains(double v) const;
};

enum class OptionType {
  Choice,  ///< one token of `choices`
  Number,  ///< a number inside `range`
  Flag,    ///< CLI: present or not; JSON: true/false
};

/// One option row. `set` stores a decoded value: the chosen enumerator,
/// the number, or 0/1 for a flag.
struct OptionRow {
  std::string_view flag;  ///< CLI spelling; empty = serve only
  std::string_view key;   ///< serve "options" key; empty = CLI only
  OptionType type = OptionType::Flag;
  std::span<const OptionChoice> choices;
  NumRange range;
  void (*set)(SynthesisOptions&, long) = nullptr;
};

/// Every synthesis option, in usage order.
[[nodiscard]] std::span<const OptionRow> optionTable();

/// The row with CLI flag `flag` / serve key `key`, or nullptr.
[[nodiscard]] const OptionRow* findOptionFlag(std::string_view flag);
[[nodiscard]] const OptionRow* findOptionKey(std::string_view key);

/// Apply CLI option `row`; `value` is the argument that follows a Choice
/// or Number flag (unused for a Flag). False when the value is invalid.
[[nodiscard]] bool applyFlag(const OptionRow& row, std::string_view value,
                             SynthesisOptions& opts);

/// Apply a serve "options" object member by member. Returns "" on
/// success, else the message for the 400 response.
[[nodiscard]] std::string applyJsonOptions(const json::Node& options,
                                           SynthesisOptions& opts);

/// Parse CLI number text (the whole string, decimal) inside `range`.
[[nodiscard]] bool parseNumber(std::string_view text, const NumRange& range,
                               double& out);
[[nodiscard]] bool parseInt(std::string_view text, const NumRange& range,
                            int& out);
/// Parse a CLI 64-bit seed or input value: the whole string, decimal, 0x hex
/// or 0 octal (strtoull base 0). Empty text, a sign, trailing characters
/// and overflow are rejected.
[[nodiscard]] bool parseU64(std::string_view text, std::uint64_t& out);

/// The option lines of `mphls` usage, one per row.
[[nodiscard]] std::string optionUsage();

/// Ranges of the numbers that are not SynthesisOptions fields but are
/// decoded by both surfaces: the sta clock (ns; 0 = the estimated cycle
/// time) and path count, /sim input port values, and worker counts.
inline constexpr NumRange kClockRange{0, 1e6, false};
inline constexpr NumRange kPathsRange{0, INT_MAX, true};
inline constexpr NumRange kInputRange{0, 0x1.fffffffffffffp63, true};
inline constexpr NumRange kJobsRange{1, 1024, true};

/// Display names (reports, fuzz labels, corpus names).
[[nodiscard]] std::string_view schedulerName(SchedulerKind k);
[[nodiscard]] std::string_view listPriorityName(ListPriority p);
[[nodiscard]] std::string_view optLevelName(OptLevel o);
[[nodiscard]] std::string_view fuAllocMethodName(FuAllocMethod m);
[[nodiscard]] std::string_view regAllocMethodName(RegAllocMethod m);
[[nodiscard]] std::string_view stateEncodingName(StateEncoding e);

/// The pass pipeline of optimization level `level`. For None it is empty
/// and must not be run: even an empty run compacts the function.
[[nodiscard]] PassManager optPipeline(OptLevel level);

/// Whether `k` schedules under the resource limits. Force-directed
/// scheduling is time-constrained and serial scheduling trivially
/// one-op-per-step, so only their dependence legality is checked.
[[nodiscard]] bool resourceLimited(SchedulerKind k);

}  // namespace mphls
