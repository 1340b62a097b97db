#include "core/options.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json_reader.h"

namespace mphls {

namespace {

constexpr OptionChoice kSchedulers[] = {
    {(int)SchedulerKind::Serial, "serial", "serial"},
    {(int)SchedulerKind::Asap, "asap", "asap"},
    {(int)SchedulerKind::List, "list", "list"},
    {(int)SchedulerKind::ForceDirected, "force", "force-directed"},
    {(int)SchedulerKind::Freedom, "freedom", "freedom"},
    {(int)SchedulerKind::BranchBound, "bnb", "branch-and-bound"},
    {(int)SchedulerKind::Transform, "transform", "transformational"},
};

constexpr OptionChoice kPriorities[] = {
    {(int)ListPriority::PathLength, "path", "path-length"},
    {(int)ListPriority::Mobility, "mobility", "mobility"},
    {(int)ListPriority::Urgency, "urgency", "urgency"},
    {(int)ListPriority::ProgramOrder, "program", "program-order"},
};

constexpr OptionChoice kOptLevels[] = {
    {(int)OptLevel::None, "none", "none"},
    {(int)OptLevel::Standard, "standard", "standard"},
    {(int)OptLevel::Aggressive, "aggressive", "aggressive"},
};

constexpr OptionChoice kFuMethods[] = {
    {(int)FuAllocMethod::GreedyLocal, "greedy", "greedy-local"},
    {(int)FuAllocMethod::GreedyGlobal, "global", "greedy-global"},
    {(int)FuAllocMethod::InterconnectBlind, "blind", "interconnect-blind"},
    {(int)FuAllocMethod::Clique, "clique", "clique"},
};

constexpr OptionChoice kRegMethods[] = {
    {(int)RegAllocMethod::LeftEdge, "leftedge", "leftedge"},
    {(int)RegAllocMethod::Clique, "clique", "clique"},
    {(int)RegAllocMethod::Naive, "naive", "naive"},
};

constexpr OptionChoice kEncodings[] = {
    {(int)StateEncoding::Binary, "binary", "binary"},
    {(int)StateEncoding::Gray, "gray", "gray"},
    {(int)StateEncoding::OneHot, "onehot", "one-hot"},
};

/// Longest force-directed time constraint accepted: the scheduler's cost
/// grows with the square of the step count (1024 steps take ~0.1 s on
/// examples/sqrt.bdl; 1e5 runs for minutes, 1e8 exhausts memory).
constexpr double kMaxTimeConstraint = 1024;

using O = SynthesisOptions;
using T = OptionType;

const OptionRow kTable[] = {
    {"--scheduler", "scheduler", T::Choice, kSchedulers, {},
     [](O& o, long v) { o.scheduler = (SchedulerKind)v; }},
    {"--fus", "fus", T::Number, {}, {1, INT_MAX},
     [](O& o, long v) { o.resources = ResourceLimits::universalSet((int)v); }},
    {"--priority", "priority", T::Choice, kPriorities, {},
     [](O& o, long v) { o.listPriority = (ListPriority)v; }},
    {"--opt", "opt", T::Choice, kOptLevels, {},
     [](O& o, long v) { o.opt = (OptLevel)v; }},
    {"--fu-alloc", "fu_alloc", T::Choice, kFuMethods, {},
     [](O& o, long v) { o.fuMethod = (FuAllocMethod)v; }},
    {"--reg-alloc", "reg_alloc", T::Choice, kRegMethods, {},
     [](O& o, long v) { o.regMethod = (RegAllocMethod)v; }},
    {"--encoding", "encoding", T::Choice, kEncodings, {},
     [](O& o, long v) { o.encoding = (StateEncoding)v; }},
    {"--time-constraint", "time_constraint", T::Number, {},
     {0, kMaxTimeConstraint},
     [](O& o, long v) { o.timeConstraint = (int)v; }},
    {"--multicycle", "multicycle", T::Flag, {}, {},
     [](O& o, long v) {
       o.latencies = v ? OpLatencyModel::multiCycle() : OpLatencyModel::unit();
     }},
    {"--narrow", "narrow", T::Flag, {}, {},
     [](O& o, long v) { o.narrow = v != 0; }},
    {"--check", "check", T::Flag, {}, {},
     [](O& o, long v) { o.check = v != 0; }},
    {"--no-check", "", T::Flag, {}, {},
     [](O& o, long v) { o.check = v == 0; }},
    {"--prove", "", T::Flag, {}, {},
     [](O& o, long v) { o.prove = v != 0; }},
    {"--jobs", "", T::Number, {}, kJobsRange,
     [](O& o, long v) { o.jobs = (int)v; }},
};

std::string_view displayOf(std::span<const OptionChoice> choices, int v) {
  for (const OptionChoice& c : choices)
    if (c.value == v) return c.display;
  return "?";
}

const OptionChoice* choiceOf(const OptionRow& row, std::string_view token) {
  for (const OptionChoice& c : row.choices)
    if (c.token == token) return &c;
  return nullptr;
}

std::string rangeText(const NumRange& r) {
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return std::string(buf);
  };
  return num(r.lo) + ".." + num(r.hi);
}

}  // namespace

bool NumRange::contains(double v) const {
  return v >= lo && v <= hi && (!integral || v == std::floor(v));
}

std::span<const OptionRow> optionTable() { return kTable; }

const OptionRow* findOptionFlag(std::string_view flag) {
  for (const OptionRow& r : kTable)
    if (!r.flag.empty() && r.flag == flag) return &r;
  return nullptr;
}

const OptionRow* findOptionKey(std::string_view key) {
  for (const OptionRow& r : kTable)
    if (!r.key.empty() && r.key == key) return &r;
  return nullptr;
}

bool parseNumber(std::string_view text, const NumRange& range,
                 double& out) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !range.contains(v)) return false;
  out = v;
  return true;
}

bool parseInt(std::string_view text, const NumRange& range, int& out) {
  double v = 0;
  if (!parseNumber(text, range, v) || v < INT_MIN || v > INT_MAX)
    return false;
  out = (int)v;
  return true;
}

bool parseU64(std::string_view text, std::uint64_t& out) {
  const std::string s(text);
  const std::size_t digit = s.find_first_not_of(" \t\n\v\f\r");
  if (digit == std::string::npos || !std::isdigit((unsigned char)s[digit]))
    return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

bool applyFlag(const OptionRow& row, std::string_view value,
               SynthesisOptions& opts) {
  switch (row.type) {
    case OptionType::Choice:
      if (const OptionChoice* c = choiceOf(row, value)) {
        row.set(opts, c->value);
        return true;
      }
      return false;
    case OptionType::Number: {
      double v = 0;
      if (!parseNumber(value, row.range, v)) return false;
      row.set(opts, (long)v);
      return true;
    }
    case OptionType::Flag:
      row.set(opts, 1);
      return true;
  }
  return false;
}

std::string applyJsonOptions(const json::Node& options,
                             SynthesisOptions& opts) {
  for (const auto& [key, val] : options.members()) {
    const OptionRow* row = findOptionKey(key);
    if (!row) return "unknown option: " + key;
    const json::Node& v = *val;
    switch (row->type) {
      case OptionType::Choice: {
        const OptionChoice* c =
            v.isString() ? choiceOf(*row, v.str()) : nullptr;
        if (!c) return "bad " + key + ": " + v.str();
        row->set(opts, c->value);
        break;
      }
      case OptionType::Number:
        if (!v.isNumber() || !row->range.contains(v.number()))
          return "bad " + key + ": must be " +
                 (row->range.integral ? "an integer" : "a number") + " in " +
                 rangeText(row->range);
        row->set(opts, (long)v.number());
        break;
      case OptionType::Flag:
        if (!v.isBool()) return "bad " + key + ": must be true or false";
        row->set(opts, v.boolean() ? 1 : 0);
        break;
    }
  }
  return "";
}

std::string optionUsage() {
  std::string out;
  for (const OptionRow& r : kTable) {
    if (r.flag.empty()) continue;
    out += "  ";
    out += r.flag;
    if (r.type == OptionType::Choice) {
      out += ' ';
      for (std::size_t i = 0; i < r.choices.size(); ++i) {
        if (i) out += '|';
        out += r.choices[i].token;
      }
    } else if (r.type == OptionType::Number) {
      out += " N (" + rangeText(r.range) + ")";
    }
    out += '\n';
  }
  return out;
}

std::string_view schedulerName(SchedulerKind k) {
  return displayOf(kSchedulers, (int)k);
}
std::string_view listPriorityName(ListPriority p) {
  return displayOf(kPriorities, (int)p);
}
std::string_view optLevelName(OptLevel o) {
  return displayOf(kOptLevels, (int)o);
}
std::string_view fuAllocMethodName(FuAllocMethod m) {
  return displayOf(kFuMethods, (int)m);
}
std::string_view regAllocMethodName(RegAllocMethod m) {
  return displayOf(kRegMethods, (int)m);
}
std::string_view stateEncodingName(StateEncoding e) {
  return displayOf(kEncodings, (int)e);
}

PassManager optPipeline(OptLevel level) {
  if (level == OptLevel::Standard) return PassManager::standardPipeline();
  if (level == OptLevel::Aggressive) return PassManager::aggressivePipeline();
  return {};
}

bool resourceLimited(SchedulerKind k) {
  return k != SchedulerKind::ForceDirected && k != SchedulerKind::Serial;
}

}  // namespace mphls
