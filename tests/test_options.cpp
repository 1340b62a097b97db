// The option table (core/options.h) is the one grammar of synthesis
// options: every token decodes back to its value through the CLI decoder
// (applyFlag) and the serve decoder (applyJsonOptions, and end to end
// through a daemon request), the display names are the strings reports,
// fuzz point labels and corpus names have always printed, numeric ranges
// hold at their bounds on both surfaces, and the usage text names every
// row.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/json_reader.h"
#include "core/options.h"
#include "serve/service.h"

namespace mphls {
namespace {

/// The field a row sets, read back without going through the table.
long fieldOf(std::string_view key, const SynthesisOptions& o) {
  if (key == "scheduler") return (long)o.scheduler;
  if (key == "priority") return (long)o.listPriority;
  if (key == "opt") return (long)o.opt;
  if (key == "fu_alloc") return (long)o.fuMethod;
  if (key == "reg_alloc") return (long)o.regMethod;
  if (key == "encoding") return (long)o.encoding;
  if (key == "fus") return o.resources.limitFor(FuClass::Adder);
  if (key == "time_constraint") return o.timeConstraint;
  if (key == "multicycle") return o.latencies.isUnit() ? 0 : 1;
  if (key == "narrow") return o.narrow;
  if (key == "check") return o.check;
  ADD_FAILURE() << "no accessor for option key " << key;
  return -1;
}

std::string applyJson(const std::string& body, SynthesisOptions& opts) {
  const auto doc = json::parse(body);
  EXPECT_NE(doc, nullptr) << body;
  return doc ? applyJsonOptions(*doc, opts) : "unparsed";
}

TEST(OptionTable, DisplayNamesAreTheReportStrings) {
  EXPECT_EQ(schedulerName(SchedulerKind::Serial), "serial");
  EXPECT_EQ(schedulerName(SchedulerKind::Asap), "asap");
  EXPECT_EQ(schedulerName(SchedulerKind::List), "list");
  EXPECT_EQ(schedulerName(SchedulerKind::ForceDirected), "force-directed");
  EXPECT_EQ(schedulerName(SchedulerKind::Freedom), "freedom");
  EXPECT_EQ(schedulerName(SchedulerKind::BranchBound), "branch-and-bound");
  EXPECT_EQ(schedulerName(SchedulerKind::Transform), "transformational");
  EXPECT_EQ(listPriorityName(ListPriority::PathLength), "path-length");
  EXPECT_EQ(listPriorityName(ListPriority::Mobility), "mobility");
  EXPECT_EQ(listPriorityName(ListPriority::Urgency), "urgency");
  EXPECT_EQ(listPriorityName(ListPriority::ProgramOrder), "program-order");
  EXPECT_EQ(optLevelName(OptLevel::None), "none");
  EXPECT_EQ(optLevelName(OptLevel::Standard), "standard");
  EXPECT_EQ(optLevelName(OptLevel::Aggressive), "aggressive");
  EXPECT_EQ(fuAllocMethodName(FuAllocMethod::GreedyLocal), "greedy-local");
  EXPECT_EQ(fuAllocMethodName(FuAllocMethod::GreedyGlobal), "greedy-global");
  EXPECT_EQ(fuAllocMethodName(FuAllocMethod::InterconnectBlind),
            "interconnect-blind");
  EXPECT_EQ(fuAllocMethodName(FuAllocMethod::Clique), "clique");
  EXPECT_EQ(regAllocMethodName(RegAllocMethod::LeftEdge), "leftedge");
  EXPECT_EQ(regAllocMethodName(RegAllocMethod::Clique), "clique");
  EXPECT_EQ(regAllocMethodName(RegAllocMethod::Naive), "naive");
  EXPECT_EQ(stateEncodingName(StateEncoding::Binary), "binary");
  EXPECT_EQ(stateEncodingName(StateEncoding::Gray), "gray");
  EXPECT_EQ(stateEncodingName(StateEncoding::OneHot), "one-hot");
}

TEST(OptionTable, EveryTokenRoundTripsThroughBothDecoders) {
  int choices = 0;
  for (const OptionRow& row : optionTable()) {
    for (const OptionChoice& c : row.choices) {
      ++choices;
      SynthesisOptions cli;
      ASSERT_TRUE(applyFlag(row, c.token, cli)) << row.flag << " " << c.token;
      EXPECT_EQ(fieldOf(row.key, cli), c.value) << row.flag << " " << c.token;
      SynthesisOptions serve;
      EXPECT_EQ(applyJson("{\"" + std::string(row.key) + "\":\"" +
                              std::string(c.token) + "\"}",
                          serve),
                "");
      EXPECT_EQ(fieldOf(row.key, serve), c.value) << row.key << " " << c.token;
    }
    if (row.type == OptionType::Choice) {
      SynthesisOptions o;
      EXPECT_FALSE(applyFlag(row, "no-such-token", o)) << row.flag;
      EXPECT_NE(applyJson("{\"" + std::string(row.key) + "\":\"x\"}", o), "");
    }
  }
  // 7 schedulers, 4 priorities, 3 opt levels, 4 FU and 3 register
  // allocators, 3 encodings.
  EXPECT_EQ(choices, 24);
}

TEST(OptionTable, SchedulerAndEncodingTokensReachTheSynthReport) {
  serve::ServiceOptions so;
  so.defaults.resources = ResourceLimits::universalSet(2);
  const serve::Service svc(so);
  for (const char* key : {"scheduler", "encoding"}) {
    const OptionRow* row = findOptionKey(key);
    ASSERT_NE(row, nullptr);
    for (const OptionChoice& c : row->choices) {
      serve::HttpRequest req;
      req.method = "POST";
      req.target = "/synth";
      req.version = "HTTP/1.1";
      req.body = "{\"design\":\"gcd\",\"options\":{\"" + std::string(key) +
                 "\":\"" + std::string(c.token) + "\"}}";
      const serve::ServiceResponse r = svc.handle(req, 1);
      ASSERT_EQ(r.status, 200) << req.body << " -> " << r.body;
      const auto doc = json::parse(r.body);
      ASSERT_NE(doc, nullptr);
      EXPECT_EQ(doc->getString(key), c.display) << c.token;
    }
  }
}

TEST(OptionTable, NumbersHoldTheirRangeOnBothSurfaces) {
  for (const OptionRow& row : optionTable()) {
    if (row.type != OptionType::Number) continue;
    const NumRange& r = row.range;
    const auto text = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return std::string(buf);
    };
    for (const double v : {r.lo, r.hi}) {
      SynthesisOptions o;
      EXPECT_TRUE(applyFlag(row, text(v), o)) << row.flag << " " << v;
      if (!row.key.empty()) {
        EXPECT_EQ(applyJson("{\"" + std::string(row.key) + "\":" + text(v) +
                                "}",
                            o),
                  "");
        EXPECT_EQ(fieldOf(row.key, o), (long)v) << row.key;
      }
    }
    for (const double v : {r.lo - 1, r.hi + 1, r.lo + 0.5, 1e30, -1e30}) {
      SynthesisOptions o;
      EXPECT_FALSE(applyFlag(row, text(v), o)) << row.flag << " " << v;
      if (!row.key.empty()) {
        EXPECT_NE(applyJson("{\"" + std::string(row.key) + "\":" + text(v) +
                                "}",
                            o),
                  "")
            << row.key << " " << v;
      }
    }
    SynthesisOptions o;
    for (const char* junk : {"", "12x", "0x10", " 3", "nan", "inf"})
      EXPECT_FALSE(applyFlag(row, junk, o)) << row.flag << " '" << junk << "'";
  }
}

TEST(OptionTable, FlagsSetOnTheCliAndDecodeBooleansFromJson) {
  for (const OptionRow& row : optionTable()) {
    if (row.type != OptionType::Flag || row.key.empty()) continue;
    SynthesisOptions cli;
    cli.check = false;
    ASSERT_TRUE(applyFlag(row, "", cli));
    EXPECT_EQ(fieldOf(row.key, cli), 1) << row.flag;
    for (const bool b : {true, false}) {
      SynthesisOptions o;
      EXPECT_EQ(applyJson("{\"" + std::string(row.key) + "\":" +
                              (b ? "true" : "false") + "}",
                          o),
                "");
      EXPECT_EQ(fieldOf(row.key, o), b ? 1 : 0) << row.key;
    }
    SynthesisOptions o;
    EXPECT_NE(applyJson("{\"" + std::string(row.key) + "\":1}", o), "");
  }
  SynthesisOptions o;
  const OptionRow* noCheck = findOptionFlag("--no-check");
  ASSERT_NE(noCheck, nullptr);
  ASSERT_TRUE(applyFlag(*noCheck, "", o));
  EXPECT_FALSE(o.check);
}

TEST(OptionTable, UnknownKeysAreRejected) {
  SynthesisOptions o;
  EXPECT_EQ(applyJson("{\"optlevel\":\"none\"}", o),
            "unknown option: optlevel");
  EXPECT_EQ(findOptionFlag("--no-narrow"), nullptr);
  // CLI-only rows have no serve key.
  EXPECT_EQ(findOptionKey("jobs"), nullptr);
  EXPECT_EQ(findOptionKey("prove"), nullptr);
}

TEST(OptionTable, UsageNamesEveryRowAndToken) {
  const std::string usage = optionUsage();
  for (const OptionRow& row : optionTable()) {
    if (row.flag.empty()) continue;
    EXPECT_NE(usage.find(std::string(row.flag)), std::string::npos)
        << row.flag;
    for (const OptionChoice& c : row.choices)
      EXPECT_NE(usage.find(std::string(c.token)), std::string::npos)
          << c.token;
  }
}

TEST(OptionTable, ResourceLimitedSchedulers) {
  for (const SchedulerKind k :
       {SchedulerKind::Asap, SchedulerKind::List, SchedulerKind::Freedom,
        SchedulerKind::BranchBound, SchedulerKind::Transform})
    EXPECT_TRUE(resourceLimited(k)) << schedulerName(k);
  EXPECT_FALSE(resourceLimited(SchedulerKind::ForceDirected));
  EXPECT_FALSE(resourceLimited(SchedulerKind::Serial));
}

TEST(OptionTable, U64ValuesParseFullyOrNotAtAll) {
  // Seeds and --verify values: what strtoull (base 0) consumes whole.
  const std::pair<const char*, std::uint64_t> good[] = {
      {"0", 0},
      {"42", 42},
      {"0x1F", 31},
      {"010", 8},
      {" 7", 7},
      {"18446744073709551615", UINT64_MAX}};
  for (const auto& [text, want] : good) {
    std::uint64_t v = 1;
    EXPECT_TRUE(parseU64(text, v)) << "'" << text << "'";
    EXPECT_EQ(v, want) << "'" << text << "'";
  }
  for (const char* bad : {"", " ", "abc", "zz", "-1", "+1", "12x", "0x", "1.5",
                          "18446744073709551616", "99999999999999999999"}) {
    std::uint64_t v = 5;
    EXPECT_FALSE(parseU64(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 5u) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace mphls
