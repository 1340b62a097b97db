// Tests for the path-level static timing engine (src/sta/) and the
// timing-closure lint (check/check_timing.h): hand-computed critical
// paths against the library delay model, estimator cross-validation on
// every builtin, state-aware false-path pruning on multicycle designs,
// and the negative-slack / chain-overrun diagnostics.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/check_timing.h"
#include "check/report.h"
#include "core/designs.h"
#include "core/synthesizer.h"
#include "estim/estimate.h"
#include "fuzz/bdl_gen.h"
#include "sta/sta.h"

namespace mphls {
namespace {

SynthesisResult synth(const char* src, int fus = 2,
                      OpLatencyModel lat = OpLatencyModel::unit()) {
  SynthesisOptions o;
  o.scheduler = SchedulerKind::List;
  o.resources = ResourceLimits::universalSet(fus);
  o.latencies = lat;
  Synthesizer s(o);
  return s.synthesizeSource(src);
}

bool hasDiag(const CheckReport& rep, const std::string& id,
             CheckSeverity sev) {
  for (const CheckDiag& d : rep.sorted())
    if (d.id == id && d.severity == sev) return true;
  return false;
}

// ------------------------------------------------------------ hand-computed

TEST(Sta, HandComputedAdderPath) {
  // One 16-bit add, single-leg muxes (free): critical path is the input
  // port through the adder into the output port. Library adder delay is
  // 1.0 + 0.35/bit, register/port setup 0.5.
  auto r = synth(
      "proc f(in a: uint<16>, in b: uint<16>, out y: uint<16>) {"
      " y = a + b; }");
  const double adder = 1.0 + 0.35 * 16;
  sta::StaResult s = sta::runSta(r.design);
  EXPECT_NEAR(s.cycleTime, adder + 0.5, 1e-9);
  EXPECT_NEAR(r.timing.cycleTime, adder + 0.5, 1e-9);
  EXPECT_TRUE(s.clockWasEstimated);
  EXPECT_NEAR(s.worstSlack, 0.0, 1e-9);
  ASSERT_FALSE(s.paths.empty());
  const sta::TimingPath& p = s.paths.front();
  EXPECT_EQ(p.endpoint, "port y");
  ASSERT_GE(p.points.size(), 2u);
  // The capture point contributes exactly the setup time.
  EXPECT_NEAR(p.points.back().incr, 0.5, 1e-9);
  EXPECT_NEAR(p.points.back().arrival, p.arrival, 1e-9);
}

TEST(Sta, ArrivalsAccumulateAlongReportedPaths) {
  auto r = synth(designs::sqrtSource());
  sta::StaResult s = sta::runSta(r.design);
  for (const sta::TimingPath& p : s.paths) {
    ASSERT_FALSE(p.points.empty());
    double acc = 0;
    for (const sta::PathPoint& pt : p.points) {
      acc += pt.incr;
      EXPECT_NEAR(pt.arrival, acc, 1e-9) << p.describe();
    }
    EXPECT_NEAR(p.arrival, acc, 1e-9);
    EXPECT_NEAR(p.slack, p.required - p.arrival, 1e-9);
  }
}

// ----------------------------------------------------- estimator agreement

TEST(Sta, BuiltinsAgreeWithEstimator) {
  for (const auto& d : designs::all()) {
    auto r = synth(d.source);
    sta::StaResult s = sta::runSta(r.design);
    EXPECT_NEAR(s.cycleTime, r.timing.cycleTime, 1e-6) << d.name;
    EXPECT_NEAR(s.estimatedCycleTime, r.timing.cycleTime, 1e-6) << d.name;
    // At the estimated clock every builtin closes timing exactly.
    EXPECT_NEAR(s.worstSlack, 0.0, 1e-9) << d.name;
    EXPECT_EQ(s.criticalState, r.timing.criticalState) << d.name;
    EXPECT_FALSE(s.combLoop) << d.name;
    EXPECT_GT(s.endpointCount, 0u) << d.name;
    EXPECT_EQ(s.reachableStates, s.totalStates) << d.name;
    // Structural analysis can only be more pessimistic.
    EXPECT_GE(s.structuralCycleTime, s.cycleTime - 1e-9) << d.name;
  }
}

TEST(Sta, BuiltinsAgreeWithEstimatorMulticycle) {
  for (const auto& d : designs::all()) {
    auto r = synth(d.source, 2, OpLatencyModel::multiCycle());
    sta::StaResult s = sta::runSta(r.design);
    EXPECT_NEAR(s.cycleTime, r.timing.cycleTime, 1e-6) << d.name;
    EXPECT_NEAR(s.worstSlack, 0.0, 1e-9) << d.name;
  }
}

// ------------------------------------------------------- slack and clocks

TEST(Sta, ExplicitClockSetsRequiredAndSlack) {
  auto r = synth(designs::gcdSource());
  sta::StaOptions loose;
  loose.clockNs = 100.0;
  sta::StaResult s = sta::runSta(r.design, loose);
  EXPECT_FALSE(s.clockWasEstimated);
  EXPECT_NEAR(s.worstSlack, 100.0 - s.cycleTime, 1e-9);
  EXPECT_GT(s.worstSlack, 0.0);

  sta::StaOptions tight;
  tight.clockNs = 2.0;
  sta::StaResult t = sta::runSta(r.design, tight);
  EXPECT_LT(t.worstSlack, 0.0);
  ASSERT_FALSE(t.paths.empty());
  EXPECT_NEAR(t.paths.front().slack, t.worstSlack, 1e-9);
  // Clock choice never changes arrivals, only required times.
  EXPECT_NEAR(t.cycleTime, s.cycleTime, 1e-12);
}

TEST(Sta, PathsSortedBySlackAndBounded) {
  auto r = synth(designs::ewfSource());
  sta::StaOptions o;
  o.maxPaths = 3;
  sta::StaResult s = sta::runSta(r.design, o);
  ASSERT_LE(s.paths.size(), 3u);
  for (std::size_t i = 1; i < s.paths.size(); ++i)
    EXPECT_LE(s.paths[i - 1].slack, s.paths[i].slack + 1e-12);
  sta::StaOptions none;
  none.maxPaths = 0;
  EXPECT_TRUE(sta::runSta(r.design, none).paths.empty());
}

TEST(Sta, StateArrivalsCoverReachableStates) {
  auto r = synth(designs::diffeqSource());
  sta::StaResult s = sta::runSta(r.design);
  EXPECT_EQ(s.stateArrivals.size(), s.reachableStates);
  double worst = 0;
  for (const auto& [st, arr] : s.stateArrivals) {
    EXPECT_GE(st, 0);
    EXPECT_LT((std::size_t)st, s.totalStates);
    worst = std::max(worst, arr);
  }
  EXPECT_NEAR(worst, s.cycleTime, 1e-9);
}

// -------------------------------------------------- false-path pruning

TEST(Sta, MulticycleSqrtPrunesFalsePaths) {
  // Under the multicycle latency model the divider and multiplier spread
  // over several states; structurally their outputs look like full-delay
  // cones into every capture mux leg, but no single reachable state
  // sensitizes launch and capture together — the state-aware analysis
  // prunes those paths and the cycle time drops accordingly.
  auto r = synth(designs::sqrtSource(), 2, OpLatencyModel::multiCycle());
  sta::StaResult s = sta::runSta(r.design);
  EXPECT_GT(s.structuralCycleTime, s.cycleTime + 1.0);
  EXPECT_GE(s.falsePathEndpoints, 1u);
  EXPECT_NEAR(s.cycleTime, r.timing.cycleTime, 1e-6);
}

// ------------------------------------------------------------ JSON report

TEST(Sta, JsonReportDeterministicAndComplete) {
  auto r = synth(designs::fir8Source());
  sta::StaResult s = sta::runSta(r.design);
  JsonValue a = sta::staReportJson("design", "fir8", s);
  JsonValue b = sta::staReportJson("design", "fir8", s);
  EXPECT_EQ(a.dump(), b.dump());
  const std::string text = a.dump();
  for (const char* key :
       {"\"design\"", "\"clock_ns\"", "\"cycle_time\"", "\"worst_slack\"",
        "\"critical_state\"", "\"structural_cycle_time\"",
        "\"false_path_endpoints\"", "\"paths\"", "\"points\""})
    EXPECT_NE(text.find(key), std::string::npos) << key;
}

// ------------------------------------------------------- K-worst selection

TEST(Sta, KWorstPathsArePrefixOfAll) {
  // Bounded selection builds only the paths that can enter the K worst;
  // the result must be exactly the first K of the unbounded, fully sorted
  // list, and nothing else in the result may depend on K.
  std::vector<std::pair<std::string, SynthesisResult>> cases;
  for (const auto& d : designs::all())
    cases.emplace_back(d.name, synth(d.source));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string src = fuzz::generateProgram(seed).render();
    const std::string tag = "seed " + std::to_string(seed);
    for (const SchedulerKind sk :
         {SchedulerKind::List, SchedulerKind::ForceDirected}) {
      SynthesisOptions o;
      o.scheduler = sk;
      o.resources = ResourceLimits::universalSet(2);
      cases.emplace_back(tag + (sk == SchedulerKind::List ? " list" : " force"),
                         Synthesizer(o).synthesizeSource(src));
    }
    cases.emplace_back(tag + " multicycle",
                       synth(src.c_str(), 2, OpLatencyModel::multiCycle()));
  }
  for (const auto& [name, r] : cases) {
    const double tight = 0.75 * r.timing.cycleTime;
    for (const double clock : {0.0, tight}) {
      sta::StaOptions all;
      all.clockNs = clock;
      all.maxPaths = -1;
      const sta::StaResult full = sta::runSta(r.design, all);
      for (const int k : {0, 1, 3, 5}) {
        SCOPED_TRACE(name + " clock " + std::to_string(clock) + " K " +
                     std::to_string(k));
        sta::StaOptions o;
        o.clockNs = clock;
        o.maxPaths = k;
        const sta::StaResult s = sta::runSta(r.design, o);
        EXPECT_EQ(s.clockNs, full.clockNs);
        EXPECT_EQ(s.clockWasEstimated, full.clockWasEstimated);
        EXPECT_EQ(s.estimatedCycleTime, full.estimatedCycleTime);
        EXPECT_EQ(s.cycleTime, full.cycleTime);
        EXPECT_EQ(s.worstSlack, full.worstSlack);
        EXPECT_EQ(s.criticalState, full.criticalState);
        EXPECT_EQ(s.endpointCount, full.endpointCount);
        EXPECT_EQ(s.totalStates, full.totalStates);
        EXPECT_EQ(s.reachableStates, full.reachableStates);
        EXPECT_EQ(s.structuralCycleTime, full.structuralCycleTime);
        EXPECT_EQ(s.falsePathEndpoints, full.falsePathEndpoints);
        EXPECT_EQ(s.combLoop, full.combLoop);
        EXPECT_EQ(s.stateArrivals, full.stateArrivals);
        ASSERT_EQ(s.paths.size(), std::min<std::size_t>(k, full.paths.size()));
        for (std::size_t i = 0; i < s.paths.size(); ++i) {
          const sta::TimingPath& a = s.paths[i];
          const sta::TimingPath& b = full.paths[i];
          EXPECT_EQ(a.state, b.state) << i;
          EXPECT_EQ(a.stateDesc, b.stateDesc) << i;
          EXPECT_EQ(a.startpoint, b.startpoint) << i;
          EXPECT_EQ(a.endpoint, b.endpoint) << i;
          EXPECT_EQ(a.arrival, b.arrival) << i;
          EXPECT_EQ(a.required, b.required) << i;
          EXPECT_EQ(a.slack, b.slack) << i;
          ASSERT_EQ(a.points.size(), b.points.size()) << i;
          for (std::size_t j = 0; j < a.points.size(); ++j) {
            EXPECT_EQ(a.points[j].node, b.points[j].node) << i << "." << j;
            EXPECT_EQ(a.points[j].incr, b.points[j].incr) << i << "." << j;
            EXPECT_EQ(a.points[j].arrival, b.points[j].arrival)
                << i << "." << j;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ timing lint

TEST(CheckTiming, CleanAtEstimatedClock) {
  for (const auto& d : designs::all()) {
    auto r = synth(d.source);
    CheckReport rep;
    checkTiming(r.design, TimingLintOptions{}, rep);
    EXPECT_TRUE(rep.clean()) << d.name << ": " << rep.firstError();
  }
}

TEST(CheckTiming, NegativeSlackFiresOnTightClock) {
  auto r = synth(designs::sqrtSource());
  TimingLintOptions o;
  o.clockNs = 2.0;
  CheckReport rep;
  checkTiming(r.design, o, rep);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(hasDiag(rep, "timing.negative-slack", CheckSeverity::Error));
  // Squeezing the clock that hard also makes the mux chains dominate.
  EXPECT_TRUE(hasDiag(rep, "timing.chain-overrun", CheckSeverity::Warning));
}

TEST(CheckTiming, FiresOnHandCorruptedFixture) {
  // Capture the clean design's clock, then widen a functional unit by
  // hand: both the estimator and the STA engine see the slower unit, so
  // the design no longer closes timing at its own former clock.
  auto r = synth(designs::gcdSource());
  const double clock = r.timing.cycleTime;
  {
    CheckReport rep;
    TimingLintOptions o;
    o.clockNs = clock;
    checkTiming(r.design, o, rep);
    EXPECT_TRUE(rep.clean()) << rep.firstError();
  }
  ASSERT_FALSE(r.design.binding.fus.empty());
  for (FuInstance& fu : r.design.binding.fus) fu.width = 512;
  CheckReport rep;
  TimingLintOptions o;
  o.clockNs = clock;
  checkTiming(r.design, o, rep);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(hasDiag(rep, "timing.negative-slack", CheckSeverity::Error));
}

TEST(CheckTiming, LintOfAComputedAnalysisMatchesTheOwnRun) {
  // `mphls sta` analyzes once and lints that result; the findings must be
  // the ones the self-contained overload reports.
  for (const double clock : {0.0, 1.0}) {
    auto r = synth(designs::ewfSource());
    TimingLintOptions o;
    o.clockNs = clock;
    o.maxReported = 2;
    CheckReport own;
    checkTiming(r.design, o, own);
    sta::StaOptions so;
    so.clockNs = clock;
    so.maxPaths = o.maxReported;
    CheckReport shared;
    checkTiming(r.design, sta::runSta(r.design, so), o, shared);
    EXPECT_EQ(shared.render(), own.render()) << "clock " << clock;
  }
}

TEST(CheckTiming, MaxReportedCapsFindings) {
  auto r = synth(designs::ewfSource());
  TimingLintOptions o;
  o.clockNs = 1.0;
  o.maxReported = 2;
  CheckReport rep;
  checkTiming(r.design, o, rep);
  std::size_t negSlack = 0;
  for (const CheckDiag& d : rep.sorted())
    if (d.id == "timing.negative-slack") ++negSlack;
  EXPECT_GE(negSlack, 1u);
  EXPECT_LE(negSlack, 2u);
}

}  // namespace
}  // namespace mphls
