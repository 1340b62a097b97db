// Tests for the scheduling subsystem: serial/ASAP/ALAP baselines, the
// resource-constrained iterative/constructive schedulers, force-directed
// and freedom-based scheduling, branch-and-bound, and the transformational
// family. Includes the paper's worked examples:
//   - Fig. 2: sqrt entry 3 steps / body 5 steps with one universal FU
//     (23 total over 4 iterations) and entry 2 / body 2 with two (10 total);
//   - Fig. 3 vs Fig. 4: ASAP pathology fixed by list scheduling;
//   - Fig. 5: the distribution graph values 1, 1+1/2, 1/2.
#include <gtest/gtest.h>

#include "core/options.h"
#include "ir/interp.h"
#include "lang/frontend.h"
#include "sched/asap.h"
#include "sched/bnb.h"
#include "sched/force_directed.h"
#include "sched/freedom.h"
#include "sched/list_sched.h"
#include "sched/sched_util.h"
#include "sched/transform_sched.h"

namespace mphls {
namespace {

// --------------------------------------------------------------- fixtures

/// The paper's optimized sqrt (Fig. 2): I is a narrow counter, the *0.5 is
/// a right shift, I+1 an increment, exit test I == 0 on wraparound.
const char* kSqrtFig2 = R"(
  proc sqrt(in x: uint<16>, out y: uint<16>) {
    var i: uint<2>;
    y = trunc<16>((zext<32>(x) * 3641) >> 12) + 910;
    i = 0;
    do {
      y = (y + trunc<16>((zext<32>(x) << 12) / zext<32>(y))) >> 1;
      i = i + 1;
    } until (i == 0);
  }
)";

/// Fig. 3/4 shape: a 3-op critical chain plus three independent ops,
/// two adders. ASAP in program order blocks the chain; list scheduling
/// (path-length priority) doesn't.
Function buildFig34() {
  Function fn("fig34");
  BlockId b = fn.addBlock("entry");
  PortId p[6];
  ValueId v[6];
  for (int i = 0; i < 6; ++i) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive (see vcd.cpp).
    std::string pname = "p";
    pname += std::to_string(i);
    p[i] = fn.addInput(pname, 8);
    v[i] = fn.emitRead(b, p[i]);
  }
  PortId q0 = fn.addOutput("q0", 8);
  PortId q1 = fn.addOutput("q1", 8);
  PortId q2 = fn.addOutput("q2", 8);
  PortId q3 = fn.addOutput("q3", 8);
  // Independent ops first (program order), then the chain.
  ValueId y1 = fn.emitBinary(b, OpKind::Add, v[0], v[1]);
  ValueId y2 = fn.emitBinary(b, OpKind::Add, v[2], v[3]);
  ValueId y3 = fn.emitBinary(b, OpKind::Add, v[4], v[5]);
  ValueId x1 = fn.emitBinary(b, OpKind::Add, v[0], v[5]);
  ValueId x2 = fn.emitBinary(b, OpKind::Add, x1, v[1]);
  ValueId x3 = fn.emitBinary(b, OpKind::Add, x2, v[2]);
  fn.emitWrite(b, q0, y1);
  fn.emitWrite(b, q1, y2);
  fn.emitWrite(b, q2, y3);
  fn.emitWrite(b, q3, x3);
  fn.setReturn(b);
  return fn;
}

/// Fig. 5 shape: a1 -> a2 -> m (a multiply pinning the chain) plus a3
/// dependent on a1; with a 3-step time constraint a1 is locked to step 0,
/// a2 to step 1, a3 ranges over steps {1, 2} — matching the paper's
/// addition distribution graph {1, 1+1/2, 1/2} (the paper numbers steps
/// from 1; we number from 0).
Function buildFig5() {
  Function fn("fig5");
  BlockId b = fn.addBlock("entry");
  PortId pa = fn.addInput("a", 8);
  PortId pb = fn.addInput("b", 8);
  PortId pc = fn.addInput("c", 8);
  PortId y = fn.addOutput("y", 8);
  PortId z = fn.addOutput("z", 8);
  ValueId va = fn.emitRead(b, pa);
  ValueId vb = fn.emitRead(b, pb);
  ValueId vc = fn.emitRead(b, pc);
  ValueId a1 = fn.emitBinary(b, OpKind::Add, va, vb);
  ValueId a2 = fn.emitBinary(b, OpKind::Add, a1, vc);
  ValueId a3 = fn.emitBinary(b, OpKind::Add, a1, va);
  ValueId m = fn.emitBinary(b, OpKind::Mul, a2, vc);
  fn.emitWrite(b, y, m);
  fn.emitWrite(b, z, a3);
  fn.setReturn(b);
  return fn;
}

BlockDeps depsOf(const Function& fn, BlockId b) {
  return BlockDeps(fn, fn.block(b));
}

// --------------------------------------------------- serial / unconstrained

TEST(SchedBase, SerialSqrtEntryIs3Steps) {
  Function fn = compileBdlOrThrow(kSqrtFig2);
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = serialSchedule(deps);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
  // mul, add, and the I:=0 move — the paper's 3 entry control steps.
  // (The result shift chains; it is counted only inside the 16-bit trunc.)
  EXPECT_EQ(s.numSteps, 3);
}

TEST(SchedBase, SerialSqrtBodyIs5Steps) {
  Function fn = compileBdlOrThrow(kSqrtFig2);
  BlockId body = fn.findBlock("do_body_0");
  ASSERT_TRUE(body.valid()) << fn.dump();
  BlockDeps deps = depsOf(fn, body);
  BlockSchedule s = serialSchedule(deps);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
  // div, add, shift, increment, test: the paper's 5 steps per iteration.
  EXPECT_EQ(s.numSteps, 5);
}

TEST(SchedBase, Fig2TwentyThreeTotal) {
  Function fn = compileBdlOrThrow(kSqrtFig2);
  Schedule sched = scheduleFunction(
      fn, [](const BlockDeps& d) { return serialSchedule(d); });
  Interpreter in(fn);
  auto res = in.run({{"x", 2048}});
  ASSERT_TRUE(res.finished);
  // 3 + 4*5 = 23 control steps (paper Section 2).
  EXPECT_EQ(sched.stepsForTrace(res.blockTrace), 23);
}

TEST(SchedBase, AsapUnconstrainedMatchesCriticalPath) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = asapUnconstrained(deps);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
  EXPECT_EQ(s.numSteps, 3);  // x1 -> x2 -> x3
}

TEST(SchedBase, AlapPushesLate) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = alapUnconstrained(deps, 5);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
  EXPECT_EQ(s.numSteps, 5);
}

// ------------------------------------------------------------ ASAP vs list

TEST(SchedAsap, Fig3PathologyBlocksCriticalPath) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 2}});
  BlockSchedule s = asapResourceSchedule(deps, limits);
  EXPECT_EQ(validateBlockSchedule(deps, s, limits), "");
  // Program-order ASAP schedules y1,y2 first, pushing the chain to 4 steps.
  EXPECT_EQ(s.numSteps, 4);
}

TEST(SchedList, Fig4ListFindsOptimal) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 2}});
  BlockSchedule s = listSchedule(deps, limits, ListPriority::PathLength);
  EXPECT_EQ(validateBlockSchedule(deps, s, limits), "");
  EXPECT_EQ(s.numSteps, 3);  // optimal: chain never blocked
}

TEST(SchedList, ProgramOrderPriorityReproducesAsap) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 2}});
  BlockSchedule s = listSchedule(deps, limits, ListPriority::ProgramOrder);
  EXPECT_EQ(s.numSteps, 4);
}

TEST(SchedList, AllPrioritiesProduceValidSchedules) {
  Function fn = compileBdlOrThrow(kSqrtFig2);
  for (auto prio : {ListPriority::PathLength, ListPriority::Mobility,
                    ListPriority::Urgency, ListPriority::ProgramOrder}) {
    for (const auto& blk : fn.blocks()) {
      BlockDeps deps(fn, blk);
      auto limits = ResourceLimits::universalSet(2);
      BlockSchedule s = listSchedule(deps, limits, prio);
      EXPECT_EQ(validateBlockSchedule(deps, s, limits), "")
          << listPriorityName(prio) << " in " << blk.name;
    }
  }
}

TEST(SchedList, Fig2TenStepsWithTwoUniversalUnits) {
  Function fn = compileBdlOrThrow(kSqrtFig2);
  auto limits = ResourceLimits::universalSet(2);
  Schedule sched = scheduleFunction(fn, [&](const BlockDeps& d) {
    return listSchedule(d, limits, ListPriority::PathLength);
  });
  EXPECT_EQ(validateSchedule(fn, sched, limits), "");
  Interpreter in(fn);
  auto res = in.run({{"x", 2048}});
  // 2 + 4*2 = 10 control steps (paper Fig. 2: "the operations can now be
  // scheduled in 2+4*2=10 control steps").
  EXPECT_EQ(sched.stepsForTrace(res.blockTrace), 10);
}

TEST(SchedList, SingleUnitMatchesSerialLength) {
  // With one universal unit the list schedule should equal the serial
  // schedule's step count on straight-line code (minus free shifts, which
  // the serial mode charges; hence <=).
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::universalSet(1);
  BlockSchedule s = listSchedule(deps, limits, ListPriority::PathLength);
  EXPECT_EQ(validateBlockSchedule(deps, s, limits), "");
  EXPECT_EQ(s.numSteps, 6);  // 6 adds, one per step
}

// -------------------------------------------------------- force-directed

TEST(SchedFds, Fig5DistributionGraph) {
  Function fn = buildFig5();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto dgs = distributionGraphs(deps, 3);
  ASSERT_TRUE(dgs.count(FuClass::Adder));
  const auto& dg = dgs.at(FuClass::Adder);
  // Paper Fig. 5 (steps renumbered from 0): 1.0, 1.5, 0.5.
  EXPECT_DOUBLE_EQ(dg.at(0), 1.0);
  EXPECT_DOUBLE_EQ(dg.at(1), 1.5);
  EXPECT_DOUBLE_EQ(dg.at(2), 0.5);
}

TEST(SchedFds, Fig5PlacesA3InLastStep) {
  Function fn = buildFig5();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = forceDirectedSchedule(deps, 3);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
  // Balanced distribution: one adder suffices (a1@0, a2@1, a3@2).
  auto peak = peakUsage(deps, s);
  EXPECT_EQ(peak.at(FuClass::Adder), 1);
}

TEST(SchedFds, BalancesUnderTightConstraint) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = forceDirectedSchedule(deps, 3);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
  EXPECT_LE(s.numSteps, 3);
  // 6 adds in 3 steps can balance to 2 adders.
  EXPECT_EQ(peakUsage(deps, s).at(FuClass::Adder), 2);
}

TEST(SchedFds, RespectsCriticalLengthWhenHorizonTooSmall) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = forceDirectedSchedule(deps, 1);  // infeasible request
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
  EXPECT_EQ(s.numSteps, 3);  // clamped to the critical length
}

// -------------------------------------------------------- freedom (MAHA)

TEST(SchedFreedom, CriticalPathFirstThenLeastFreedom) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  FreedomResult r = freedomSchedule(deps);
  EXPECT_EQ(validateBlockSchedule(deps, r.schedule), "");
  EXPECT_EQ(r.schedule.numSteps, 3);
  // Shares units: 6 adds in 3 steps never needs more than 2 + the chain.
  EXPECT_LE(r.allocated.at(FuClass::Adder), 3);
}

TEST(SchedFreedom, HonorsResourceCapByStretching) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto cap = ResourceLimits::withClasses({{FuClass::Adder, 1}});
  FreedomResult r = freedomSchedule(deps, cap);
  EXPECT_EQ(validateBlockSchedule(deps, r.schedule, cap), "");
  EXPECT_EQ(r.schedule.numSteps, 6);
  EXPECT_EQ(r.allocated.at(FuClass::Adder), 1);
}

// ------------------------------------------------------- branch and bound

TEST(SchedBnb, FindsOptimumAndProvesIt) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 2}});
  BnbResult r = branchBoundSchedule(deps, limits);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(validateBlockSchedule(deps, r.schedule, limits), "");
  EXPECT_EQ(r.schedule.numSteps, 3);
}

TEST(SchedBnb, MatchesListOnSqrtBlocks) {
  // The paper cites studies showing list scheduling "works nearly as well
  // as branch-and-bound"; on these small blocks they are exactly equal.
  Function fn = compileBdlOrThrow(kSqrtFig2);
  auto limits = ResourceLimits::universalSet(2);
  for (const auto& blk : fn.blocks()) {
    BlockDeps deps(fn, blk);
    BlockSchedule ls = listSchedule(deps, limits, ListPriority::PathLength);
    BnbResult br = branchBoundSchedule(deps, limits);
    EXPECT_TRUE(br.optimal);
    EXPECT_EQ(br.schedule.numSteps, ls.numSteps) << blk.name;
  }
}

TEST(SchedBnb, TightBudgetStillReturnsValidSchedule) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 1}});
  BnbResult r = branchBoundSchedule(deps, limits, /*nodeBudget=*/3);
  EXPECT_EQ(validateBlockSchedule(deps, r.schedule, limits), "");
}

// ------------------------------------------------------- transformational

TEST(SchedTransform, SerialStartPacksToOptimal) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 2}});
  TransformResult r = transformationalSchedule(
      deps, limits, TransformStart::MaximallySerial);
  EXPECT_EQ(validateBlockSchedule(deps, r.schedule, limits), "");
  EXPECT_EQ(r.schedule.numSteps, 3);
  EXPECT_GT(r.movesApplied, 0);
}

TEST(SchedTransform, ParallelStartSerializesToFit) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 1}});
  TransformResult r = transformationalSchedule(
      deps, limits, TransformStart::MaximallyParallel);
  EXPECT_EQ(validateBlockSchedule(deps, r.schedule, limits), "");
  EXPECT_EQ(r.schedule.numSteps, 6);
}

TEST(SchedTransform, BothStartsAgreeOnSqrt) {
  Function fn = compileBdlOrThrow(kSqrtFig2);
  auto limits = ResourceLimits::universalSet(2);
  for (const auto& blk : fn.blocks()) {
    BlockDeps deps(fn, blk);
    auto a = transformationalSchedule(deps, limits,
                                      TransformStart::MaximallySerial);
    auto b = transformationalSchedule(deps, limits,
                                      TransformStart::MaximallyParallel);
    EXPECT_EQ(validateBlockSchedule(deps, a.schedule, limits), "") << blk.name;
    EXPECT_EQ(validateBlockSchedule(deps, b.schedule, limits), "") << blk.name;
    EXPECT_EQ(a.schedule.numSteps, b.schedule.numSteps) << blk.name;
  }
}

// ------------------------------------------------------ validation guards

TEST(SchedValidate, RejectsBrokenDependence) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = asapUnconstrained(deps);
  // Violate: put everything in step 0.
  for (auto& st : s.step) st = 0;
  s.numSteps = 1;
  EXPECT_NE(validateBlockSchedule(deps, s), "");
}

TEST(SchedValidate, RejectsOverUse) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = asapUnconstrained(deps);  // 4 adds land in step 0
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 2}});
  EXPECT_NE(validateBlockSchedule(deps, s, limits), "");
}

TEST(SchedValidate, PeakUsageCountsClasses) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = asapUnconstrained(deps);
  auto peak = peakUsage(deps, s);
  EXPECT_EQ(peak.at(FuClass::Adder), 4);  // y1,y2,y3,x1 all at step 0
}

TEST(SchedValidate, RenderMentionsOps) {
  Function fn = buildFig34();
  BlockDeps deps = depsOf(fn, fn.entry());
  BlockSchedule s = asapUnconstrained(deps);
  std::string r = renderBlockSchedule(deps, s);
  EXPECT_NE(r.find("add"), std::string::npos);
  EXPECT_NE(r.find("step 0:"), std::string::npos);
}

}  // namespace
}  // namespace mphls
