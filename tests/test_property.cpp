// Property-based tests.
//
// A deterministic random-program generator produces BDL designs with
// nested control flow and mixed-width arithmetic; for every seed the suite
// checks the pipeline-wide invariants the paper's Section 4 calls "design
// verification":
//   - both optimization pipelines preserve the interpreter's behavior;
//   - every scheduler produces dependence- and resource-valid schedules;
//   - register allocation respects lifetimes and left edge is optimal;
//   - the synthesized RTL equals the behavioral spec cycle-accurately;
//   - SOP minimization is functionally exact;
//   - clique covers are valid and the greedy heuristic is bounded by exact.
#include <gtest/gtest.h>

#include "alloc/clique.h"
#include "alloc/lifetime.h"
#include "alloc/reg_alloc.h"
#include "core/options.h"
#include "core/synthesizer.h"
#include "ctrl/sop.h"
#include "fuzz/bdl_gen.h"
#include "ir/interp.h"
#include "lang/frontend.h"
#include "opt/pass.h"
#include "sched/asap.h"
#include "sched/bnb.h"
#include "sched/force_directed.h"
#include "sched/freedom.h"
#include "sched/list_sched.h"
#include "sched/sched_util.h"
#include "sched/transform_sched.h"

namespace mphls {
namespace {

// ------------------------------------------------------------- generator
//
// The generator lives in src/fuzz/bdl_gen.* (shared with `mphls fuzz`); it
// is the same deterministic splitmix64-seeded program source, so any seed
// that fails here can be replayed and reduced with the fuzz CLI.

using fuzz::Rng;
using fuzz::randomInputs;

struct GenCase {
  std::string source;
  std::vector<std::string> inputs;
};

GenCase genCase(std::uint64_t seed) {
  fuzz::GenProgram p = fuzz::generateProgram(seed);
  return {p.render(), p.inputNames()};
}

// ----------------------------------------------------- pipeline properties

class FuzzPipeline : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPipeline, OptimizationPreservesBehavior) {
  GenCase gen = genCase((std::uint64_t)GetParam());
  DiagEngine diags;
  auto fnOpt = compileBdl(gen.source, diags);
  ASSERT_TRUE(fnOpt.has_value()) << diags.summary() << "\n" << gen.source;
  Function orig = std::move(*fnOpt);
  Function std1 = orig.clone();
  Function aggr = orig.clone();
  PassManager::standardPipeline().run(std1);
  PassManager::aggressivePipeline().run(aggr);

  Interpreter i0(orig), i1(std1), i2(aggr);
  for (int trial = 0; trial < 6; ++trial) {
    auto in = randomInputs(gen.inputs, (std::uint64_t)GetParam(), trial);
    auto r0 = i0.run(in);
    auto r1 = i1.run(in);
    auto r2 = i2.run(in);
    ASSERT_TRUE(r0.finished && r1.finished && r2.finished) << gen.source;
    EXPECT_EQ(r0.outputs, r1.outputs) << "standard pipeline\n" << gen.source;
    EXPECT_EQ(r0.outputs, r2.outputs) << "aggressive pipeline\n" << gen.source;
  }
}

TEST_P(FuzzPipeline, EverySchedulerProducesValidSchedules) {
  GenCase gen = genCase((std::uint64_t)GetParam());
  Function fn = compileBdlOrThrow(gen.source);
  optimize(fn);

  for (const auto& blk : fn.blocks()) {
    if (blk.ops.empty()) continue;
    BlockDeps deps(fn, blk);
    auto limits = ResourceLimits::universalSet(1 + (GetParam() % 3));

    EXPECT_EQ(validateBlockSchedule(deps, serialSchedule(deps)), "");
    EXPECT_EQ(validateBlockSchedule(deps, asapResourceSchedule(deps, limits),
                                    limits),
              "");
    for (auto p : {ListPriority::PathLength, ListPriority::Mobility,
                   ListPriority::Urgency}) {
      EXPECT_EQ(
          validateBlockSchedule(deps, listSchedule(deps, limits, p), limits),
          "")
          << listPriorityName(p);
    }
    EXPECT_EQ(validateBlockSchedule(deps, forceDirectedSchedule(deps, 0)), "");
    EXPECT_EQ(validateBlockSchedule(deps, freedomSchedule(deps).schedule), "");
    EXPECT_EQ(
        validateBlockSchedule(
            deps, transformationalSchedule(deps, limits).schedule, limits),
        "");
  }
}

TEST_P(FuzzPipeline, ListNeverBeatenByAsapAndBnbNeverWorse) {
  GenCase gen = genCase((std::uint64_t)GetParam());
  Function fn = compileBdlOrThrow(gen.source);
  optimize(fn);
  auto limits = ResourceLimits::universalSet(2);
  for (const auto& blk : fn.blocks()) {
    if (blk.ops.empty()) continue;
    BlockDeps deps(fn, blk);
    auto ls = listSchedule(deps, limits, ListPriority::PathLength);
    auto br = branchBoundSchedule(deps, limits, 200000);
    EXPECT_LE(br.schedule.numSteps, ls.numSteps) << blk.name;
  }
}

TEST_P(FuzzPipeline, RegisterAllocationValidAndLeftEdgeOptimal) {
  GenCase gen = genCase((std::uint64_t)GetParam());
  Function fn = compileBdlOrThrow(gen.source);
  optimize(fn);
  auto limits = ResourceLimits::universalSet(2);
  Schedule sched = scheduleFunction(fn, [&](const BlockDeps& d) {
    return listSchedule(d, limits, ListPriority::PathLength);
  });
  LifetimeInfo lt = computeLifetimes(fn, sched);
  for (auto m : {RegAllocMethod::LeftEdge, RegAllocMethod::Clique,
                 RegAllocMethod::Naive}) {
    auto regs = allocateRegisters(lt, m);
    EXPECT_EQ(validateRegAssignment(lt, regs), "");
  }
  EXPECT_EQ(allocateRegisters(lt, RegAllocMethod::LeftEdge).numRegs,
            lt.maxOverlap());
}

TEST_P(FuzzPipeline, RtlMatchesBehaviorEndToEnd) {
  GenCase gen = genCase((std::uint64_t)GetParam());
  SynthesisOptions opts;
  opts.scheduler = SchedulerKind::List;
  opts.resources = ResourceLimits::universalSet(1 + (GetParam() % 3));
  opts.opt = (GetParam() % 2) ? OptLevel::Aggressive : OptLevel::Standard;
  opts.fuMethod = (GetParam() % 3 == 0) ? FuAllocMethod::Clique
                                        : FuAllocMethod::GreedyLocal;
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(gen.source);
  for (int trial = 0; trial < 4; ++trial) {
    auto in = randomInputs(gen.inputs, (std::uint64_t)GetParam(), trial);
    EXPECT_EQ(verifyAgainstBehavior(r, in), "") << gen.source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline, ::testing::Range(1, 33));

// ----------------------------------------------------- structure properties

class FuzzStructures : public ::testing::TestWithParam<int> {};

TEST_P(FuzzStructures, SopMinimizationIsExact) {
  Rng rng((std::uint64_t)GetParam() * 977);
  SopCover cover;
  cover.numInputs = 3 + (int)rng.below(5);   // up to 7 inputs
  cover.numOutputs = 1 + (int)rng.below(4);
  int nCubes = 3 + (int)rng.below(12);
  for (int c = 0; c < nCubes; ++c) {
    Cube cube;
    for (int i = 0; i < cover.numInputs; ++i)
      cube.in.push_back((std::uint8_t)rng.below(3));  // 0/1/dc
    bool any = false;
    for (int o = 0; o < cover.numOutputs; ++o) {
      std::uint8_t b = rng.chance(50) ? 1 : 0;
      cube.out.push_back(b);
      any = any || b;
    }
    if (!any) cube.out[0] = 1;
    cover.cubes.push_back(std::move(cube));
  }
  SopCover min = minimizeCover(cover);
  EXPECT_TRUE(coversEquivalent(cover, min));
  EXPECT_LE(min.termCount(), cover.termCount());
}

TEST_P(FuzzStructures, CliqueCoversValidAndGreedyBounded) {
  Rng rng((std::uint64_t)GetParam() * 1543);
  std::size_t n = 4 + rng.below(9);  // up to 12 nodes (exact feasible)
  CompatGraph g(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.chance(45)) g.addEdge(i, j);
  auto greedy = cliquePartition(g);
  auto exact = cliquePartitionExact(g);
  EXPECT_TRUE(coverIsValid(g, greedy));
  EXPECT_TRUE(coverIsValid(g, exact));
  EXPECT_GE(greedy.count, exact.count);
  // Exact is at most n and at least the trivial bound.
  EXPECT_LE(exact.count, n);
}

TEST_P(FuzzStructures, LeftEdgeOptimalOnRandomIntervals) {
  Rng rng((std::uint64_t)GetParam() * 3571);
  LifetimeInfo lt;
  lt.totalSteps = 40;
  std::size_t n = 5 + rng.below(30);
  for (std::size_t i = 0; i < n; ++i) {
    StorageItem item;
    item.kind = StorageItem::Kind::Temp;
    item.width = 8;
    int b = (int)rng.below(35);
    item.live = {b, b + 1 + (int)rng.below(8)};
    // Sequential append: GCC 12 -Wrestrict -O3 false positive (see vcd.cpp).
    item.name = "i";
    item.name += std::to_string(i);
    lt.items.push_back(item);
  }
  auto regs = allocateRegisters(lt, RegAllocMethod::LeftEdge);
  EXPECT_EQ(validateRegAssignment(lt, regs), "");
  EXPECT_EQ(regs.numRegs, lt.maxOverlap());
  auto clique = allocateRegisters(lt, RegAllocMethod::Clique);
  EXPECT_EQ(validateRegAssignment(lt, clique), "");
  EXPECT_GE(clique.numRegs, regs.numRegs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStructures, ::testing::Range(1, 41));

}  // namespace
}  // namespace mphls
