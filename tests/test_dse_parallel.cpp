// Parallel design-space exploration and the synthesis-throughput layer:
// IR clone round-trips, thread pool / parallelFor behavior, frontend-cache
// sharing, determinism of the sweeps at every thread count (points and
// emitted Verilog byte-identical), stable Pareto marking, and equality of
// the incremental force-directed scheduler with the from-scratch
// reference. All tests in this file share the DseParallel* prefix so the
// ThreadSanitizer CI job can select them with one gtest filter.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>

#include "common/thread_pool.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/frontend_cache.h"
#include "fd_reference.h"
#include "fuzz/bdl_gen.h"
#include "ir/analysis.h"
#include "ir/verify.h"
#include "sched/force_directed.h"
#include "sched/schedule.h"

using namespace mphls;

namespace {

// The Fig. 5 distribution-graph example: a1 -> a2 -> m, a3 off a1.
Function fig5Graph() {
  Function fn("fig5");
  BlockId b = fn.addBlock("entry");
  ValueId va = fn.emitRead(b, fn.addInput("a", 8));
  ValueId vb = fn.emitRead(b, fn.addInput("b", 8));
  ValueId vc = fn.emitRead(b, fn.addInput("c", 8));
  ValueId a1 = fn.emitBinary(b, OpKind::Add, va, vb);
  ValueId a2 = fn.emitBinary(b, OpKind::Add, a1, vc);
  ValueId a3 = fn.emitBinary(b, OpKind::Add, a1, va);
  ValueId m = fn.emitBinary(b, OpKind::Mul, a2, vc);
  fn.emitWrite(b, fn.addOutput("y", 8), m);
  fn.emitWrite(b, fn.addOutput("z", 8), a3);
  fn.setReturn(b);
  return fn;
}

// Deterministic random single-block DFG (xorshift; no global state).
Function randomDfg(int numOps, std::uint64_t seed) {
  Function fn("rand" + std::to_string(seed));
  BlockId b = fn.addBlock("entry");
  std::vector<ValueId> pool;
  for (int i = 0; i < 3; ++i)
    pool.push_back(fn.emitRead(b, fn.addInput("p" + std::to_string(i), 8)));
  std::uint64_t s = seed ? seed : 1;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int i = 0; i < numOps; ++i) {
    ValueId a = pool[next() % pool.size()];
    ValueId c = pool[next() % pool.size()];
    OpKind k = (next() % 3 == 0) ? OpKind::Mul : OpKind::Add;
    pool.push_back(fn.emitBinary(b, k, a, c));
  }
  fn.emitWrite(b, fn.addOutput("y", 8), pool.back());
  fn.setReturn(b);
  return fn;
}

std::vector<DsePoint> sweepWithJobs(const char* src, int maxFus, int jobs) {
  SynthesisOptions base;
  base.jobs = jobs;
  base.dseCaptureVerilog = true;
  return exploreResourceSweep(src, maxFus, base);
}

void expectPointsIdentical(const std::vector<DsePoint>& a,
                           const std::vector<DsePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(renderPoints(a), renderPoints(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(samePoint(a[i], b[i])) << "point " << i << " differs";
    EXPECT_FALSE(a[i].verilog.empty());
    EXPECT_EQ(a[i].verilog, b[i].verilog) << "Verilog differs at " << i;
  }
}

}  // namespace

// ------------------------------------------------------------------ clone

TEST(DseParallelClone, DeepCopyIsIndependent) {
  auto cached = FrontendCache::global().get(designs::diffeqSource(), "",
                                            OptLevel::Standard);
  Function copy = cached->clone();
  EXPECT_EQ(verifyFunction(*cached), "");
  EXPECT_EQ(verifyFunction(copy), "");
  EXPECT_EQ(cached->dump(), copy.dump());

  // Mutating the clone must not leak into the cached original.
  const std::string before = cached->dump();
  copy.addVar("clone_only", 8);
  copy.emitNop(copy.entry());
  EXPECT_NE(copy.dump(), before);
  EXPECT_EQ(cached->dump(), before);
  EXPECT_EQ(verifyFunction(*cached), "");
}

TEST(DseParallelClone, AllBuiltinDesignsCloneClean) {
  for (const auto& d : designs::all()) {
    auto cached =
        FrontendCache::global().get(d.source, "", OptLevel::Standard);
    Function copy = cached->clone();
    EXPECT_EQ(verifyFunction(copy), "") << d.name;
    EXPECT_EQ(copy.dump(), cached->dump()) << d.name;
  }
}

// ------------------------------------------------------------- thread pool

TEST(DseParallelPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  parallelFor(&pool, hits.size(), [&](std::size_t i, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DseParallelPool, SerialBypassRunsInline) {
  std::vector<int> order;
  parallelFor(nullptr, 5, [&](std::size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(static_cast<int>(i));  // no pool: strictly in order
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DseParallelPool, SubmitReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 50; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futs[(std::size_t)i].get(), i * i);
}

TEST(DseParallelPool, WorkStealingDrainsUnevenLoad) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  parallelFor(&pool, 64, [&](std::size_t i, int) {
    long local = 0;  // index 0 is ~64x the work of index 63
    const long spin = 2000 * static_cast<long>(64 - i);
    for (long k = 0; k < spin; ++k) local += k % 7;
    sum.fetch_add(local % 1000 + static_cast<long>(i));
  });
  EXPECT_GT(sum.load(), 0);
}

TEST(DseParallelPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallelFor(&pool, 8,
                  [&](std::size_t i, int) {
                    if (i == 3) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(DseParallelPool, ResolveJobsSemantics) {
  EXPECT_EQ(resolveJobs(1), 1);
  EXPECT_EQ(resolveJobs(7), 7);
  EXPECT_GE(resolveJobs(0), 1);   // hardware concurrency
  EXPECT_GE(resolveJobs(-3), 1);
}

// ---------------------------------------------------------- frontend cache

TEST(DseParallelCache, SharesOneCompiledFunction) {
  FrontendCache cache;
  auto a = cache.get(designs::gcdSource(), "", OptLevel::Standard);
  auto b = cache.get(designs::gcdSource(), "", OptLevel::Standard);
  EXPECT_EQ(a.get(), b.get());  // same cached object
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // A different optimization level is a different design.
  auto c = cache.get(designs::gcdSource(), "", OptLevel::None);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DseParallelCache, ConcurrentGetsAreSafe) {
  FrontendCache cache;
  ThreadPool pool(4);
  std::vector<std::shared_ptr<const Function>> got(32);
  parallelFor(&pool, got.size(), [&](std::size_t i, int) {
    got[i] = cache.get(designs::ewfSource(), "", OptLevel::Standard);
  });
  for (const auto& fn : got) {
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->dump(), got[0]->dump());
  }
}

// ------------------------------------------------- deterministic sweeps

TEST(DseParallelSweep, ResourceSweepIdenticalAcrossJobCounts) {
  auto serial = sweepWithJobs(designs::diffeqSource(), 8, 1);
  auto parallel = sweepWithJobs(designs::diffeqSource(), 8, 4);
  expectPointsIdentical(serial, parallel);
}

TEST(DseParallelSweep, ResourceSweepRecordsDiagnostics) {
  auto points = sweepWithJobs(designs::diffeqSource(), 4, 4);
  for (const auto& p : points) {
    EXPECT_GT(p.wallSeconds, 0.0);
    EXPECT_GE(p.threadId, 0);
    EXPECT_LT(p.threadId, 4);
  }
}

TEST(DseParallelSweep, TimeSweepIdenticalAcrossJobCounts) {
  SynthesisOptions base;
  base.dseCaptureVerilog = true;
  base.jobs = 1;
  auto serial = exploreTimeSweep(designs::diffeqSource(), 4, base);
  base.jobs = 4;
  auto parallel = exploreTimeSweep(designs::diffeqSource(), 4, base);
  expectPointsIdentical(serial, parallel);
}

TEST(DseParallelSweep, TimeSweepStartsWhereForceDirectedProbeEnds) {
  // The sweep's first horizon is the longest block's unconstrained ASAP
  // length. It must equal the step count of an unconstrained
  // force-directed synthesis (timeConstraint 0), which the sweep once ran
  // up front to find that horizon.
  auto probeSteps = [](const Function& fn) {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::ForceDirected;
    o.timeConstraint = 0;
    const SynthesisResult r = Synthesizer(o).synthesizeOptimized(fn);
    int steps = 0;
    for (const auto& bs : r.design.sched.blocks)
      steps = std::max(steps, bs.numSteps);
    return steps;
  };
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& d : designs::all()) sources.emplace_back(d.name, d.source);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    fuzz::GenOptions o;
    o.maxStmts = 4 + (int)(seed % 8);
    sources.emplace_back(std::string("gen seed ") + std::to_string(seed),
                         fuzz::generateProgram(seed, o).render());
  }
  SynthesisOptions base;
  base.jobs = 1;
  for (const auto& [name, src] : sources) {
    const std::vector<DsePoint> points = exploreTimeSweep(src, 0, base);
    ASSERT_EQ(points.size(), 1u) << name;
    EXPECT_EQ(points[0].limit,
              probeSteps(*FrontendCache::global().get(src, "", base.opt)))
        << name;
  }
}

TEST(DseParallelSweep, TimeSweepRejectsNonUnitLatency) {
  for (int jobs : {1, 4}) {
    SynthesisOptions base;
    base.jobs = jobs;
    base.latencies = OpLatencyModel::multiCycle();
    try {
      (void)exploreTimeSweep(designs::diffeqSource(), 3, base);
      ADD_FAILURE() << "jobs " << jobs << ": no exception";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "force-directed scheduling supports unit latency only"),
                std::string::npos)
          << "jobs " << jobs << ": " << e.what();
    }
  }
}

TEST(DseParallelSweep, ChippeIdenticalAcrossJobCounts) {
  auto probe = sweepWithJobs(designs::ewfSource(), 4, 1);
  const int target = probe[2].latencySteps;
  SynthesisOptions base;
  base.dseCaptureVerilog = true;
  base.jobs = 1;
  auto serial = chippeIterate(designs::ewfSource(), target, 8, base);
  base.jobs = 4;
  auto parallel = chippeIterate(designs::ewfSource(), target, 8, base);
  expectPointsIdentical(serial, parallel);
}

TEST(DseParallelSweep, MatchesLegacyPerPointSynthesis) {
  // The shared-frontend + clone path must reproduce what a from-source
  // synthesis of each point produces.
  auto points = sweepWithJobs(designs::diffeqSource(), 4, 4);
  for (int n = 1; n <= 4; ++n) {
    SynthesisOptions opts;
    opts.scheduler = SchedulerKind::List;
    opts.resources = ResourceLimits::universalSet(n);
    Synthesizer synth(opts);
    SynthesisResult r = synth.synthesizeSource(designs::diffeqSource());
    const DsePoint& p = points[(std::size_t)n - 1];
    EXPECT_EQ(p.latencySteps, r.staticLatency());
    EXPECT_EQ(p.area, r.area.total());
    EXPECT_EQ(p.cycleTime, r.timing.cycleTime);
  }
}

// ----------------------------------------------------------- markPareto

TEST(DseParallelPareto, OrderIndependentAndStableUnderTies) {
  auto mk = [](const char* label, int lat, double area) {
    DsePoint p;
    p.label = label;
    p.latencySteps = lat;
    p.area = area;
    return p;
  };
  std::vector<DsePoint> pts = {
      mk("a", 10, 100), mk("b", 8, 120), mk("c", 8, 120),  // exact ties
      mk("d", 12, 100),  // same area as a, slower: dominated
      mk("e", 6, 200),
  };
  auto sorted = pts;
  markPareto(sorted);
  // Exact-tie duplicates share a fate (both on the front here).
  EXPECT_TRUE(sorted[1].pareto);
  EXPECT_TRUE(sorted[2].pareto);
  EXPECT_TRUE(sorted[0].pareto);
  EXPECT_FALSE(sorted[3].pareto);  // dominated by a (equal area, faster)
  EXPECT_TRUE(sorted[4].pareto);

  // Any permutation yields the same per-label marking.
  std::vector<std::size_t> perm = {4, 2, 0, 3, 1};
  std::vector<DsePoint> shuffled;
  for (std::size_t i : perm) shuffled.push_back(pts[i]);
  markPareto(shuffled);
  for (const auto& p : shuffled) {
    for (const auto& q : sorted) {
      if (p.label == q.label) {
        EXPECT_EQ(p.pareto, q.pareto) << p.label;
      }
    }
  }
}

TEST(DseParallelPareto, DominationMatchesDefinition) {
  auto mk = [](int lat, double area) {
    DsePoint p;
    p.label = std::to_string(lat) + "/" + std::to_string(area);
    p.latencySteps = lat;
    p.area = area;
    return p;
  };
  std::vector<DsePoint> pts = {mk(5, 50), mk(6, 40), mk(7, 30),
                               mk(6, 45), mk(8, 30)};
  markPareto(pts);
  EXPECT_TRUE(pts[0].pareto);
  EXPECT_TRUE(pts[1].pareto);
  EXPECT_TRUE(pts[2].pareto);
  EXPECT_FALSE(pts[3].pareto);  // beaten by (6,40)
  EXPECT_FALSE(pts[4].pareto);  // beaten by (7,30)
}

// ------------------------------------- incremental force-directed equality

namespace {

/// Every non-empty block of `fn` scheduled by forceDirectedSchedule and by
/// the reference must agree at critical + each of `slacks` and at twice
/// the critical length.
void expectBlocksMatchReference(const Function& fn, const std::string& what,
                                std::initializer_list<int> slacks) {
  for (const auto& blk : fn.blocks()) {
    if (blk.ops.empty()) continue;
    BlockDeps deps(fn, blk);
    const int critical = computeLevels(deps).criticalLength;
    std::vector<int> horizons;
    for (int slack : slacks) horizons.push_back(critical + slack);
    horizons.push_back(2 * critical);
    for (int horizon : horizons) {
      BlockSchedule inc = forceDirectedSchedule(deps, horizon);
      BlockSchedule ref = forceDirectedScheduleReference(deps, horizon);
      ASSERT_EQ(inc.step, ref.step)
          << what << " block " << blk.name << " horizon " << horizon;
      ASSERT_EQ(inc.numSteps, ref.numSteps)
          << what << " block " << blk.name << " horizon " << horizon;
    }
  }
}

}  // namespace

TEST(DseParallelForceDirected, MatchesReferenceOnFig5) {
  Function fn = fig5Graph();
  BlockDeps deps(fn, fn.block(fn.entry()));
  const int critical = computeLevels(deps).criticalLength;
  for (int horizon = critical; horizon <= critical + 3; ++horizon) {
    BlockSchedule inc = forceDirectedSchedule(deps, horizon);
    BlockSchedule ref = forceDirectedScheduleReference(deps, horizon);
    EXPECT_EQ(inc.step, ref.step) << "horizon " << horizon;
    EXPECT_EQ(inc.numSteps, ref.numSteps) << "horizon " << horizon;
  }
}

TEST(DseParallelForceDirected, MatchesReferenceOnDiffeqAndBuiltins) {
  for (const auto& d : designs::all())
    for (OptLevel opt : {OptLevel::None, OptLevel::Standard})
      expectBlocksMatchReference(
          *FrontendCache::global().get(d.source, "", opt), d.name,
          {0, 1, 2, 3, 4, 6, 8, 12});
  // Multi-block generated programs: loops, branches, mixed FU classes.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    fuzz::GenOptions o;
    o.maxStmts = 6 + (int)(seed % 5);
    expectBlocksMatchReference(
        *FrontendCache::global().get(
            fuzz::generateProgram(seed, o).render(), "", OptLevel::Standard),
        std::string("gen seed ") + std::to_string(seed),
        {0, 1, 2, 3, 4, 6, 8, 12});
  }
}

TEST(DseParallelForceDirected, MatchesReferenceOnRandomDfgs) {
  for (int ops : {18, 24, 48}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Function fn = randomDfg(ops, seed * 7919);
      expectBlocksMatchReference(fn,
                                 std::to_string(ops) + " ops, seed " +
                                     std::to_string(seed),
                                 {0, 1, 2, 3, 12});
    }
  }
  // One DFG of a hundred ops (the reference rebuilds every frame per
  // candidate, so two horizons keep this to about a second).
  expectBlocksMatchReference(randomDfg(100, 104729), "100 ops", {0});
}

TEST(DseParallelForceDirected, SchedulesRemainValid) {
  Function fn = randomDfg(20, 42);
  BlockDeps deps(fn, fn.block(fn.entry()));
  LevelInfo li = computeLevels(deps);
  BlockSchedule s = forceDirectedSchedule(deps, li.criticalLength + 2);
  EXPECT_EQ(validateBlockSchedule(deps, s), "");
}
