// Parallel design-space exploration and the synthesis-throughput layer:
// IR clone round-trips, thread pool / parallelFor behavior, frontend-cache
// sharing, determinism of the sweeps at every thread count (points and
// emitted Verilog byte-identical), stable Pareto marking, and equality of
// the incremental force-directed scheduler with the from-scratch
// reference. All tests in this file share the DseParallel* prefix so the
// ThreadSanitizer CI job can select them with one gtest filter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/frontend_cache.h"
#include "fd_reference.h"
#include "fuzz/bdl_gen.h"
#include "ir/analysis.h"
#include "ir/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/force_directed.h"
#include "sched/sched_util.h"
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
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(997);
  parallelFor(&pool, hits.size(), [&](std::size_t i) {
    // Each iteration runs on a worker of this pool or on the caller.
    const int worker = pool.currentWorker();
    if (std::this_thread::get_id() == caller) {
      EXPECT_EQ(worker, -1);
    } else {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 4);
    }
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DseParallelPool, SerialBypassRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  parallelFor(nullptr, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<int>(i));  // no pool: strictly in order
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

namespace {

// Arrive at `started` and wait, up to 10 s, until every party has arrived;
// false on a timeout, so a test fails instead of hanging.
bool arriveAndWait(std::latch& started) {
  started.count_down();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!started.try_wait()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// True when `width` iterations ran at the same time, on `width` threads.
bool iterationsMeet(ThreadPool* pool, std::size_t width) {
  std::latch started(static_cast<std::ptrdiff_t>(width));
  std::atomic<std::size_t> met{0};
  parallelFor(pool, width, [&](std::size_t) {
    if (arriveAndWait(started)) met.fetch_add(1);
  });
  return met.load() == width;
}

}  // namespace

TEST(DseParallelPool, CallerAndEveryWorkerRunAtOnce) {
  ThreadPool pool(3);
  EXPECT_TRUE(iterationsMeet(&pool, static_cast<std::size_t>(pool.size()) + 1));
}

TEST(DseParallelPool, OneWorkerPoolRunsTwoWide) {
  ThreadPool pool(1);
  EXPECT_TRUE(iterationsMeet(&pool, 2));
}

TEST(DseParallelPool, CallerExceptionWaitsForHelpers) {
  // Two iterations on two threads; the caller's throws at once, the
  // worker's finishes 50 ms later. The exception must reach the caller
  // only after that.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::latch started(2);
  std::atomic<bool> helperDone{false};
  bool ranOnCaller = false;
  try {
    parallelFor(&pool, 2, [&](std::size_t) {
      ASSERT_TRUE(arriveAndWait(started));
      if (std::this_thread::get_id() == caller) {
        ranOnCaller = true;
        throw std::runtime_error("caller");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      helperDone.store(true);
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller");
    EXPECT_TRUE(helperDone.load());
  }
  EXPECT_TRUE(ranOnCaller);
}

TEST(DseParallelPool, SubmitReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 50; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futs[(std::size_t)i].get(), i * i);
}

TEST(DseParallelPool, OneWorkerRunsTasksInSubmissionOrder) {
  // Block the only worker, queue tasks behind it, then release it: the
  // queue is FIFO, so the tasks run in the order they were submitted.
  ThreadPool pool(1);
  std::latch blocked(1);
  std::latch release(1);
  auto blocker = pool.submit([&] {
    blocked.count_down();
    release.wait();
  });
  blocked.wait();
  constexpr int kTasks = 8;
  std::vector<int> order;  // written by the one worker only
  std::vector<std::future<void>> done;
  for (int i = 0; i < kTasks; ++i)
    done.push_back(pool.submit([&order, i] { order.push_back(i); }));
  release.count_down();
  blocker.get();
  for (auto& f : done) f.get();
  std::vector<int> want(kTasks);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(DseParallelPool, ParallelForDrainsUnevenLoad) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  parallelFor(&pool, 64, [&](std::size_t i) {
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
                  [&](std::size_t i) {
                    if (i == 3) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(DseParallelPool, EveryIndexRunsAndTheLowestFailureIsRethrown) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::atomic<int>> hits(64);
    try {
      parallelFor(&pool, hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i % 10 == 7) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7");
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
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
  parallelFor(&pool, got.size(), [&](std::size_t i) {
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
  // Every point records its wall time, and its dse.point span ran on one
  // of the jobs - 1 = 3 DSE workers' lanes or on the caller's own lane.
  auto& tr = obs::Tracer::global();
  tr.disable();
  tr.clear();
  tr.enable();
  auto points = sweepWithJobs(designs::diffeqSource(), 4, 4);
  tr.disable();
  for (const auto& p : points) EXPECT_GT(p.wallSeconds, 0.0);
  const std::set<std::string> lanes = {"dse-0", "dse-1", "dse-2"};
  std::size_t spans = 0;
  for (const auto& track : tr.snapshot())
    for (const auto& e : track.events) {
      if (e.phase != 'B' || e.name != "dse.point") continue;
      ++spans;
      EXPECT_TRUE(track.tid == tr.currentTid() || lanes.count(track.name))
          << "dse.point on lane " << track.name;
    }
  EXPECT_EQ(spans, points.size());
  tr.clear();
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

TEST(DseParallelSweep, ChippeWastesAtMostJobsMinusOnePoints) {
  // Targets from unreachable (the loop stops on a flat latency or the cap)
  // to met by the first budget.
  auto& synthesized = obs::MetricsRegistry::global().counter("dse.points");
  std::set<int> targets = {0, 1000};
  for (const auto& p : sweepWithJobs(designs::ewfSource(), 8, 1))
    targets.insert(p.latencySteps);
  for (const int jobs : {1, 2, 4}) {
    for (const int t : targets) {
      SynthesisOptions base;
      base.jobs = jobs;
      const std::uint64_t before = synthesized.value();
      const auto points = chippeIterate(designs::ewfSource(), t, 8, base);
      const std::uint64_t delta = synthesized.value() - before;
      ASSERT_FALSE(points.empty());
      if (jobs == 1) {
        EXPECT_EQ(delta, points.size()) << "target " << t;
      }
      EXPECT_GE(delta, points.size()) << "target " << t;
      EXPECT_LE(delta, points.size() + jobs - 1)
          << "jobs " << jobs << " target " << t;
    }
  }
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
/// the reference must agree at critical + each of `slacks`, at twice the
/// critical length, and at the time sweep's horizons: exploreTimeSweep
/// gives every block the longest block's unconstrained ASAP length + 0..4,
/// so a short block runs with a frame far wider than its own.
void expectBlocksMatchReference(const Function& fn, const std::string& what,
                                std::initializer_list<int> slacks) {
  int maxBlockSteps = 0;
  for (const auto& blk : fn.blocks())
    maxBlockSteps = std::max(maxBlockSteps,
                             asapUnconstrained(BlockDeps(fn, blk)).numSteps);
  for (const auto& blk : fn.blocks()) {
    if (blk.ops.empty()) continue;
    BlockDeps deps(fn, blk);
    const int critical = computeLevels(deps).criticalLength;
    std::set<int> horizons;
    for (int slack : slacks) horizons.insert(critical + slack);
    horizons.insert(2 * critical);
    for (int extra = 0; extra <= 4; ++extra)
      horizons.insert(maxBlockSteps + extra);
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
