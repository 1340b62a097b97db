#include "fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "fuzz/corpus.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace mphls::fuzz {

namespace {

std::string seedName(std::uint64_t seed) {
  std::ostringstream oss;
  oss << "seed-";
  std::string digits = std::to_string(seed);
  for (std::size_t i = digits.size(); i < 6; ++i) oss << '0';
  oss << digits;
  return oss.str();
}

void countFailures(const ProgramVerdict& v, CampaignResult& r) {
  for (const PointFailure& f : v.failures) {
    if (f.kind == "mismatch") ++r.mismatches;
    else if (f.kind == "check") ++r.checkFailures;
    else if (f.kind == "error") ++r.errors;
    else if (f.kind.rfind("sta-", 0) == 0) ++r.staFailures;
    else ++r.other;
  }
}

/// Program `i` of a sweep: its source, which must stay put until the sweep
/// returns, and its seed.
struct Program {
  const std::string* source;
  std::uint64_t seed;
};

/// Run `n` programs through the matrix as one flat parallelFor over
/// (program, design group) tasks, so the last programs of a sweep spread
/// over every worker instead of straggling on one each. Tasks go
/// program-major;
/// within a program, groups run in reverse matrix order, because the
/// matrix axes list the costly methods last (force-directed after list
/// scheduling, clique after greedy allocation) and a program's costliest
/// designs should start first. The first task to reach a program calls
/// `program(i)` and builds its SourceRun (golden run, frontend slots); the
/// task that finishes its last group assembles the verdict, frees the run
/// and hands the verdict to `finish(i, verdict)`. So about jobs + 1
/// programs are in flight at any time, whatever `n` is.
void sweep(int jobs, std::size_t n, const DiffOptions& diff,
           const std::function<Program(std::size_t)>& program,
           const std::function<void(std::size_t, ProgramVerdict)>& finish) {
  const GroupPlan plan = planGroups(diff);
  const std::size_t groups = plan.groups.size();
  // A program with no points still runs its golden step, in one task.
  const std::size_t tasks = std::max<std::size_t>(groups, 1);
  struct Slot {
    std::mutex mutex;  ///< guards the construction of `run`
    std::unique_ptr<SourceRun> run;
    std::atomic<std::size_t> finished{0};  ///< tasks done
  };
  std::vector<Slot> slots(n);

  // The campaign joins its pool before it returns: making and joining three
  // workers takes about 0.1 ms, under 0.3% of an 8-seed standard-matrix
  // campaign, so a process-lifetime pool (sharedPool) would save little.
  const int width = poolWidth(jobs, n * tasks);
  std::unique_ptr<ThreadPool> pool;
  if (width > 1) pool = std::make_unique<ThreadPool>(width - 1, "fuzz");
  parallelFor(pool.get(), n * tasks, [&](std::size_t t) {
    const std::size_t i = t / tasks, k = t % tasks;
    Slot& s = slots[i];
    SourceRun* run = nullptr;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      if (!s.run) {
        const Program p = program(i);
        s.run = std::make_unique<SourceRun>(*p.source, p.seed, diff, plan);
      }
      run = s.run.get();
    }
    if (k < groups) run->runGroup(groups - 1 - k);
    if (s.finished.fetch_add(1, std::memory_order_acq_rel) + 1 < tasks)
      return;
    ProgramVerdict v = run->verdict();
    s.run.reset();
    finish(i, std::move(v));
  });
}

}  // namespace

CampaignResult runCampaign(const CampaignOptions& options) {
  WallTimer timer;
  CampaignResult result;
  result.seeds = options.seeds;
  result.pointsPerProgram = (int)options.diff.points.size();
  obs::Logger::global().info(
      "fuzz", "campaign start",
      {{"seeds", options.seeds},
       {"points", result.pointsPerProgram},
       {"seed_base", (unsigned long long)options.seedBase}});

  const std::size_t n = (std::size_t)std::max(options.seeds, 0);
  std::vector<std::string> sources(n);
  std::vector<ProgramVerdict> verdicts(n);

  // Live campaign counters. Global and monotonic, so the heartbeat (and
  // any --stats export) reads deltas from the values at campaign start.
  auto& mr = obs::MetricsRegistry::global();
  auto& cSeeds = mr.counter("fuzz.seeds_done");
  auto& cPoints = mr.counter("fuzz.points_run");
  auto& cSims = mr.counter("fuzz.simulations");
  auto& cMismatches = mr.counter("fuzz.mismatches");
  auto& cFailing = mr.counter("fuzz.failing_programs");
  auto& gCosimRate = mr.gauge("fuzz.cosims_per_sec");
  const std::uint64_t seeds0 = cSeeds.value();
  const std::uint64_t sims0 = cSims.value();
  const std::uint64_t mismatches0 = cMismatches.value();

  std::thread heartbeat;
  std::mutex hbMutex;
  std::condition_variable hbCv;
  bool hbStop = false;
  if (options.heartbeat && n > 0) {
    heartbeat = std::thread([&] {
      WallTimer hbTimer;
      std::unique_lock<std::mutex> lk(hbMutex);
      while (!hbCv.wait_for(lk, std::chrono::milliseconds(250),
                            [&] { return hbStop; })) {
        const auto done = (unsigned long long)(cSeeds.value() - seeds0);
        const auto sims = (unsigned long long)(cSims.value() - sims0);
        const auto mism =
            (unsigned long long)(cMismatches.value() - mismatches0);
        const double secs = hbTimer.seconds();
        const double cosimRate = secs > 0 ? (double)sims / secs : 0.0;
        gCosimRate.set(cosimRate);
        std::fprintf(stderr,
                     "\r\033[Kfuzz: %llu/%zu seeds (%.1f/s), %.0f "
                     "cosims/s, %llu mismatch(es)",
                     done, n, secs > 0 ? (double)done / secs : 0.0,
                     cosimRate, mism);
        std::fflush(stderr);
      }
      std::fprintf(stderr, "\r\033[K");  // erase the progress line
      std::fflush(stderr);
    });
  }

  // Phase 1 — the sweep, parallel over (seed, design group) tasks. Each
  // seed's source and verdict land in its own slot, so results are
  // identical at any thread count.
  sweep(
      options.jobs, n, options.diff,
      [&](std::size_t i) {
        const std::uint64_t seed = options.seedBase + i;
        sources[i] = generateProgram(seed, options.gen).render();
        return Program{&sources[i], seed};
      },
      [&](std::size_t i, ProgramVerdict v) {
        cSeeds.add();
        cPoints.add((std::uint64_t)v.pointsRun);
        cSims.add((std::uint64_t)v.simulations);
        std::uint64_t mm = 0;
        for (const PointFailure& f : v.failures)
          if (f.kind == "mismatch") ++mm;
        if (mm > 0) cMismatches.add(mm);
        if (!v.ok()) cFailing.add();
        verdicts[i] = std::move(v);
      });

  if (heartbeat.joinable()) {
    {
      std::lock_guard<std::mutex> lk(hbMutex);
      hbStop = true;
    }
    hbCv.notify_one();
    heartbeat.join();
  }

  // Phase 2 — aggregation, reduction and corpus capture, in seed order on
  // this thread (reduction shares no state across failures; the corpus
  // files it writes are named by seed, so order only affects log output).
  for (std::size_t i = 0; i < n; ++i) {
    ProgramVerdict& v = verdicts[i];
    result.pointsRun += v.pointsRun;
    result.simulations += v.simulations;
    if (v.ok()) continue;

    ++result.failedPrograms;
    countFailures(v, result);
    obs::Logger::global().warn(
        "fuzz", "failing seed",
        {{"seed", (unsigned long long)(options.seedBase + i)},
         {"kind", v.failures.front().kind},
         {"point", v.failures.front().pointLabel()},
         {"failing_points", v.failingPoints().size()}});

    FailureCase fc;
    fc.source = sources[i];
    fc.verdict = v;

    const std::uint64_t seed = options.seedBase + i;
    CorpusEntry entry;
    entry.name = seedName(seed);
    entry.seed = seed;
    entry.kind = v.failures.front().kind;
    entry.point = v.failures.front().pointLabel();
    entry.note = v.failures.front().detail;
    if (!options.corpusDir.empty())
      if (auto p = saveEntry(options.corpusDir, entry, fc.source))
        fc.corpusPath = *p;

    if (options.reduce && v.compiled) {
      // Re-check only the failing points while shrinking. A candidate
      // counts as still-failing only if it reproduces the original
      // failure *kind* — otherwise deleting statements can morph a
      // mismatch into an unrelated error (e.g. a load of a variable
      // whose initialization the reducer just removed) and the
      // minimized program would witness the wrong bug.
      DiffOptions rd = options.diff;
      rd.points = v.failingPoints();
      rd.stopAtFirstFailure = true;
      const std::string wantKind = v.failures.front().kind;
      GenProgram prog = generateProgram(seed, options.gen);
      auto stillFails = [&](const GenProgram& cand) {
        ProgramVerdict cv = runSource(cand.render(), seed, rd);
        if (!cv.compiled) return false;
        for (const PointFailure& f : cv.failures)
          if (f.kind == wantKind) return true;
        return false;
      };
      GenProgram reduced = reduceProgram(prog, stillFails, &fc.reduceStats,
                                         options.maxReduceAttempts);
      fc.reducedSource = reduced.render();
      if (!options.corpusDir.empty()) {
        CorpusEntry mini = entry;
        mini.name = entry.name + ".min";
        if (auto p = saveEntry(options.corpusDir, mini, fc.reducedSource))
          fc.reducedPath = *p;
      }
    }
    result.failures.push_back(std::move(fc));
  }

  result.wallSeconds = timer.seconds();
  gCosimRate.set(result.wallSeconds > 0
                     ? (double)result.simulations / result.wallSeconds
                     : 0.0);
  obs::Logger::global().info(
      "fuzz", "campaign done",
      {{"seeds", options.seeds},
       {"simulations", (unsigned long long)result.simulations},
       {"failing_programs", result.failedPrograms},
       {"mismatches", result.mismatches},
       {"wall_s", result.wallSeconds}});
  return result;
}

ReplayResult replayCorpus(const std::string& dir, const DiffOptions& diff,
                          int jobs) {
  ReplayResult result;
  const std::vector<CorpusEntry> entries = loadCorpus(dir);
  result.entries = (int)entries.size();
  std::vector<ProgramVerdict> verdicts(entries.size());
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].corrupt.empty())
      runnable.push_back(i);
    else
      verdicts[i].failures.push_back(
          {MatrixPoint{}, "corrupt", entries[i].corrupt, -1});
  }
  sweep(
      jobs, runnable.size(), diff,
      [&](std::size_t k) {
        const CorpusEntry& e = entries[runnable[k]];
        return Program{&e.source, e.seed};
      },
      [&](std::size_t k, ProgramVerdict v) {
        verdicts[runnable[k]] = std::move(v);
      });

  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!verdicts[i].ok()) ++result.failed;
    result.outcomes.push_back({entries[i].name, std::move(verdicts[i])});
  }
  return result;
}

JsonValue campaignReport(const CampaignOptions& options,
                         const CampaignResult& result,
                         const std::string& matrixName) {
  JsonValue root = JsonValue::object();
  root["benchmark"] = "fuzz_campaign";
  root["seed_base"] = (std::size_t)options.seedBase;
  root["seeds"] = result.seeds;
  root["matrix"] = matrixName;
  root["points_per_program"] = result.pointsPerProgram;
  root["trials"] = options.diff.trials;
  root["jobs"] = options.jobs;
  root["points_run"] = result.pointsRun;
  root["simulations"] = result.simulations;
  root["failing_programs"] = result.failedPrograms;
  root["mismatches"] = result.mismatches;
  root["check_failures"] = result.checkFailures;
  root["errors"] = result.errors;
  root["sta_failures"] = result.staFailures;
  root["other_failures"] = result.other;
  root["reduced"] = options.reduce;
  root["wall_seconds"] = result.wallSeconds;
  root["seeds_per_sec"] =
      result.wallSeconds > 0 ? result.seeds / result.wallSeconds : 0.0;
  root["cosims_per_sec"] = result.wallSeconds > 0
                               ? result.simulations / result.wallSeconds
                               : 0.0;
  JsonValue failures = JsonValue::array();
  for (const FailureCase& fc : result.failures) {
    JsonValue f = JsonValue::object();
    f["seed"] = (std::size_t)fc.verdict.seed;
    f["first_kind"] = fc.verdict.failures.front().kind;
    f["first_point"] = fc.verdict.failures.front().pointLabel();
    f["note"] = fc.verdict.failures.front().detail;
    f["failing_points"] = (std::size_t)fc.verdict.failingPoints().size();
    if (!fc.corpusPath.empty()) f["corpus_path"] = fc.corpusPath;
    if (!fc.reducedPath.empty()) {
      f["reduced_path"] = fc.reducedPath;
      f["reduced_stmts"] = fc.reduceStats.finalStmts;
      f["reduce_attempts"] = fc.reduceStats.attempts;
    }
    failures.push(std::move(f));
  }
  root["failures"] = std::move(failures);
  return root;
}

}  // namespace mphls::fuzz
