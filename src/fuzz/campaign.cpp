#include "fuzz/campaign.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
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

  // Phase 1 — the sweep, parallel over seeds. Every iteration writes only
  // its own slot, so results are identical at any thread count.
  const int workers = resolveJobs(options.jobs);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers, "fuzz");
  parallelFor(pool.get(), n, [&](std::size_t i, int) {
    const std::uint64_t seed = options.seedBase + i;
    GenProgram prog = generateProgram(seed, options.gen);
    sources[i] = prog.render();
    verdicts[i] = runSource(sources[i], seed, options.diff);
    cSeeds.add();
    cPoints.add((std::uint64_t)verdicts[i].pointsRun);
    cSims.add((std::uint64_t)verdicts[i].simulations);
    std::uint64_t mm = 0;
    for (const PointFailure& f : verdicts[i].failures)
      if (f.kind == "mismatch") ++mm;
    if (mm > 0) cMismatches.add(mm);
    if (!verdicts[i].ok()) cFailing.add();
  });
  pool.reset();

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

  const int workers = resolveJobs(jobs);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  parallelFor(pool.get(), entries.size(), [&](std::size_t i, int) {
    verdicts[i] = runSource(entries[i].source, entries[i].seed, diff);
  });
  pool.reset();

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
