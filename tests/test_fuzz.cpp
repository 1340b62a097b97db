// Tests for the differential fuzzing subsystem (src/fuzz/): generator
// determinism, the co-simulation oracle's ability to catch real
// divergences (injected miscompiles, corrupted schedules), delta-debugging
// reduction, corpus save/replay, campaign determinism across job counts,
// and the checked-in regression corpus under tests/fixtures/fuzz/.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/frontend_cache.h"
#include "fuzz/bdl_gen.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "fuzz/diff_runner.h"
#include "fuzz/reduce.h"
#include "lang/frontend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/pass.h"
#include "sched/freedom.h"
#include "sched/sched_util.h"

namespace mphls {
namespace {

namespace fs = std::filesystem;

std::size_t lineCount(const std::string& s) {
  std::size_t n = 0;
  for (char c : s)
    if (c == '\n') ++n;
  return n;
}

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("mphls-fuzz-test-" + tag + "-" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

fuzz::DiffOptions quickDiff() {
  fuzz::DiffOptions d;
  d.points = fuzz::FuzzMatrix::quick().points();
  return d;
}

// --------------------------------------------------------------- generator

TEST(FuzzGen, DeterministicBySeed) {
  for (std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
    fuzz::GenProgram a = fuzz::generateProgram(seed);
    fuzz::GenProgram b = fuzz::generateProgram(seed);
    EXPECT_EQ(a.render(), b.render()) << "seed " << seed;
    EXPECT_EQ(a.inputNames(), b.inputNames());
  }
  EXPECT_NE(fuzz::generateProgram(1).render(),
            fuzz::generateProgram(2).render());
}

TEST(FuzzGen, GeneratedProgramsCompile) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz::GenProgram p = fuzz::generateProgram(seed);
    DiagEngine diags;
    auto fn = compileBdl(p.render(), diags);
    EXPECT_TRUE(fn.has_value())
        << "seed " << seed << ": " << diags.summary() << "\n" << p.render();
  }
}

TEST(FuzzGen, RandomInputsPatternsAndDeterminism) {
  const std::vector<std::string> names = {"a", "b"};
  auto zeros = fuzz::randomInputs(names, 9, 0);
  auto ones = fuzz::randomInputs(names, 9, 1);
  for (const auto& n : names) {
    EXPECT_EQ(zeros.at(n), 0u);
    EXPECT_EQ(ones.at(n), ~0ull);
  }
  EXPECT_EQ(fuzz::randomInputs(names, 9, 2), fuzz::randomInputs(names, 9, 2));
  EXPECT_NE(fuzz::randomInputs(names, 9, 2), fuzz::randomInputs(names, 9, 3));
}

TEST(FuzzGen, SplitmixSeedsDecorrelate) {
  // Neighboring seeds must give unrelated streams (the old multiplicative
  // xorshift seeding made seed and seed+1 share most of their stream).
  fuzz::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

// ------------------------------------------------------------------ oracle

TEST(FuzzDiff, CleanProgramsPassTheQuickMatrix) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    fuzz::GenProgram p = fuzz::generateProgram(seed);
    fuzz::ProgramVerdict v = fuzz::runSource(p.render(), seed, quickDiff());
    EXPECT_TRUE(v.ok()) << "seed " << seed << ": "
                        << (v.failures.empty() ? "compile"
                                               : v.failures.front().detail);
  }
}

TEST(FuzzDiff, DetectsInjectedMiscompile) {
  const std::string source =
      "proc fuzz(in a: uint<8>, in b: uint<8>, out o: uint<16>) {\n"
      "  o = (a * b);\n"
      "}\n";
  fuzz::DiffOptions d = quickDiff();
  d.inject = InjectedBug::MulToAdd;
  fuzz::ProgramVerdict v = fuzz::runSource(source, 1, d);
  ASSERT_FALSE(v.ok());
  bool sawMismatch = false;
  for (const auto& f : v.failures) sawMismatch |= f.kind == "mismatch";
  EXPECT_TRUE(sawMismatch);
  // The same program is clean without the injection.
  EXPECT_TRUE(fuzz::runSource(source, 1, quickDiff()).ok());
}

TEST(FuzzDiff, DetectsCorruptedSchedule) {
  // Collapse every multi-op block onto control step 0: the RTL simulator
  // follows the controller, so only the checkDesign gate can see this.
  const std::string source =
      "proc fuzz(in a: uint<8>, in b: uint<8>, out o: uint<8>) {\n"
      "  o = (((a * b) + a) ^ (b - a));\n"
      "}\n";
  fuzz::DiffOptions d = quickDiff();
  d.postSynthesis = [](SynthesisResult& r, const fuzz::MatrixPoint&) {
    for (BlockSchedule& bs : r.design.sched.blocks) {
      if (bs.step.size() < 2) continue;
      for (int& s : bs.step) s = 0;
      bs.numSteps = 1;
    }
  };
  fuzz::ProgramVerdict v = fuzz::runSource(source, 1, d);
  ASSERT_FALSE(v.ok());
  for (const auto& f : v.failures) EXPECT_EQ(f.kind, "check") << f.detail;
}

/// Everything a verdict reports, point by point.
std::string verdictText(const fuzz::ProgramVerdict& v) {
  std::string s = "points=" + std::to_string(v.pointsRun) +
                  " sims=" + std::to_string(v.simulations) + "\n";
  for (const auto& f : v.failures)
    s += f.kind + " t=" + std::to_string(f.trial) + " [" + f.pointLabel() +
         "] " + f.detail + "\n";
  return s;
}

/// The verdict of running each point of `d` on its own, concatenated in
/// point order (stopping after the first failing point when `d` stops at
/// its first failure) — what runSource reported before points shared work.
fuzz::ProgramVerdict isolatedVerdict(const std::string& source,
                                     std::uint64_t seed,
                                     const fuzz::DiffOptions& d) {
  fuzz::ProgramVerdict all;
  all.seed = seed;
  for (const fuzz::MatrixPoint& p : d.points) {
    fuzz::DiffOptions one = d;
    one.points = {p};
    fuzz::ProgramVerdict v = fuzz::runSource(source, seed, one);
    all.compiled = v.compiled;
    all.pointsRun += v.pointsRun;
    all.simulations += v.simulations;
    all.failures.insert(all.failures.end(), v.failures.begin(),
                        v.failures.end());
    if (!v.failures.empty() && d.stopAtFirstFailure) break;
  }
  return all;
}

TEST(FuzzDiff, SharedMatrixMatchesIsolatedPoints) {
  // Points differing only in state encoding share one synthesis, STA,
  // check and co-simulation run; the verdict must be exactly the one the
  // points give on their own, also for post-synthesis mutations of the
  // shared design and under stopAtFirstFailure.
  for (InjectedBug bug :
       {InjectedBug::None, InjectedBug::MulToAdd,
        InjectedBug::ScheduleShift, InjectedBug::SwappedBinding}) {
    int failing = 0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const std::string src = fuzz::generateProgram(seed).render();
      for (bool stop : {false, true}) {
        fuzz::DiffOptions d;
        d.inject = bug;
        d.stopAtFirstFailure = stop;
        const fuzz::ProgramVerdict shared = fuzz::runSource(src, seed, d);
        EXPECT_EQ(verdictText(shared),
                  verdictText(isolatedVerdict(src, seed, d)))
            << "seed " << seed << " inject " << (int)bug << " stop " << stop;
        failing += shared.ok() ? 0 : 1;
      }
    }
    // Seed 3 multiplies and has a swappable operation; every seed but 2
    // has a shiftable one.
    if (bug != InjectedBug::None) {
      EXPECT_GT(failing, 0) << "inject " << (int)bug << " never failed";
    }
  }
}

TEST(FuzzDiff, PerPointHookDisablesSharing) {
  // A hook that corrupts only the one-hot points' schedules: were the
  // binary point's design shared with its one-hot twin, the corruption
  // would never reach the twin's checks.
  const std::string source =
      "proc fuzz(in a: uint<8>, in b: uint<8>, out o: uint<8>) {\n"
      "  o = (((a * b) + a) ^ (b - a));\n"
      "}\n";
  fuzz::DiffOptions d;
  d.postSynthesis = [](SynthesisResult& r, const fuzz::MatrixPoint& p) {
    if (p.enc != StateEncoding::OneHot) return;
    for (BlockSchedule& bs : r.design.sched.blocks) {
      if (bs.step.size() < 2) continue;
      for (int& s : bs.step) s = 0;
      bs.numSteps = 1;
    }
  };
  const fuzz::ProgramVerdict v = fuzz::runSource(source, 1, d);
  EXPECT_EQ(verdictText(v), verdictText(isolatedVerdict(source, 1, d)));
  ASSERT_FALSE(v.failures.empty());
  for (const auto& f : v.failures) {
    EXPECT_EQ(f.kind, "check") << f.detail;
    EXPECT_EQ(f.point.enc, StateEncoding::OneHot) << f.pointLabel();
  }
  EXPECT_EQ(v.failingPoints().size(), d.points.size() / 2);
}

TEST(FuzzDiff, StandardSeedSynthesizesAndChecksEachDesignOnce) {
  // 24 points, 12 distinct designs: one synthesis, one STA run and one
  // set of co-simulations per design, while the verdict still accounts
  // for every matrix point (24 points, 24 x trials simulations).
  auto& mr = obs::MetricsRegistry::global();
  auto read = [&] {
    return std::array<std::uint64_t, 3>{mr.counter("synth.runs").value(),
                                        mr.counter("sta.runs").value(),
                                        mr.counter("sim.rtl_runs").value()};
  };
  fuzz::DiffOptions d;
  const std::string src = fuzz::generateProgram(1).render();
  const auto before = read();
  const fuzz::ProgramVerdict v = fuzz::runSource(src, 1, d);
  const auto after = read();
  ASSERT_TRUE(v.ok()) << verdictText(v);
  ASSERT_EQ(d.points.size(), 24u);
  EXPECT_EQ(after[0] - before[0], 12u);
  EXPECT_EQ(after[1] - before[1], 12u);
  EXPECT_EQ(after[2] - before[2], 12u * (std::uint64_t)d.trials);
  EXPECT_EQ(v.pointsRun, 24);
  EXPECT_EQ(v.simulations, 24L * d.trials);
}

TEST(FuzzDiff, StructuralAnalyzersRerunOnlyOnChangedDesigns) {
  // The stage exits check each design synthesis returns, so the oracle
  // re-runs the schedule, binding and controller analyzers only on a
  // design changed after synthesis: once per group under a post-synthesis
  // injection or hook, never otherwise. The netlist lint runs once per
  // group either way.
  auto spans = [](const fuzz::DiffOptions& d) {
    obs::Tracer& tr = obs::Tracer::global();
    tr.clear();
    tr.enable();
    (void)fuzz::runSource(fuzz::generateProgram(1).render(), 1, d);
    tr.disable();
    std::map<std::string, std::size_t> n;
    for (const auto& track : tr.snapshot())
      for (const auto& e : track.events)
        if (e.phase == 'B' && e.name.rfind("check.", 0) == 0) ++n[e.name];
    tr.clear();
    return n;
  };
  auto expect = [&](const fuzz::DiffOptions& d, std::size_t structural,
                    const char* what) {
    const std::size_t groups = fuzz::planGroups(d).groups.size();
    auto n = spans(d);
    for (const char* a :
         {"check.schedule", "check.binding", "check.controller"})
      EXPECT_EQ(n[a], structural * groups) << what << " " << a;
    EXPECT_EQ(n["check.netlist"], groups) << what;
  };
  fuzz::DiffOptions clean;
  ASSERT_EQ(fuzz::planGroups(clean).groups.size(), 12u);
  expect(clean, 0, "clean");
  for (InjectedBug bug :
       {InjectedBug::ScheduleShift, InjectedBug::SwappedBinding}) {
    fuzz::DiffOptions injected;
    injected.inject = bug;
    expect(injected, 1, bug == InjectedBug::ScheduleShift ? "shift" : "swap");
  }
  fuzz::DiffOptions hooked;
  hooked.postSynthesis = [](SynthesisResult&, const fuzz::MatrixPoint&) {};
  ASSERT_EQ(fuzz::planGroups(hooked).groups.size(), 24u);
  expect(hooked, 1, "post-synthesis hook");
}

TEST(FuzzDiff, DesignFaultIsAMismatchOnItsTrial) {
  // Seed 3 with its schedule shifted and the checkers off: the RTL reads
  // a unit's output in a step where the unit computes nothing. That is a
  // fault of the design under test, reported per trial with its inputs.
  const fuzz::GenProgram p = fuzz::generateProgram(3);
  fuzz::DiffOptions d = quickDiff();
  d.inject = InjectedBug::ScheduleShift;
  d.check = false;
  const fuzz::ProgramVerdict v = fuzz::runSource(p.render(), 3, d);
  int faults = 0;
  for (const auto& f : v.failures) {
    EXPECT_NE(f.kind, "error") << f.detail;
    if (f.detail.find("read of inactive unit output") == std::string::npos)
      continue;
    ++faults;
    EXPECT_EQ(f.kind, "mismatch") << f.detail;
    EXPECT_GE(f.trial, 0) << f.detail;
    EXPECT_EQ(f.detail.rfind("design fault on", 0), 0u) << f.detail;
    for (const std::string& in : p.inputNames())
      EXPECT_NE(f.detail.find(" " + in + "="), std::string::npos) << f.detail;
  }
  EXPECT_GT(faults, 0) << verdictText(v);
}

TEST(FuzzDiff, SourceRunGroupsOnThreadsMatchRunSource) {
  // The groups of one program run on four threads, last group first;
  // the verdict is runSource's, with shared and with per-point designs.
  fuzz::DiffOptions hooked;
  hooked.postSynthesis = [](SynthesisResult&, const fuzz::MatrixPoint&) {};
  fuzz::DiffOptions mul;
  mul.inject = InjectedBug::MulToAdd;
  for (const fuzz::DiffOptions& d : {mul, hooked}) {
    const fuzz::GroupPlan plan = fuzz::planGroups(d);
    for (std::uint64_t seed : {1ull, 3ull}) {
      const std::string src = fuzz::generateProgram(seed).render();
      fuzz::SourceRun run(src, seed, d, plan);
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
          for (std::size_t k; (k = next++) < plan.groups.size();)
            run.runGroup(plan.groups.size() - 1 - k);
        });
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(verdictText(run.verdict()),
                verdictText(fuzz::runSource(src, seed, d)))
          << "seed " << seed;
    }
  }
}

// ----------------------------------------------------------------- reducer

TEST(FuzzReduce, ShrinksInjectedMiscompileWitness) {
  // Find a generated program whose product survives optimization, then
  // shrink it against the real differential predicate the campaign uses.
  fuzz::DiffOptions d = quickDiff();
  d.inject = InjectedBug::MulToAdd;
  d.stopAtFirstFailure = true;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fuzz::GenProgram p = fuzz::generateProgram(seed);
    fuzz::ProgramVerdict v = fuzz::runSource(p.render(), seed, d);
    bool mismatch = false;
    for (const auto& f : v.failures) mismatch |= f.kind == "mismatch";
    if (!mismatch) continue;

    fuzz::DiffOptions rd = d;
    rd.points = v.failingPoints();
    auto stillFails = [&](const fuzz::GenProgram& cand) {
      fuzz::ProgramVerdict cv = fuzz::runSource(cand.render(), seed, rd);
      if (!cv.compiled) return false;
      for (const auto& f : cv.failures)
        if (f.kind == "mismatch") return true;
      return false;
    };
    fuzz::ReduceStats stats;
    fuzz::GenProgram reduced = fuzz::reduceProgram(p, stillFails, &stats);
    EXPECT_TRUE(stillFails(reduced));
    EXPECT_LE(stats.finalStmts, stats.initialStmts);
    EXPECT_LT(lineCount(reduced.render()), 15u) << reduced.render();
    // A minimal multiply-miscompile witness must still multiply.
    EXPECT_NE(reduced.render().find('*'), std::string::npos);
    return;
  }
  FAIL() << "no seed in 1..20 produced a surviving multiply";
}

TEST(FuzzReduce, ReturnsInputUnchangedWhenPredicateNeverHolds) {
  fuzz::GenProgram p = fuzz::generateProgram(5);
  fuzz::ReduceStats stats;
  fuzz::GenProgram r = fuzz::reduceProgram(
      p, [](const fuzz::GenProgram&) { return false; }, &stats);
  EXPECT_EQ(r.render(), p.render());
  EXPECT_EQ(stats.accepted, 0);
}

TEST(FuzzReduce, ConvergesOnStructuralPredicate) {
  // Pure structural predicate (keeps any program still containing a
  // division): the reducer should strip everything else.
  fuzz::GenProgram p;
  std::uint64_t seed = 1;
  for (;; ++seed) {
    ASSERT_LE(seed, 50u) << "no generated program with a division";
    p = fuzz::generateProgram(seed);
    if (p.render().find('/') != std::string::npos) break;
  }
  auto hasDiv = [](const fuzz::GenProgram& cand) {
    return cand.render().find('/') != std::string::npos;
  };
  fuzz::ReduceStats stats;
  fuzz::GenProgram r = fuzz::reduceProgram(p, hasDiv, &stats);
  EXPECT_TRUE(hasDiv(r));
  EXPECT_LT(r.render().size(), p.render().size());
  EXPECT_LE(r.stmtCount(), 3u) << r.render();
}

// ------------------------------------------------------------------ corpus

TEST(FuzzCorpus, EntryRoundTrip) {
  fuzz::CorpusEntry e;
  e.name = "seed-000042";
  e.seed = 42;
  e.kind = "mismatch";
  e.point = "sched=list fu=greedy-local";
  e.note = "first line\nsecond line";
  const std::string program = "proc fuzz(out o: uint<4>) {\n  o = 1;\n}\n";
  const std::string text = fuzz::renderEntry(e, program);
  fuzz::CorpusEntry back = fuzz::parseEntry(text, e.name);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.kind, "mismatch");
  EXPECT_EQ(back.point, e.point);
  EXPECT_EQ(back.note, "first line second line");  // flattened
  EXPECT_EQ(back.source, text);  // header comments stay part of the unit
  EXPECT_NE(back.source.find(program), std::string::npos);
}

TEST(FuzzCorpus, SaveLoadReplayRoundTrip) {
  TempDir tmp("corpus");
  for (std::uint64_t seed : {2ull, 1ull}) {
    fuzz::CorpusEntry e;
    e.name = "seed-" + std::to_string(seed);
    e.seed = seed;
    e.kind = "fixture";
    ASSERT_TRUE(fuzz::saveEntry(tmp.path.string(), e,
                                fuzz::generateProgram(seed).render()));
  }
  auto entries = fuzz::loadCorpus(tmp.path.string());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].seed, 1u);  // sorted by filename
  EXPECT_EQ(entries[1].seed, 2u);
  fuzz::ReplayResult r = fuzz::replayCorpus(tmp.path.string(), quickDiff());
  EXPECT_EQ(r.entries, 2);
  EXPECT_TRUE(r.clean());
}

// A seed tag that is not a number marks the entry corrupt, and replay
// reports it as failing instead of running it as seed 0.
TEST(FuzzCorpus, MalformedSeedTagFailsReplay) {
  const std::string program = fuzz::generateProgram(3).render();
  const fuzz::CorpusEntry hex =
      fuzz::parseEntry("# mphls-fuzz seed: 0x2a\n" + program, "hex");
  EXPECT_EQ(hex.seed, 42u);
  EXPECT_EQ(hex.corrupt, "");
  for (const char* tag : {"abc", "12abc", "-1", "", "99999999999999999999"})
    EXPECT_NE(fuzz::parseEntry(std::string("# mphls-fuzz seed: ") + tag +
                                   "\n" + program,
                               "bad")
                  .corrupt,
              "")
        << "seed tag '" << tag << "'";

  TempDir tmp("corrupt");
  fuzz::CorpusEntry good;
  good.name = "good";
  good.seed = 3;
  good.kind = "fixture";
  ASSERT_TRUE(fuzz::saveEntry(tmp.path.string(), good, program));
  {
    std::ofstream out(tmp.path / "bad.bdl");
    out << "# mphls-fuzz seed: abc\n# mphls-fuzz kind: fixture\n" << program;
  }
  const fuzz::ReplayResult r =
      fuzz::replayCorpus(tmp.path.string(), quickDiff());
  EXPECT_EQ(r.entries, 2);
  EXPECT_EQ(r.failed, 1);
  EXPECT_FALSE(r.clean());
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].name, "bad");
  ASSERT_EQ(r.outcomes[0].verdict.failures.size(), 1u);
  EXPECT_EQ(r.outcomes[0].verdict.failures[0].kind, "corrupt");
  EXPECT_EQ(r.outcomes[0].verdict.failures[0].pointLabel(), "");
  EXPECT_EQ(r.outcomes[0].verdict.pointsRun, 0);
  EXPECT_TRUE(r.outcomes[1].verdict.ok());
}

// ---------------------------------------------------------------- campaign

/// A campaign's report, minus the wall-time keys and the job count, then
/// every failing program's source and full verdict.
std::string campaignText(const fuzz::CampaignOptions& c,
                         const fuzz::CampaignResult& r) {
  JsonValue j = fuzz::campaignReport(c, r, "standard");
  for (const char* key :
       {"jobs", "wall_seconds", "seeds_per_sec", "cosims_per_sec"})
    j[key] = 0;
  std::string s = j.dump();
  for (const fuzz::FailureCase& fc : r.failures)
    s += fc.source + verdictText(fc.verdict);
  return s;
}

TEST(FuzzCampaign, DeterministicAcrossJobCounts) {
  // A seed's design groups run as separate tasks, in any interleaving with
  // other seeds'; the report and each failing program's verdict must not
  // depend on the job count, also when a shifted schedule makes designs
  // fault in simulation with the checkers off.
  struct Case {
    InjectedBug bug;
    bool check;
  };
  for (const Case& k : {Case{InjectedBug::MulToAdd, true},
                        Case{InjectedBug::ScheduleShift, false}}) {
    fuzz::CampaignOptions c;
    c.seeds = 6;
    c.diff.inject = k.bug;
    c.diff.check = k.check;
    c.jobs = 1;
    const fuzz::CampaignResult serial = fuzz::runCampaign(c);
    EXPECT_GE(serial.failedPrograms, 1) << "inject " << (int)k.bug;
    const std::string want = campaignText(c, serial);
    for (int jobs : {2, 4, 7}) {
      c.jobs = jobs;
      EXPECT_EQ(campaignText(c, fuzz::runCampaign(c)), want)
          << "inject " << (int)k.bug << " jobs " << jobs;
    }
  }
}

TEST(FuzzCampaign, ReplayDeterministicAcrossJobCounts) {
  // Corpus replay schedules (entry, design group) tasks like a campaign.
  TempDir tmp("replay-jobs");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz::CorpusEntry e;
    e.name = "seed-" + std::to_string(seed);
    e.seed = seed;
    e.kind = "fixture";
    ASSERT_TRUE(fuzz::saveEntry(tmp.path.string(), e,
                                fuzz::generateProgram(seed).render()));
  }
  fuzz::DiffOptions d;
  d.inject = InjectedBug::SwappedBinding;
  auto replayText = [](const fuzz::ReplayResult& r) {
    std::string s = std::to_string(r.entries) + " entries, " +
                    std::to_string(r.failed) + " failing\n";
    for (const fuzz::ReplayOutcome& o : r.outcomes)
      s += o.name + ": " + verdictText(o.verdict);
    return s;
  };
  const fuzz::ReplayResult serial =
      fuzz::replayCorpus(tmp.path.string(), d, 1);
  EXPECT_GE(serial.failed, 1);
  const std::string want = replayText(serial);
  for (int jobs : {2, 4, 7})
    EXPECT_EQ(replayText(fuzz::replayCorpus(tmp.path.string(), d, jobs)),
              want)
        << jobs;
}

TEST(FuzzCampaign, ConcurrentGroupsCompileAndSynthesizeOnce) {
  // The 12 design groups of each seed run on four workers at once, yet
  // each seed's frontend is compiled once (the standard matrix has one
  // opt level) and each of its designs synthesized once.
  auto& mr = obs::MetricsRegistry::global();
  FrontendCache::global().clear();
  const std::size_t misses = FrontendCache::global().misses();
  const std::uint64_t runs = mr.counter("synth.runs").value();
  fuzz::CampaignOptions c;
  c.seeds = 12;
  c.jobs = 4;
  const fuzz::CampaignResult r = fuzz::runCampaign(c);
  ASSERT_TRUE(r.clean());
  EXPECT_EQ(FrontendCache::global().misses() - misses, 12u);
  EXPECT_EQ(mr.counter("synth.runs").value() - runs, 12u * 12u);
}

TEST(FuzzCampaign, PoolIsNoWiderThanTheCampaignHasTasks) {
  // One seed is `tasks` (program, design group) tasks, so --jobs 64 runs
  // at most `tasks` wide: the calling thread and tasks - 1 pool workers.
  // The hook counts the process's threads while the campaign's pool runs.
  auto threadCount = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         fs::directory_iterator("/proc/self/task"))
      ++n;
    return n;
  };
  std::mutex mutex;
  std::size_t peak = 0;
  fuzz::CampaignOptions c;
  c.seeds = 1;
  c.jobs = 64;
  c.diff = quickDiff();
  c.diff.preBackend = [&](Function&, const fuzz::MatrixPoint&) {
    const std::size_t n = threadCount();
    std::lock_guard<std::mutex> lock(mutex);
    peak = std::max(peak, n);
  };
  const std::size_t tasks = fuzz::planGroups(c.diff).groups.size();
  ASSERT_GE(tasks, 1u);
  ASSERT_LT(tasks, 64u);
  const std::size_t before = threadCount();
  EXPECT_TRUE(fuzz::runCampaign(c).clean());
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, before + tasks - 1) << tasks << " tasks";
}

TEST(FuzzCampaign, ReportCarriesTheCampaignShape) {
  fuzz::CampaignOptions c;
  c.seeds = 3;
  c.diff = quickDiff();
  fuzz::CampaignResult r = fuzz::runCampaign(c);
  EXPECT_TRUE(r.clean());
  JsonValue j = fuzz::campaignReport(c, r, "quick");
  const std::string s = j.dump();
  EXPECT_NE(s.find("\"benchmark\": \"fuzz_campaign\""), std::string::npos)
      << s;
  EXPECT_NE(s.find("\"matrix\": \"quick\""), std::string::npos);
  EXPECT_NE(s.find("\"failing_programs\": 0"), std::string::npos);
}

// ------------------------------------------------------ regression corpus

TEST(FuzzRegress, FixtureCorpusPassesTheQuickMatrix) {
  const std::string dir = std::string(MPHLS_FIXTURE_DIR) + "/fuzz";
  auto entries = fuzz::loadCorpus(dir);
  ASSERT_GE(entries.size(), 5u) << dir;
  fuzz::ReplayResult r = fuzz::replayCorpus(dir, quickDiff());
  for (const auto& o : r.outcomes)
    EXPECT_TRUE(o.verdict.ok())
        << o.name << ": "
        << (o.verdict.failures.empty() ? "compile"
                                       : o.verdict.failures.front().detail);
  EXPECT_TRUE(r.clean());
}

TEST(FuzzRegress, FreedomSchedulerConvergesUnderTightCaps) {
  // tests/fixtures/fuzz/freedom-stretch.bdl used to blow the freedom
  // scheduler's convergence check: once an op's successors were placed,
  // growing the horizon never widened its range. The fix inserts a control
  // step (shifting placed ops), so tight FU caps must now always converge.
  auto entries = fuzz::loadCorpus(std::string(MPHLS_FIXTURE_DIR) + "/fuzz");
  const fuzz::CorpusEntry* stretch = nullptr;
  for (const auto& e : entries)
    if (e.name == "freedom-stretch") stretch = &e;
  ASSERT_NE(stretch, nullptr);

  Function fn = compileBdlOrThrow(stretch->source);
  optimize(fn);
  for (int cap : {1, 2}) {
    auto limits = ResourceLimits::universalSet(cap);
    for (const auto& blk : fn.blocks()) {
      if (blk.ops.empty()) continue;
      BlockDeps deps(fn, blk);
      auto res = freedomSchedule(deps, limits);
      EXPECT_EQ(validateBlockSchedule(deps, res.schedule, limits), "")
          << blk.name << " cap=" << cap;
    }
  }
}

TEST(FuzzRegress, SelfStoreWiringDoesNotCycleTheDependenceGraph) {
  // 10k-campaign find (seed 1350): algebraic folding turned `0 ^ v2` into
  // the bare load *after* forwarding had already collapsed a reload, so
  // the standard pipeline produced either a store of the load's own value
  // or a free-wiring chain crossing a store of its root variable. Both
  // shapes made BlockDeps' use-before-overwrite edge contradict the
  // store-order chain and topoOrder() threw "dependence graph has a
  // cycle". The wiringWouldOutliveStore guard (refused rewrites) plus the
  // store-load-back exemption in deps.cpp keep every block acyclic.
  auto entries = fuzz::loadCorpus(std::string(MPHLS_FIXTURE_DIR) + "/fuzz");
  int covered = 0;
  for (const auto& e : entries) {
    if (e.name != "dep-cycle-self-xor" && e.name != "dep-cycle-wiring-chain" &&
        e.name != "self-store-then-overwrite")
      continue;
    ++covered;
    Function fn = compileBdlOrThrow(e.source);
    optimize(fn);
    for (const auto& blk : fn.blocks()) {
      if (blk.ops.empty()) continue;
      BlockDeps deps(fn, blk);
      EXPECT_NO_THROW((void)deps.topoOrder()) << e.name << " " << blk.name;
    }
  }
  EXPECT_EQ(covered, 3);

  // The write-back exemption must not *drop* the constraint: in
  // self-store-then-overwrite, `out0 = v0` reads v0's initial value and a
  // later `v0 = 350` overwrites it — every matrix point has to agree with
  // the behavioral model (the first fix let the RTL write 94 instead of 0).
  for (const auto& e : entries) {
    if (e.name != "self-store-then-overwrite") continue;
    fuzz::ProgramVerdict v = fuzz::runSource(e.source, e.seed, quickDiff());
    EXPECT_TRUE(v.ok()) << (v.failures.empty()
                                ? "compile"
                                : v.failures.front().detail);
  }
}

TEST(FuzzRegress, NarrowingSurvivesMixedWidthEqualityRefinement) {
  // 10k-campaign find (seed 9859): one narrowing round left `in0 != out0`
  // comparing a w12 zext against a w24 load; the equality refinement on
  // the else edge then met the w12 signed range into the w24 variable
  // fact (capping it at 2047) and the next round narrowed the load to 11
  // bits — behavioral 4095 vs RTL 2047. The same-width gate on meetS in
  // analysis/dataflow.cpp makes the narrow=1 points co-simulate clean.
  auto entries = fuzz::loadCorpus(std::string(MPHLS_FIXTURE_DIR) + "/fuzz");
  const fuzz::CorpusEntry* entry = nullptr;
  for (const auto& e : entries)
    if (e.name == "narrow-eq-refine") entry = &e;
  ASSERT_NE(entry, nullptr);

  fuzz::DiffOptions d;
  fuzz::MatrixPoint p;
  p.narrow = true;
  d.points = {p};
  fuzz::ProgramVerdict v = fuzz::runSource(entry->source, entry->seed, d);
  EXPECT_TRUE(v.ok()) << (v.failures.empty()
                              ? "compile"
                              : v.failures.front().detail);
}

}  // namespace
}  // namespace mphls
