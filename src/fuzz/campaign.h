// Fuzz campaigns: seed-parallel differential sweeps with corpus capture,
// reduction and replay — the engine behind `mphls fuzz`.
//
// A campaign generates one program per seed in [seedBase, seedBase+seeds),
// runs each through the differential matrix (fuzz/diff_runner.h) on the
// shared work-stealing ThreadPool, then — sequentially, so results are
// deterministic at any job count — reduces every failing program against
// exactly its failing matrix points (fuzz/reduce.h) and saves raw plus
// minimized entries into the corpus directory (fuzz/corpus.h). Replay
// re-runs every saved corpus entry through the matrix, turning yesterday's
// failures into today's regression gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bench_report.h"
#include "fuzz/bdl_gen.h"
#include "fuzz/diff_runner.h"
#include "fuzz/reduce.h"

namespace mphls::fuzz {

struct CampaignOptions {
  std::uint64_t seedBase = 1;
  int seeds = 100;
  /// Worker threads: <= 0 one per hardware thread, 1 runs serially.
  int jobs = 1;
  GenOptions gen;
  DiffOptions diff;
  /// Delta-debug every failing program down to a minimal reproducer.
  bool reduce = false;
  int maxReduceAttempts = 600;
  /// Save failing (and minimized) programs here; empty disables saving.
  std::string corpusDir;
  /// Print a live one-line progress counter (seeds/sec, mismatches) to
  /// stderr, refreshed ~4x/sec and erased when the sweep ends. The CLI
  /// enables this only when stderr is a TTY. Read from the same
  /// obs::MetricsRegistry counters the campaign publishes.
  bool heartbeat = false;
};

struct FailureCase {
  ProgramVerdict verdict;
  std::string source;           ///< the failing program as generated
  std::string reducedSource;    ///< minimized program (when reduced)
  ReduceStats reduceStats;
  std::string corpusPath;       ///< where the raw entry was saved
  std::string reducedPath;      ///< where the minimized entry was saved
};

struct CampaignResult {
  int seeds = 0;
  int pointsPerProgram = 0;
  long pointsRun = 0;
  long simulations = 0;
  int failedPrograms = 0;
  long mismatches = 0, checkFailures = 0, errors = 0, other = 0;
  /// Static-timing oracle failures ("sta-crash", "sta-negative-slack",
  /// "sta-divergence"): the STA engine crashed on a generated design,
  /// reported negative slack at its own estimated clock, or disagreed
  /// with estimateTiming.
  long staFailures = 0;
  std::vector<FailureCase> failures;
  double wallSeconds = 0;

  [[nodiscard]] bool clean() const { return failedPrograms == 0; }
};

/// Run a campaign. Deterministic per (seedBase, seeds, gen, diff) at any
/// `jobs` value: program generation is a pure function of the seed, the
/// matrix verdicts land in seed order, and reduction runs post-sweep on
/// the caller's thread.
[[nodiscard]] CampaignResult runCampaign(const CampaignOptions& options);

/// Replay every corpus entry under `dir` through the matrix. Entry order
/// (and hence output order) is the sorted filename order.
struct ReplayOutcome {
  std::string name;
  ProgramVerdict verdict;
};
struct ReplayResult {
  int entries = 0;
  int failed = 0;
  std::vector<ReplayOutcome> outcomes;

  [[nodiscard]] bool clean() const { return failed == 0; }
};
[[nodiscard]] ReplayResult replayCorpus(const std::string& dir,
                                        const DiffOptions& diff,
                                        int jobs = 1);

/// BenchReporter-style JSON summary of a campaign (schema documented in
/// README "Differential fuzzing").
[[nodiscard]] JsonValue campaignReport(const CampaignOptions& options,
                                       const CampaignResult& result,
                                       const std::string& matrixName);

}  // namespace mphls::fuzz
