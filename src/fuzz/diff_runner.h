// Differential co-simulation oracle for the fuzzer.
//
// For one BDL program, the runner establishes golden behavior by running
// the behavioral interpreter on the *unoptimized* compile (so optimizer
// bugs are caught, not baked into the oracle), then sweeps a configurable
// synthesis matrix — scheduler × allocator (FU + register method) ×
// controller style (state encoding) × {narrow on/off} × latency model.
// Each distinct input is computed once:
//
//   1. the frontend is shared through FrontendCache, so parse/optimize is
//      paid once per (program, opt level); narrowing, the Mul->Add
//      injection and the semantic lints run once per (opt level, narrow);
//   2. points that differ only in their state encoding share one design
//      (the tutorial's §2 encodes the controller after the schedule, the
//      allocation and the controller are fixed): one synthesis, one STA
//      run, one checkDesign/lint pass and one set of co-simulations on
//      all-zeros, all-ones and seeded-random inputs. The synthesizer's
//      timing check is off while this oracle runs (it checks the finished,
//      possibly mutated design instead) and on under --no-check; its
//      structural stage-exit checks always run;
//   3. only the encoding tail runs per point: encodeController,
//      estimateArea and the encoding oracle (validateEncoding: distinct
//      codes, minimized logic equal to the raw cover, next-state bits equal
//      to the successor's code).
//
// A shared design's verdict is copied to each of its points with that
// point's label, in point order, so the report reads as if every point ran
// alone. Any disagreement — a mismatch, a check finding, a simulator that
// never halts, or an exception out of the pipeline — is recorded as a
// PointFailure naming the exact matrix point, which is what the reducer
// and the corpus replay key on. An RTL run that faults (a read of an
// inactive unit's output, a busy unit re-issued) is a mismatch on its
// trial, since the design cannot compute the behavior on those inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/inject.h"
#include "core/synthesizer.h"

namespace mphls::fuzz {

/// One coordinate of the synthesis matrix.
struct MatrixPoint {
  SchedulerKind sched = SchedulerKind::List;
  FuAllocMethod fu = FuAllocMethod::GreedyLocal;
  RegAllocMethod reg = RegAllocMethod::LeftEdge;
  StateEncoding enc = StateEncoding::Binary;
  OptLevel opt = OptLevel::Standard;
  bool narrow = false;
  bool multicycle = false;
  int fus = 2;

  /// Stable human-readable coordinates, e.g.
  /// "sched=list fu=greedy reg=leftedge enc=binary opt=standard narrow=0
  ///  lat=unit fus=2".
  [[nodiscard]] std::string label() const;

  /// Synthesis options reproducing this point on its own: timing check
  /// armed, narrowing off (runSource narrows the shared frontend itself and
  /// disarms the timing check while its own oracle runs).
  [[nodiscard]] SynthesisOptions toOptions() const;
};

/// An axis-product description of the matrix; points() expands it,
/// skipping invalid combinations (force-directed scheduling requires unit
/// latency).
struct FuzzMatrix {
  std::vector<SchedulerKind> schedulers;
  std::vector<std::pair<FuAllocMethod, RegAllocMethod>> allocators;
  std::vector<StateEncoding> encodings;
  std::vector<OptLevel> optLevels;
  std::vector<bool> narrows;
  std::vector<bool> multicycles;
  std::vector<int> fuLimits;

  /// 2 points: list scheduling, greedy/left-edge, binary, narrow off/on.
  [[nodiscard]] static FuzzMatrix quick();
  /// 24 points: {list, asap, force} × {greedy+leftedge, clique+clique} ×
  /// {binary, onehot} × narrow {off, on}.
  [[nodiscard]] static FuzzMatrix standard();
  /// The whole space: every scheduler, three allocator pairings, all three
  /// encodings, standard+aggressive optimization, narrow off/on, unit and
  /// multicycle latency models.
  [[nodiscard]] static FuzzMatrix full();

  /// Parse "quick" | "standard" | "full"; returns false on anything else.
  static bool parse(const std::string& name, FuzzMatrix& out);

  [[nodiscard]] std::vector<MatrixPoint> points() const;
};

struct PointFailure {
  MatrixPoint point;
  std::string kind;    ///< "compile" | "nonterminating" | "check" |
                       ///< "mismatch" | "rtl-timeout" | "error" |
                       ///< "sta-crash" | "sta-negative-slack" |
                       ///< "sta-divergence" | "encoding"
  std::string detail;
  int trial = -1;      ///< input-pattern index for co-simulation failures

  /// The point's label, or "" for the program-level kinds ("compile",
  /// "nonterminating") where `point` is a meaningless default.
  [[nodiscard]] std::string pointLabel() const {
    if (kind == "compile" || kind == "nonterminating") return "";
    return point.label();
  }
};

struct ProgramVerdict {
  std::uint64_t seed = 0;
  bool compiled = false;
  /// Matrix coverage, not work done: a point counts as run when its design
  /// was synthesized, and every trial of a shared design's co-simulation
  /// counts once per point sharing it. A clean standard-matrix seed reports
  /// 24 points and 96 simulations while running 12 syntheses, 12 STA runs
  /// and 48 RTL simulations.
  int pointsRun = 0;       ///< points fully synthesized
  long simulations = 0;    ///< co-simulation trials accounted to points
  std::vector<PointFailure> failures;

  [[nodiscard]] bool ok() const { return compiled && failures.empty(); }
  /// The distinct matrix points that failed (reduction re-checks only
  /// these, which keeps the shrink loop cheap and the failure focused).
  [[nodiscard]] std::vector<MatrixPoint> failingPoints() const;
};

struct DiffOptions {
  std::vector<MatrixPoint> points = FuzzMatrix::standard().points();
  int trials = 4;
  /// Run the full checkDesign/lint gate on every synthesized point.
  bool check = true;
  /// Stop at the first failing point/trial (used by the reducer, where
  /// only "still fails" matters, not the full failure inventory).
  bool stopAtFirstFailure = false;
  InjectedBug inject = InjectedBug::None;
  /// Test hooks: mutate the optimized IR before the backend (a synthetic
  /// miscompile), or the finished result before checking/simulation (a
  /// synthetic corrupted design). Both see the full point, so setting
  /// either makes every point synthesize and check its own design. The
  /// semantic lints read the function handed to the backend.
  std::function<void(Function&, const MatrixPoint&)> preBackend;
  std::function<void(SynthesisResult&, const MatrixPoint&)> postSynthesis;
  std::string top;
  long maxBlockExecs = 100000;
  long maxCycles = 1000000;
};

/// Run the full differential matrix over one program.
[[nodiscard]] ProgramVerdict runSource(const std::string& source,
                                       std::uint64_t seed,
                                       const DiffOptions& options);

}  // namespace mphls::fuzz
