// End-to-end synthesis driver: the pipeline the tutorial's Section 2 walks
// through — compile, optimize, schedule, allocate (registers, functional
// units, interconnect), bind, and synthesize control — with every task's
// algorithm selectable, so the technique comparisons of Section 3 can be
// run on real designs.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "alloc/fu_alloc.h"
#include "alloc/reg_alloc.h"
#include "ctrl/encode.h"
#include "ctrl/microcode.h"
#include "estim/estimate.h"
#include "rtl/design.h"
#include "sched/list_sched.h"
#include "sched/resource.h"

namespace mphls {

enum class SchedulerKind {
  Serial,         ///< one op per step (the paper's trivial case)
  Asap,           ///< resource-constrained ASAP (Fig. 3)
  List,           ///< list scheduling (Fig. 4)
  ForceDirected,  ///< HAL (Fig. 5); time-constrained
  Freedom,        ///< MAHA
  BranchBound,    ///< EXPL-style exhaustive/B&B
  Transform,      ///< YSC-style transformational
};

enum class OptLevel { None, Standard, Aggressive };

struct SynthesisOptions {
  OptLevel opt = OptLevel::Standard;
  SchedulerKind scheduler = SchedulerKind::List;
  ListPriority listPriority = ListPriority::PathLength;
  ResourceLimits resources;               ///< for resource-constrained kinds
  int timeConstraint = 0;                 ///< for ForceDirected (0: critical)
  RegAllocMethod regMethod = RegAllocMethod::LeftEdge;
  FuAllocMethod fuMethod = FuAllocMethod::GreedyLocal;
  StateEncoding encoding = StateEncoding::Binary;
  /// Operation execution times. Multicycle models are supported by the
  /// Serial, Asap, List, Freedom, BranchBound and Transform schedulers and
  /// the FSM-driven RTL; the Verilog emitter and the microcode simulator
  /// require unit latency.
  OpLatencyModel latencies = OpLatencyModel::unit();
  /// Run the timing oracle at the end of synthesis: checkTiming's STA
  /// must close timing at the estimated cycle time and agree with the
  /// estimator. The structural stage-exit analyzers (schedule legality,
  /// binding consistency, controller completeness) run whatever this
  /// says; any of them throws InternalError on the first violation. On by
  /// default; `mphls --no-check` turns off only the timing oracle.
  bool check = true;
  /// Run the analysis-driven width-narrowing pass (opt/narrow.cpp) after
  /// the optimization pipeline: every value and register shrinks to the
  /// bitwidth the abstract interpreter proves sufficient. Off by default —
  /// it changes declared datapath widths, which matters when the RTL
  /// interface is inspected externally; `mphls --narrow` enables it.
  bool narrow = false;
  /// Formally prove the synthesized RTL equivalent to the behavioral CDFG
  /// (src/sec/): symbolic execution of both sides per block, discharged by
  /// bit-blasting to SAT. Throws InternalError on the first failed proof
  /// obligation. Off by default (proof cost grows with datapath width);
  /// `mphls --prove` / `mphls prove` enables it.
  bool prove = false;
  /// How many points design-space exploration (core/dse.h) synthesizes
  /// at once: <= 0 means one per hardware thread, 1 runs every point on
  /// the calling thread, in order, with no pool. Results are identical at
  /// any value; only wall time changes.
  int jobs = 0;
  /// Design-space exploration only: record the emitted Verilog of every
  /// swept design point in DsePoint::verilog (unit-latency models only —
  /// the emitter rejects multicycle designs). Used by the determinism
  /// tests to prove thread-count independence.
  bool dseCaptureVerilog = false;
};

/// Wall-clock seconds spent in each pipeline stage of one synthesis run,
/// recorded unconditionally (the clock costs nanoseconds per stage) so
/// `mphls profile` can break down where synthesis time goes.
struct StageTimes {
  double optimize = 0;   ///< high-level transformation passes
  double schedule = 0;   ///< control-step assignment
  double allocate = 0;   ///< lifetimes, registers, FUs, interconnect
  double control = 0;    ///< controller build + FSM encode + microcode
  double estimate = 0;   ///< area/timing estimation
  double check = 0;      ///< stage-exit analyzers and timing oracle
  double prove = 0;      ///< formal equivalence proof (options.prove)

  [[nodiscard]] double total() const {
    return optimize + schedule + allocate + control + estimate + check +
           prove;
  }
};

struct SynthesisResult {
  RtlDesign design;
  EncodedFsm fsm;
  Microprogram microHorizontal;
  Microprogram microEncoded;
  AreaEstimate area;
  TimingEstimate timing;
  StageTimes stages;

  /// Latency in control steps for a given behavioral input (runs the
  /// interpreter to obtain the block trace).
  [[nodiscard]] long latencyFor(
      const std::map<std::string, std::uint64_t>& inputs) const;

  /// Static one-pass latency (sum of block step counts).
  [[nodiscard]] int staticLatency() const { return design.sched.totalSteps(); }

  [[nodiscard]] DesignPoint point() const {
    return {staticLatency(), timing.cycleTime, area.total()};
  }
};

class Synthesizer {
 public:
  explicit Synthesizer(SynthesisOptions options = {})
      : options_(std::move(options)) {}

  /// Full pipeline from BDL source. Throws InternalError on invalid input
  /// (use compileBdl directly for diagnostics-friendly handling).
  [[nodiscard]] SynthesisResult synthesizeSource(const std::string& source,
                                                 const std::string& top = "");

  /// Full pipeline from an already-built function (consumed by copy).
  [[nodiscard]] SynthesisResult synthesize(Function fn);

  /// Pipeline from a function that has already been verified and run
  /// through the high-level transformation passes — the shared-frontend
  /// path of design-space exploration: the DSE driver compiles and
  /// optimizes the source once (see core/frontend_cache.h), then hands
  /// each sweep point a clone of the cached IR. `fn` is cloned, never
  /// mutated, so many threads may synthesize from the same cached
  /// function concurrently.
  [[nodiscard]] SynthesisResult synthesizeOptimized(const Function& fn);

  [[nodiscard]] const SynthesisOptions& options() const { return options_; }
  [[nodiscard]] SynthesisOptions& options() { return options_; }

 private:
  /// Everything after the optimization stage: schedule, allocate, bind,
  /// build the controller, encode, estimate. `st` carries the frontend
  /// stage times already accrued for this run.
  [[nodiscard]] SynthesisResult backend(Function fn, StageTimes st);

  SynthesisOptions options_;
};

/// Check behavior preservation end to end: run the behavioral interpreter
/// and the RTL simulator on the same inputs and compare outputs. Returns an
/// empty string on agreement, else a description of the mismatch. This is
/// the paper's "design verification" obligation (Section 4).
[[nodiscard]] std::string verifyAgainstBehavior(
    const SynthesisResult& result,
    const std::map<std::string, std::uint64_t>& inputs);

}  // namespace mphls
