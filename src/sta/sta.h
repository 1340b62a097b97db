// Path-level static timing analysis over the synthesized RTL design.
//
// The tutorial's tradeoff loop (Section 4, "integrating levels of design")
// needs timing feedback that names *paths*, not just a single worst
// number: which register launches, which multiplexers and functional
// units the data crosses, and where it is captured. This engine builds an
// explicit timing graph over the datapath — register/port outputs, mux
// outputs, functional-unit outputs, register/port/FSM inputs — with edge
// delays drawn from the HwLibrary component models, propagates arrival
// times by topological longest path, and computes required times and
// slack against a target clock.
//
// The analysis is *state-aware*: one activated graph is built per
// controller state reachable from the initial state, containing only the
// edges that state's asserted mux selects and register/port enables can
// actually sensitize. A classic state-oblivious (structural) analysis —
// every mux leg considered combinable with every other — is run
// alongside; endpoints whose structural arrival exceeds their worst
// state-aware arrival are *false paths* the mode information pruned
// (e.g. a shared ALU whose slow wide-mux operand port and slow capture
// mux are selected in different states, or a multicycle unit whose
// output is structurally a full-latency cone but per-state only one
// internal stage deep).
//
// The state-aware worst arrival is an independent re-derivation of
// estimateTiming's cycle time (src/estim/): the estimator recurses over
// controller actions, this engine relaxes an explicit graph. The two are
// cross-validated on every checked synthesis (check_timing.h) — the same
// differential-oracle trick the bytecode VM plays against the
// interpreters.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/bench_report.h"
#include "rtl/design.h"

namespace mphls::sta {

struct StaOptions {
  /// Target clock period in normalized ns; 0 selects the design's
  /// estimated cycle time (estimateTiming), making worst slack ~0 on a
  /// consistent design.
  double clockNs = 0;
  /// Number of worst (smallest-slack) paths to enumerate; < 0 keeps
  /// every path. Only paths that can enter the K worst are built.
  int maxPaths = 5;
};

/// One node on a reported path, with the edge delay into it.
struct PathPoint {
  std::string node;
  double incr = 0;     ///< edge delay from the previous point
  double arrival = 0;  ///< cumulative arrival at this node
};

/// One register-to-register (or port/FSM) path in one controller state.
struct TimingPath {
  int state = -1;         ///< controller state id (-1: structural)
  std::string stateDesc;  ///< "block.step" location of the state
  std::string startpoint;
  std::string endpoint;
  double arrival = 0;
  double required = 0;  ///< the target clock at the capture point
  double slack = 0;     ///< required - arrival
  std::vector<PathPoint> points;  ///< launch ... capture

  /// "slack -0.30 (state 7, loop.s3): r2 -> mux fu0.in0 -> fu0 ... " line.
  [[nodiscard]] std::string describe() const;
};

struct StaResult {
  double clockNs = 0;             ///< resolved target clock
  bool clockWasEstimated = false; ///< true when options.clockNs was 0
  double estimatedCycleTime = 0;  ///< estimateTiming's independent answer

  double cycleTime = 0;    ///< state-aware worst arrival (STA cycle time)
  double worstSlack = 0;   ///< clockNs - cycleTime
  int criticalState = -1;  ///< state achieving cycleTime
  std::size_t endpointCount = 0;  ///< (state, capture) pairs analyzed
  std::size_t totalStates = 0;
  std::size_t reachableStates = 0;

  /// State-oblivious structural worst arrival (>= cycleTime); the gap is
  /// the pessimism the state-aware analysis removed.
  double structuralCycleTime = 0;
  /// Capture endpoints whose structural arrival exceeds their worst
  /// state-aware arrival: paths a mode-blind analysis would report that
  /// no reachable state can sensitize end to end.
  std::size_t falsePathEndpoints = 0;
  /// The structural graph contained a combinational cycle (only possible
  /// on corrupt/hand-built netlists; its affected arrivals are partial).
  bool combLoop = false;

  /// The K worst paths across all reachable states, slack ascending.
  std::vector<TimingPath> paths;

  /// Worst arrival per reachable state: (index into ctrl.states, arrival),
  /// in state order. Drives the chain-overrun lint and the tests.
  std::vector<std::pair<int, double>> stateArrivals;
};

[[nodiscard]] StaResult runSta(const RtlDesign& design,
                               const StaOptions& options = {});

/// Machine-readable report ({"<key>": name, "clock_ns": ..., "paths":
/// [...], ...}) in the deterministic sorted convention the lint/prove
/// JSON reports use. Shared by `mphls sta --format json`, the serve
/// daemon's /sta endpoint and the golden tests.
[[nodiscard]] JsonValue staReportJson(const std::string& key,
                                      const std::string& name,
                                      const StaResult& r);

}  // namespace mphls::sta
