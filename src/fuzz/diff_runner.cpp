#include "fuzz/diff_runner.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/frontend_cache.h"
#include "core/options.h"
#include "check/check.h"
#include "fuzz/bdl_gen.h"
#include "ir/interp.h"
#include "lang/frontend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/pass.h"
#include "rtl/rtlsim.h"
#include "sta/sta.h"

namespace mphls::fuzz {

namespace {

std::string describeMismatch(
    const std::map<std::string, std::uint64_t>& want,
    const std::map<std::string, std::uint64_t>& got,
    const std::map<std::string, std::uint64_t>& inputs) {
  std::ostringstream oss;
  oss << "output mismatch on";
  for (const auto& [k, v] : inputs) oss << " " << k << "=" << v;
  oss << ":";
  for (const auto& [k, v] : want) oss << " " << k << " behavioral=" << v;
  for (const auto& [k, v] : got) oss << " " << k << " rtl=" << v;
  if (got.size() != want.size())
    oss << " (written-output sets differ: behavioral " << want.size()
        << ", rtl " << got.size() << ")";
  return oss.str();
}

std::string describeFault(const std::string& what,
                          const std::map<std::string, std::uint64_t>& inputs) {
  std::ostringstream oss;
  oss << "design fault on";
  for (const auto& [k, v] : inputs) oss << " " << k << "=" << v;
  oss << ": " << what;
  return oss.str();
}

/// Failure kind of an exception out of the pipeline. The synthesizer's own
/// stage-exit timing check (armed under --no-check) throws before the
/// oracle gets a look; keep the per-kind classification.
std::string exceptionKind(const std::string& what) {
  return what.find("timing closure check failed") != std::string::npos
             ? "sta-divergence"
             : "error";
}

/// Whether two points synthesize the same design: everything but the
/// state encoding reaches the backend.
bool sameBackend(const MatrixPoint& a, const MatrixPoint& b) {
  return a.sched == b.sched && a.fu == b.fu && a.reg == b.reg &&
         a.opt == b.opt && a.narrow == b.narrow &&
         a.multicycle == b.multicycle && a.fus == b.fus;
}

/// A value computed by the first thread that asks for it, while later
/// askers wait; every asker gets the value, or the exception computing it
/// threw, rethrown.
template <class T>
class Once {
 public:
  template <class Make>
  const T& get(Make&& make) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!done_) {
      try {
        value_ = make();
      } catch (...) {
        error_ = std::current_exception();
      }
      done_ = true;
    }
    if (error_) std::rethrow_exception(error_);
    return value_;
  }

 private:
  std::mutex mutex_;
  bool done_ = false;
  T value_{};
  std::exception_ptr error_;
};

/// The function handed to the backend, and its semantic-lint report.
struct BackendInput {
  std::shared_ptr<const Function> fn;
  Once<CheckReport> semantics;
};

/// One point's share of the matrix run: whether its design was
/// synthesized, the co-simulations it accounts for, and its failures in
/// report order.
struct PointOutcome {
  bool synthesized = false;
  long simulations = 0;
  std::vector<PointFailure> failures;
};

}  // namespace

std::string MatrixPoint::label() const {
  std::ostringstream oss;
  oss << "sched=" << schedulerName(sched) << " fu=" << fuAllocMethodName(fu)
      << " reg=" << regAllocMethodName(reg)
      << " enc=" << stateEncodingName(enc) << " opt=" << optLevelName(opt)
      << " narrow=" << (narrow ? 1 : 0)
      << " lat=" << (multicycle ? "multi" : "unit") << " fus=" << fus;
  return oss.str();
}

SynthesisOptions MatrixPoint::toOptions() const {
  SynthesisOptions so;
  so.scheduler = sched;
  so.fuMethod = fu;
  so.regMethod = reg;
  so.encoding = enc;
  so.opt = opt;
  so.resources = ResourceLimits::universalSet(fus);
  so.latencies =
      multicycle ? OpLatencyModel::multiCycle() : OpLatencyModel::unit();
  so.check = true;
  // The runner applies optimization and narrowing itself (through
  // FrontendCache and an explicit pass run) so narrowed IR is shared
  // between the points that want it; the Synthesizer only sees the
  // backend stages.
  so.narrow = false;
  return so;
}

FuzzMatrix FuzzMatrix::quick() {
  FuzzMatrix m;
  m.schedulers = {SchedulerKind::List};
  m.allocators = {{FuAllocMethod::GreedyLocal, RegAllocMethod::LeftEdge}};
  m.encodings = {StateEncoding::Binary};
  m.optLevels = {OptLevel::Standard};
  m.narrows = {false, true};
  m.multicycles = {false};
  m.fuLimits = {2};
  return m;
}

FuzzMatrix FuzzMatrix::standard() {
  FuzzMatrix m;
  m.schedulers = {SchedulerKind::List, SchedulerKind::Asap,
                  SchedulerKind::ForceDirected};
  m.allocators = {{FuAllocMethod::GreedyLocal, RegAllocMethod::LeftEdge},
                  {FuAllocMethod::Clique, RegAllocMethod::Clique}};
  m.encodings = {StateEncoding::Binary, StateEncoding::OneHot};
  m.optLevels = {OptLevel::Standard};
  m.narrows = {false, true};
  m.multicycles = {false};
  m.fuLimits = {2};
  return m;
}

FuzzMatrix FuzzMatrix::full() {
  FuzzMatrix m;
  m.schedulers = {SchedulerKind::List,         SchedulerKind::Asap,
                  SchedulerKind::ForceDirected, SchedulerKind::Serial,
                  SchedulerKind::Freedom,       SchedulerKind::BranchBound,
                  SchedulerKind::Transform};
  m.allocators = {{FuAllocMethod::GreedyLocal, RegAllocMethod::LeftEdge},
                  {FuAllocMethod::Clique, RegAllocMethod::Clique},
                  {FuAllocMethod::InterconnectBlind, RegAllocMethod::Naive}};
  m.encodings = {StateEncoding::Binary, StateEncoding::Gray,
                 StateEncoding::OneHot};
  m.optLevels = {OptLevel::Standard, OptLevel::Aggressive};
  m.narrows = {false, true};
  m.multicycles = {false, true};
  m.fuLimits = {2};
  return m;
}

bool FuzzMatrix::parse(const std::string& name, FuzzMatrix& out) {
  if (name == "quick") out = quick();
  else if (name == "standard") out = standard();
  else if (name == "full") out = full();
  else return false;
  return true;
}

std::vector<MatrixPoint> FuzzMatrix::points() const {
  std::vector<MatrixPoint> pts;
  for (SchedulerKind s : schedulers)
    for (const auto& [fu, reg] : allocators)
      for (StateEncoding e : encodings)
        for (OptLevel o : optLevels)
          for (bool n : narrows)
            for (bool mc : multicycles)
              for (int f : fuLimits) {
                if (mc && s == SchedulerKind::ForceDirected) continue;
                MatrixPoint p;
                p.sched = s;
                p.fu = fu;
                p.reg = reg;
                p.enc = e;
                p.opt = o;
                p.narrow = n;
                p.multicycle = mc;
                p.fus = f;
                pts.push_back(p);
              }
  return pts;
}

std::vector<MatrixPoint> ProgramVerdict::failingPoints() const {
  std::vector<MatrixPoint> pts;
  for (const PointFailure& f : failures)
    if (std::find(pts.begin(), pts.end(), f.point) == pts.end())
      pts.push_back(f.point);
  return pts;
}

GroupPlan planGroups(const DiffOptions& options) {
  const std::vector<MatrixPoint>& pts = options.points;
  const bool share = !options.preBackend && !options.postSynthesis;
  GroupPlan plan;
  plan.groupOf.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::size_t g = plan.groups.size();
    for (std::size_t j = 0; share && j < i; ++j)
      if (sameBackend(pts[j], pts[i])) {
        g = plan.groupOf[j];
        break;
      }
    if (g == plan.groups.size()) plan.groups.emplace_back();
    plan.groups[g].push_back(i);
    plan.groupOf[i] = g;
  }
  return plan;
}

struct SourceRun::Impl {
  Impl(const std::string& source, const DiffOptions& options,
       const GroupPlan& plan)
      : source(source),
        options(options),
        plan(plan),
        rtlRuns(obs::MetricsRegistry::global().counter("sim.rtl_runs")),
        outcomes(options.points.size()) {}

  const std::string& source;
  const DiffOptions& options;
  const GroupPlan& plan;
  /// Resolved once: the per-trial path stays free of locked name lookups.
  obs::Counter& rtlRuns;

  /// The program's verdict before the matrix: its seed, whether it
  /// compiled, and a program-level failure.
  ProgramVerdict early;
  std::size_t goldenOps = 0;
  std::vector<std::map<std::string, std::uint64_t>> trialIns, goldenOuts;

  /// Keyed by every opt level and (opt level, narrow) pair of the matrix,
  /// all inserted by the constructor, so the maps themselves are only read
  /// while groups run.
  std::map<OptLevel, Once<std::shared_ptr<const Function>>> optimized;
  std::map<std::pair<OptLevel, bool>, Once<std::unique_ptr<BackendInput>>>
      fronts;

  /// Per point, written by its group's runGroup and taken by verdict().
  std::vector<std::optional<PointOutcome>> outcomes;

  BackendInput& frontendFor(const MatrixPoint& p);
  void runOracle(const RtlDesign& d, const MatrixPoint& p, BackendInput& in,
                 std::vector<PointFailure>& fails, long& sims);
  void runGroup(const std::vector<std::size_t>& group);
};

// The function handed to the backend is shared by every point with the
// same (opt level, narrow) frontend: optimized once through FrontendCache,
// narrowed and Mul->Add-injected once. Both narrow settings of an opt
// level start from one lookup, so concurrent groups never compile the same
// key twice.
BackendInput& SourceRun::Impl::frontendFor(const MatrixPoint& p) {
  return *fronts.at({p.opt, p.narrow}).get([&] {
    std::shared_ptr<const Function> fn = optimized.at(p.opt).get([&] {
      return FrontendCache::global().get(source, options.top, p.opt);
    });
    if (p.narrow || options.inject == InjectedBug::MulToAdd) {
      auto work = std::make_shared<Function>(fn->clone());
      if (p.narrow) {
        PassManager pm;
        pm.add(createNarrowWidthsPass());
        pm.run(*work);
      }
      if (options.inject == InjectedBug::MulToAdd) injectMulToAdd(*work);
      fn = std::move(work);
    }
    auto in = std::make_unique<BackendInput>();
    in->fn = std::move(fn);
    return in;
  });
}

// The oracle over one finished design: STA, the static checkers, then
// co-simulation against the golden outputs. Failures are labelled with
// `p`; the caller relabels them for every point sharing the design.
void SourceRun::Impl::runOracle(const RtlDesign& d, const MatrixPoint& p,
                                BackendInput& in,
                                std::vector<PointFailure>& fails,
                                long& sims) {
  auto fail = [&](const std::string& kind, const std::string& detail,
                  int trial = -1) {
    fails.push_back({p, kind, detail, trial});
  };
  try {
    if (options.check) {
      // STA oracle, before the structural checks so its failures keep
      // their own kinds: the timing engine must not crash on any
      // generated design, must close timing at its own estimated clock,
      // and must agree with the estimator it cross-validates.
      try {
        sta::StaResult sr = sta::runSta(d);
        if (std::fabs(sr.cycleTime - sr.estimatedCycleTime) > 1e-6) {
          std::ostringstream oss;
          oss << "STA cycle time " << sr.cycleTime << " != estimateTiming "
              << sr.estimatedCycleTime;
          fail("sta-divergence", oss.str());
          return;
        }
        if (sr.worstSlack < -1e-9 || sr.combLoop) {
          fail("sta-negative-slack",
               sr.combLoop ? "combinational loop in timing graph"
                           : sr.paths.empty() ? "negative slack"
                                              : sr.paths.front().describe());
          return;
        }
      } catch (const std::exception& e) {
        fail("sta-crash", e.what());
        return;
      }

      // The semantic lints read only the behavioral IR, which every
      // point of this frontend shares; their findings lead the report
      // exactly as they would inside checkDesign.
      const CheckReport& sem = in.semantics.get([&] {
        CheckReport r;
        checkSemantics(*in.fn, r);
        return r;
      });
      if (!sem.clean()) {
        fail("check", sem.firstError());
        return;
      }
      CheckOptions co;
      co.resources = resourceLimited(p.sched)
                         ? ResourceLimits::universalSet(p.fus)
                         : ResourceLimits::unlimited();
      co.latencies = p.multicycle ? OpLatencyModel::multiCycle()
                                  : OpLatencyModel::unit();
      co.semantics = false;
      // The STA block above ran the timing lint's substance with per-kind
      // reporting, and the stage exits checked the design as synthesized:
      // only a change made after synthesis needs the structural analyzers.
      co.timing = false;
      co.structure = options.inject == InjectedBug::ScheduleShift ||
                     options.inject == InjectedBug::SwappedBinding ||
                     bool(options.postSynthesis);
      CheckReport rep = checkDesign(d, co);
      if (!rep.clean()) {
        fail("check", rep.firstError());
        return;
      }
    }

    obs::TraceSpan span("sim.rtl", [&] {
      return "trials=" + std::to_string(options.trials);
    });
    const RtlSimulator sim(d);
    for (int t = 0; t < options.trials; ++t) {
      const auto& in = trialIns[(std::size_t)t];
      const auto& want = goldenOuts[(std::size_t)t];
      rtlRuns.add(1);
      ++sims;
      try {
        const RtlExecResult res = sim.run(in, options.maxCycles);
        if (!res.finished)
          fail("rtl-timeout", "RTL simulation did not reach the halt state",
               t);
        else if (res.outputs != want)
          fail("mismatch", describeMismatch(want, res.outputs, in), t);
      } catch (const DesignFault& e) {
        fail("mismatch", describeFault(e.what(), in), t);
      }
      if (!fails.empty() && options.stopAtFirstFailure) return;
    }
  } catch (const std::exception& e) {
    fail(exceptionKind(e.what()), e.what());
  }
}

// Synthesize one design for the points `group` (indices into
// options.points, all with the same backend) and work out each point's
// outcome. Only the encoding tail — encodeController, estimateArea and
// the encoding oracle — runs per point; the design, its STA, checks and
// co-simulations are computed once and released before returning.
void SourceRun::Impl::runGroup(const std::vector<std::size_t>& group) {
  const std::vector<MatrixPoint>& pts = options.points;
  const MatrixPoint& p = pts[group.front()];
  obs::TraceSpan span("fuzz.group", [&] {
    // The point's label without the encoding the group's points vary.
    std::string label = p.label();
    const std::size_t enc = label.find(" enc=");
    label.erase(enc, label.find(' ', enc + 1) - enc);
    return label + " ops=" + std::to_string(goldenOps);
  });
  std::vector<PointFailure> shared;
  long sims = 0;
  std::vector<std::string> encoding(group.size());
  try {
    SynthesisOptions so = p.toOptions();
    // With the oracle on, it runs STA on the finished design once; the
    // synthesizer's timing check would only repeat it.
    so.check = !options.check;
    Synthesizer synth(so);
    BackendInput* in = &frontendFor(p);
    BackendInput hooked;
    if (options.preBackend) {
      auto work = std::make_shared<Function>(in->fn->clone());
      options.preBackend(*work, p);
      hooked.fn = std::move(work);
      in = &hooked;
    }
    SynthesisResult r = synth.synthesizeOptimized(*in->fn);

    // The encoding tail runs on the controller as synthesized, before
    // any injected mutation rebuilds it, as each point's own synthesis
    // would.
    encoding[0] = validateEncoding(r.fsm, r.design.ctrl);
    for (std::size_t k = 1; k < group.size(); ++k) {
      EncodedFsm fsm;
      {
        obs::TraceSpan span("stage.control", "encode");
        fsm = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                               pts[group[k]].enc);
      }
      {
        // The area estimate prices the encoded controller, so it is part
        // of each encoding's tail.
        obs::TraceSpan span("stage.estimate");
        (void)estimateArea(r.design, fsm);
      }
      encoding[k] = validateEncoding(fsm, r.design.ctrl);
    }

    OpLatencyModel lat = p.multicycle ? OpLatencyModel::multiCycle()
                                      : OpLatencyModel::unit();
    if (options.inject == InjectedBug::ScheduleShift)
      injectScheduleShift(r.design, lat);
    if (options.inject == InjectedBug::SwappedBinding)
      injectSwappedBinding(r.design, lat);
    if (options.postSynthesis) options.postSynthesis(r, p);
    runOracle(r.design, p, *in, shared, sims);
  } catch (const std::exception& e) {
    // Synthesis, an encoding tail or the mutation threw: every point of
    // the group fails the same way.
    for (std::size_t i : group)
      outcomes[i] = PointOutcome{
          false, 0, {{pts[i], exceptionKind(e.what()), e.what(), -1}}};
    return;
  }

  for (std::size_t k = 0; k < group.size(); ++k) {
    const MatrixPoint& q = pts[group[k]];
    PointOutcome& o = outcomes[group[k]].emplace();
    o.synthesized = true;
    if (!encoding[k].empty()) {
      o.failures.push_back({q, "encoding", encoding[k], -1});
      if (options.stopAtFirstFailure) continue;
    }
    o.simulations = sims;
    for (const PointFailure& f : shared) {
      o.failures.push_back(f);
      o.failures.back().point = q;
    }
  }
}

SourceRun::SourceRun(const std::string& source, std::uint64_t seed,
                     const DiffOptions& options, const GroupPlan& plan)
    : impl_(std::make_unique<Impl>(source, options, plan)) {
  Impl& s = *impl_;
  obs::TraceSpan span("fuzz.golden", [&] {
    return "trials=" + std::to_string(options.trials);
  });
  s.early.seed = seed;

  // Golden behavior: the interpreter on the raw, unoptimized compile.
  DiagEngine diags;
  auto golden = compileBdl(source, diags, options.top);
  if (!golden) {
    s.early.failures.push_back(
        {MatrixPoint{}, "compile", diags.summary(), -1});
    return;
  }
  s.early.compiled = true;
  s.goldenOps = golden->numLiveOps();

  std::vector<std::string> names;
  for (const Port& p : golden->ports())
    if (p.isInput) names.push_back(p.name);

  const Interpreter gi(*golden);
  for (int t = 0; t < options.trials; ++t) {
    auto in = randomInputs(names, seed, t);
    ExecResult r = gi.run(in, options.maxBlockExecs);
    if (!r.finished) {
      s.early.failures.push_back({MatrixPoint{}, "nonterminating",
                                  "behavioral execution hit the block budget",
                                  t});
      return;
    }
    s.trialIns.push_back(std::move(in));
    s.goldenOuts.push_back(std::move(r.outputs));
  }
  for (const MatrixPoint& p : options.points) {
    s.optimized.try_emplace(p.opt);
    s.fronts.try_emplace({p.opt, p.narrow});
  }
}

SourceRun::~SourceRun() = default;

void SourceRun::runGroup(std::size_t g) {
  if (impl_->early.ok()) impl_->runGroup(impl_->plan.groups[g]);
}

ProgramVerdict SourceRun::verdict() {
  Impl& s = *impl_;
  ProgramVerdict v = std::move(s.early);
  if (!v.ok()) return v;
  // Outcomes are reported in point order, each dropped once reported.
  for (std::size_t i = 0; i < s.outcomes.size(); ++i) {
    if (!s.outcomes[i]) s.runGroup(s.plan.groups[s.plan.groupOf[i]]);
    PointOutcome o = std::move(*s.outcomes[i]);
    s.outcomes[i].reset();
    if (o.synthesized) ++v.pointsRun;
    v.simulations += o.simulations;
    for (PointFailure& f : o.failures) v.failures.push_back(std::move(f));
    if (!o.failures.empty() && s.options.stopAtFirstFailure) return v;
  }
  return v;
}

ProgramVerdict runSource(const std::string& source, std::uint64_t seed,
                         const DiffOptions& options) {
  const GroupPlan plan = planGroups(options);
  return SourceRun(source, seed, options, plan).verdict();
}

}  // namespace mphls::fuzz
