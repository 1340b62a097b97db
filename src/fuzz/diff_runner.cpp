#include "fuzz/diff_runner.h"

#include <cmath>
#include <exception>
#include <optional>
#include <sstream>

#include "core/frontend_cache.h"
#include "core/options.h"
#include "check/check.h"
#include "fuzz/bdl_gen.h"
#include "ir/interp.h"
#include "lang/frontend.h"
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

/// The function handed to the backend, with its semantic-lint report
/// computed on first use.
struct BackendInput {
  std::shared_ptr<const Function> fn;
  std::optional<CheckReport> semantics;
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
  for (const PointFailure& f : failures) {
    bool seen = false;
    for (const MatrixPoint& p : pts)
      if (p.label() == f.point.label()) {
        seen = true;
        break;
      }
    if (!seen) pts.push_back(f.point);
  }
  return pts;
}

ProgramVerdict runSource(const std::string& source, std::uint64_t seed,
                         const DiffOptions& options) {
  ProgramVerdict v;
  v.seed = seed;

  // Golden behavior: the interpreter on the raw, unoptimized compile.
  DiagEngine diags;
  auto golden = compileBdl(source, diags, options.top);
  if (!golden) {
    v.failures.push_back({MatrixPoint{}, "compile", diags.summary(), -1});
    return v;
  }
  v.compiled = true;

  std::vector<std::string> names;
  for (const Port& p : golden->ports())
    if (p.isInput) names.push_back(p.name);

  // Per-program engine options: mix the program seed into the sampling
  // stream so "2% cross-checks" draws differently (but reproducibly) for
  // every program.
  vm::EngineOptions eng = options.engine;
  eng.seed ^= seed * 0x9e3779b97f4a7c15ull;

  std::vector<std::map<std::string, std::uint64_t>> trialIns, goldenOuts;
  vm::BehavSim gi(*golden, eng);
  for (int t = 0; t < options.trials; ++t) {
    auto in = randomInputs(names, seed, t);
    ExecResult r;
    try {
      r = gi.run(in, options.maxBlockExecs);
    } catch (const vm::DivergenceError& e) {
      v.failures.push_back(
          {MatrixPoint{}, "vm-divergence-behav", e.what(), t});
      return v;
    }
    if (!r.finished) {
      v.failures.push_back({MatrixPoint{}, "nonterminating",
                            "behavioral execution hit the block budget",
                            t});
      return v;
    }
    trialIns.push_back(std::move(in));
    goldenOuts.push_back(std::move(r.outputs));
  }

  // The function handed to the backend is shared by every point with the
  // same (opt level, narrow) frontend: optimized once through FrontendCache,
  // narrowed and Mul->Add-injected once, semantically linted once.
  std::map<std::pair<OptLevel, bool>, BackendInput> fronts;
  auto frontendFor = [&](const MatrixPoint& p) -> BackendInput& {
    auto key = std::make_pair(p.opt, p.narrow);
    auto it = fronts.find(key);
    if (it != fronts.end()) return it->second;
    std::shared_ptr<const Function> fn =
        FrontendCache::global().get(source, options.top, p.opt);
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
    return fronts.emplace(key, BackendInput{std::move(fn), std::nullopt})
        .first->second;
  };

  // The oracle over one finished design: STA, the static checkers, then
  // co-simulation against the golden outputs. Failures are labelled with
  // `p`; the caller relabels them for every point sharing the design.
  auto runOracle = [&](const RtlDesign& d, const MatrixPoint& p,
                       BackendInput& in, std::vector<PointFailure>& fails,
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
            oss << "STA cycle time " << sr.cycleTime
                << " != estimateTiming " << sr.estimatedCycleTime;
            fail("sta-divergence", oss.str());
            return;
          }
          if (sr.worstSlack < -1e-9 || sr.combLoop) {
            fail("sta-negative-slack",
                 sr.combLoop ? "combinational loop in timing graph"
                             : sr.paths.empty()
                                   ? "negative slack"
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
        if (!in.semantics) {
          CheckReport sem;
          checkSemantics(*in.fn, sem);
          in.semantics = std::move(sem);
        }
        if (!in.semantics->clean()) {
          fail("check", in.semantics->firstError());
          return;
        }
        CheckOptions co;
        co.resources = resourceLimited(p.sched)
                           ? ResourceLimits::universalSet(p.fus)
                           : ResourceLimits::unlimited();
        co.latencies = p.multicycle ? OpLatencyModel::multiCycle()
                                    : OpLatencyModel::unit();
        co.semantics = false;
        // The oracle above already ran the timing lint's substance with
        // per-kind reporting; skip the duplicate inside checkDesign.
        co.timing = false;
        CheckReport rep = checkDesign(d, co);
        if (!rep.clean()) {
          fail("check", rep.firstError());
          return;
        }
      }

      // One engine per design: the bytecode program is compiled once here
      // and reused across all input trials (the compile cache).
      vm::RtlSim sim(d, eng);
      for (int t = 0; t < options.trials; ++t) {
        auto res = sim.run(trialIns[(std::size_t)t], options.maxCycles);
        ++sims;
        if (!res.finished) {
          fail("rtl-timeout",
               "RTL simulation did not reach the halt state", t);
        } else if (res.outputs != goldenOuts[(std::size_t)t]) {
          fail("mismatch",
               describeMismatch(goldenOuts[(std::size_t)t], res.outputs,
                                trialIns[(std::size_t)t]),
               t);
        }
        if (!fails.empty() && options.stopAtFirstFailure) return;
      }
    } catch (const vm::DivergenceError& e) {
      fail("vm-divergence", e.what());
    } catch (const std::exception& e) {
      fail(exceptionKind(e.what()), e.what());
    }
  };

  // Synthesize one design for the points `group` (indices into
  // options.points, all with the same backend) and work out each point's
  // outcome. Only the encoding tail — encodeController, estimateArea and
  // the encoding oracle — runs per point; the design, its STA, checks and
  // co-simulations are computed once and released before returning.
  const std::vector<MatrixPoint>& pts = options.points;
  auto runGroup = [&](const std::vector<std::size_t>& group) {
    std::vector<PointOutcome> out(group.size());
    const MatrixPoint& p = pts[group.front()];
    std::vector<PointFailure> shared;
    long sims = 0;
    std::vector<std::string> encoding(group.size());
    try {
      SynthesisOptions so = p.toOptions();
      // With the oracle on, it checks the finished design once; the
      // stage-exit checkers would only repeat it.
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
      for (std::size_t k = 0; k < group.size(); ++k)
        out[k].failures.push_back(
            {pts[group[k]], exceptionKind(e.what()), e.what(), -1});
      return out;
    }

    for (std::size_t k = 0; k < group.size(); ++k) {
      const MatrixPoint& q = pts[group[k]];
      PointOutcome& o = out[k];
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
    return out;
  };

  // Points that differ only in their state encoding share one design
  // (§2 encodes the controller after scheduling, allocation and controller
  // construction). Per-point hooks see the full point, so they turn
  // sharing off.
  const bool share = !options.preBackend && !options.postSynthesis;
  std::vector<std::size_t> leader(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    leader[i] = i;
    for (std::size_t j = 0; share && j < i; ++j)
      if (sameBackend(pts[j], pts[i])) {
        leader[i] = j;
        break;
      }
  }

  // Outcomes are reported in point order; a group's are computed when its
  // first point comes up and each is dropped once reported.
  std::vector<std::optional<PointOutcome>> outcomes(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!outcomes[i]) {
      std::vector<std::size_t> group;
      for (std::size_t j = i; j < pts.size(); ++j)
        if (leader[j] == i) group.push_back(j);
      std::vector<PointOutcome> res = runGroup(group);
      for (std::size_t k = 0; k < group.size(); ++k)
        outcomes[group[k]] = std::move(res[k]);
    }
    PointOutcome o = std::move(*outcomes[i]);
    outcomes[i].reset();
    if (o.synthesized) ++v.pointsRun;
    v.simulations += o.simulations;
    for (PointFailure& f : o.failures) v.failures.push_back(std::move(f));
    if (!o.failures.empty() && options.stopAtFirstFailure) return v;
  }
  return v;
}

}  // namespace mphls::fuzz
