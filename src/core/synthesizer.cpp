#include "core/synthesizer.h"

#include <algorithm>
#include <sstream>

#include "alloc/interconnect.h"
#include "check/check_binding.h"
#include "check/check_controller.h"
#include "check/check_schedule.h"
#include "check/check_timing.h"
#include "core/options.h"
#include "ir/interp.h"
#include "ir/verify.h"
#include "lang/frontend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/pass.h"
#include "rtl/rtlsim.h"
#include "sec/prove.h"
#include "sched/asap.h"
#include "sched/bnb.h"
#include "sched/force_directed.h"
#include "sched/freedom.h"
#include "sched/sched_util.h"
#include "sched/schedule.h"
#include "sched/transform_sched.h"

namespace mphls {

namespace {

/// Size argument of the allocation spans (built only while tracing).
std::string opsArg(const Function& fn) {
  return "ops=" + std::to_string(fn.numLiveOps());
}

/// Detail of a stage-exit span: which check, then the size of its work.
std::string checkArg(const char* which, const std::string& size) {
  std::string arg = which;
  arg += ' ';
  arg += size;
  return arg;
}

std::string statesArg(const Controller& ctrl) {
  return "states=" + std::to_string(ctrl.numStates());
}

}  // namespace

long SynthesisResult::latencyFor(
    const std::map<std::string, std::uint64_t>& inputs) const {
  Interpreter interp(design.fn);
  auto res = interp.run(inputs);
  MPHLS_CHECK(res.finished, "behavioral execution did not finish");
  return design.sched.stepsForTrace(res.blockTrace);
}

SynthesisResult Synthesizer::synthesizeSource(const std::string& source,
                                              const std::string& top) {
  return synthesize(compileBdlOrThrow(source, top));
}

void StageTimes::accumulate(const StageTimes& o) {
  optimize += o.optimize;
  schedule += o.schedule;
  allocate += o.allocate;
  control += o.control;
  estimate += o.estimate;
  check += o.check;
  prove += o.prove;
}

SynthesisResult Synthesizer::synthesize(Function fn) {
  verifyOrThrow(fn);

  // 1. High-level transformations (Section 2).
  StageTimes st;
  {
    obs::TraceSpan span("stage.optimize", &st.optimize);
    if (options_.opt != OptLevel::None) optPipeline(options_.opt).run(fn);
    if (options_.narrow) {
      PassManager pm;
      pm.add(createNarrowWidthsPass());
      pm.run(fn);
    }
  }
  return backend(std::move(fn), st);
}

SynthesisResult Synthesizer::synthesizeOptimized(const Function& fn) {
  return backend(fn.clone(), StageTimes{});
}

SynthesisResult Synthesizer::backend(Function fn, StageTimes st) {
  // Each stage runs inside a TraceSpan that both emits the trace event
  // (when tracing is on) and accumulates the corresponding StageTimes
  // field — one pair of clock reads is the single source of truth for
  // bench JSON and --trace output.
  Schedule sched;

  {
    obs::TraceSpan span("stage.schedule", &st.schedule);
    // 2. Scheduling (Section 3.1).
    MPHLS_CHECK(options_.latencies.isUnit() ||
                    options_.scheduler != SchedulerKind::ForceDirected,
                "force-directed scheduling supports unit latency only");
    sched = scheduleFunction(fn, [&](const BlockDeps& deps) {
      switch (options_.scheduler) {
        case SchedulerKind::Serial:
          return serialSchedule(deps);
        case SchedulerKind::Asap:
          return asapResourceSchedule(deps, options_.resources);
        case SchedulerKind::List:
          return listSchedule(deps, options_.resources, options_.listPriority);
        case SchedulerKind::ForceDirected: {
          obs::TraceSpan span("sched.force", [&] {
            std::string arg = "ops=";
            arg += std::to_string(deps.numOps());
            arg += " horizon=";
            arg += std::to_string(std::max(
                options_.timeConstraint, computeLevels(deps).criticalLength));
            return arg;
          });
          return forceDirectedSchedule(deps, options_.timeConstraint);
        }
        case SchedulerKind::Freedom:
          return freedomSchedule(deps, options_.resources).schedule;
        case SchedulerKind::BranchBound:
          return branchBoundSchedule(deps, options_.resources).schedule;
        case SchedulerKind::Transform:
          return transformationalSchedule(deps, options_.resources).schedule;
      }
      return serialSchedule(deps);
    }, options_.latencies);
  }
  // Each stage exit runs its structural analyzer whatever options_.check
  // says; `check` gates only the timing oracle below.
  {
    obs::TraceSpan span(
        "stage.check", [&] { return checkArg("schedule", opsArg(fn)); },
        &st.check);
    // Stage exit: schedule legality.
    CheckReport rep;
    checkSchedule(fn, sched,
                  resourceLimited(options_.scheduler)
                      ? options_.resources
                      : ResourceLimits::unlimited(),
                  options_.latencies, rep);
    MPHLS_CHECK(rep.clean(), "schedule legality check failed ("
                                 << rep.errorCount()
                                 << " finding(s)): " << rep.firstError());
  }

  // 3. Data-path allocation (Section 3.2).
  HwLibrary lib;
  LifetimeInfo lt;
  RegAssignment regs;
  FuBinding binding;
  InterconnectResult ic;
  {
    obs::TraceSpan span("stage.allocate", &st.allocate);
    lib = HwLibrary::defaultLibrary();
    {
      obs::TraceSpan sub("alloc.lifetimes");
      lt = computeLifetimes(fn, sched, options_.latencies);
    }
    {
      obs::TraceSpan sub("alloc.reg");
      regs = allocateRegisters(lt, options_.regMethod);
    }
    {
      obs::TraceSpan sub("alloc.fu", [&] { return opsArg(fn); });
      binding = allocateFus(fn, sched, lt, regs, lib,
                            options_.fuMethod, options_.latencies);
    }
    {
      obs::TraceSpan sub("alloc.interconnect", [&] { return opsArg(fn); });
      ic = buildInterconnect(fn, sched, lt, regs, binding, lib,
                             options_.latencies);
    }
  }
  {
    obs::TraceSpan span(
        "stage.check", [&] { return checkArg("binding", opsArg(fn)); },
        &st.check);
    // Stage exit: binding consistency (registers, units, muxes, buses).
    CheckReport rep;
    checkBinding(fn, sched, lt, regs, binding, ic, lib, options_.latencies,
                 rep);
    MPHLS_CHECK(rep.clean(), "binding consistency check failed ("
                                 << rep.errorCount()
                                 << " finding(s)): " << rep.firstError());
  }

  // 4. Controller synthesis (Section 2).
  Controller ctrl;
  {
    obs::TraceSpan span("stage.control", &st.control);
    ctrl =
        buildController(fn, sched, lt, regs, binding, ic, options_.latencies);
  }
  {
    obs::TraceSpan span(
        "stage.check",
        [&] { return checkArg("controller", statesArg(ctrl)); }, &st.check);
    // Stage exit: controller completeness.
    CheckReport rep;
    checkController(fn, sched, ctrl, ic, binding, options_.latencies, rep);
    MPHLS_CHECK(rep.clean(), "controller completeness check failed ("
                                 << rep.errorCount()
                                 << " finding(s)): " << rep.firstError());
  }

  SynthesisResult result{
      RtlDesign{std::move(fn), std::move(sched), std::move(lt),
                std::move(regs), std::move(binding), std::move(ic),
                std::move(ctrl), std::move(lib)},
      {}, {}, {}, {}, {}, {}};
  {
    obs::TraceSpan span("stage.control", "encode", &st.control);
    result.fsm = encodeController(result.design.ctrl, result.design.ic,
                                  result.design.binding, options_.encoding);
    result.microHorizontal =
        buildMicrocode(result.design.ctrl, result.design.ic,
                       result.design.binding, MicrocodeStyle::Horizontal);
    result.microEncoded =
        buildMicrocode(result.design.ctrl, result.design.ic,
                       result.design.binding, MicrocodeStyle::Encoded);
  }
  {
    obs::TraceSpan span("stage.estimate", &st.estimate);
    result.area = estimateArea(result.design, result.fsm);
    result.timing = estimateTiming(result.design);
  }
  if (options_.check) {
    obs::TraceSpan span(
        "stage.check",
        [&] { return checkArg("timing", statesArg(result.design.ctrl)); },
        &st.check);
    // Stage exit: the STA engine must close timing at the estimated cycle
    // time and agree with the estimator it cross-validates.
    CheckReport rep;
    TimingLintOptions topt;
    topt.clockNs = result.timing.cycleTime;
    checkTiming(result.design, topt, rep);
    MPHLS_CHECK(rep.clean(), "timing closure check failed ("
                                 << rep.errorCount()
                                 << " finding(s)): " << rep.firstError());
  }
  if (options_.prove) {
    obs::TraceSpan span("stage.prove", &st.prove);
    CheckReport rep = sec::proveEquivalence(result.design);
    MPHLS_CHECK(rep.clean(), "behavioral/RTL equivalence proof failed ("
                                 << rep.errorCount()
                                 << " finding(s)): " << rep.firstError());
  }
  result.stages = st;

  auto& mr = obs::MetricsRegistry::global();
  mr.counter("synth.runs").add();
  mr.histogram("synth.total_seconds").observe(st.total());
  mr.histogram("design.registers").observe(result.design.regs.numRegs);
  mr.histogram("design.fus").observe(result.design.binding.numFus());
  mr.histogram("design.fsm_states")
      .observe((double)result.design.ctrl.numStates());
  return result;
}

std::string verifyAgainstBehavior(
    const SynthesisResult& result,
    const std::map<std::string, std::uint64_t>& inputs) {
  const ExecResult want = Interpreter(result.design.fn).run(inputs);
  if (!want.finished) return "behavioral execution did not finish";
  const RtlExecResult got = RtlSimulator(result.design).run(inputs);
  if (!got.finished) return "RTL simulation did not reach the halt state";

  if (want.outputs != got.outputs) {
    std::ostringstream oss;
    oss << "output mismatch:";
    for (const auto& [name, v] : want.outputs)
      oss << " " << name << " behavioral=" << v;
    for (const auto& [name, v] : got.outputs)
      oss << " " << name << " rtl=" << v;
    return oss.str();
  }
  return {};
}

}  // namespace mphls
