// synth_large: the compile time a designer waits for on real-sized designs.
//
// One caller, closed loop, single thread. A design set holds one seeded
// design per template and size (four templates x eight sizes, 50..800
// nominal ops); a run has eight sets. Every design is synthesized with the
// CLI's default configuration (list scheduling, greedy FU allocation,
// left-edge registers, two universal FUs) and, up to 150 nominal ops,
// again with clique FU plus clique register allocation. A unit of work is
// one synthesis of one design in one configuration: synthesizeSource plus
// emitVerilog. Passes cycle through the sets until each has run and the
// measured time reaches --seconds.
//
// The traced cycle re-runs the same units stage by stage through the
// layers' public functions in Synthesizer::backend order, with a span
// around each call, and requires the Verilog to be byte-identical to the
// untraced Synthesizer::synthesize result.
#include <optional>

#include "alloc/interconnect.h"
#include "calibrate.h"
#include "check/check_binding.h"
#include "check/check_controller.h"
#include "check/check_schedule.h"
#include "check/check_timing.h"
#include "check/lint_verilog.h"
#include "estim/estimate.h"
#include "ir/verify.h"
#include "lang/frontend.h"
#include "opt/pass.h"
#include "obs/trace.h"
#include "oracle.h"
#include "rollup.h"
#include "rtl/verilog.h"
#include "sched/list_sched.h"
#include "sched/sched_util.h"
#include "sta/sta.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mphls;

struct Unit {
  std::size_t design = 0;
  bool clique = false;
};

struct Inputs {
  std::vector<Design> designs;
  std::vector<Reference> refs;
  std::vector<Unit> units;  ///< set by set, in template and size order
  int sets = 0;
};

SynthesisOptions optionsFor(bool clique) {
  SynthesisOptions o;
  o.resources = ResourceLimits::universalSet(2);
  if (clique) {
    o.fuMethod = FuAllocMethod::Clique;
    o.regMethod = RegAllocMethod::Clique;
  }
  return o;
}

Inputs makeInputs(const RunConfig& cfg) {
  static const std::vector<int> kSizes = {50, 100, 150, 200,
                                          300, 400, 600, 800};
  static const std::vector<int> kTinySizes = {20, 40};
  const int cliqueMax = cfg.tiny ? 40 : 150;
  // Eight sets of fresh designs: a run averages over that many draws of
  // each (template, size), which keeps the seed-to-seed spread small.
  const std::uint64_t numSets = cfg.tiny ? 1 : 8;
  Inputs in;
  in.sets = (int)numSets;
  for (std::uint64_t k = 0; k < numSets; ++k) {
    for (Template t : {Template::Chain, Template::Tree, Template::Loop,
                       Template::Gen})
      for (int n : cfg.tiny ? kTinySizes : kSizes) {
        const std::uint64_t s =
            mixSeed(cfg.seed, k * 100000 + (std::uint64_t)t * 1000 + n);
        in.designs.push_back(makeDesign(t, n, s));
        in.refs.push_back(makeReference(in.designs.back(), s, 2));
        in.units.push_back({in.designs.size() - 1, false});
        if (n <= cliqueMax) in.units.push_back({in.designs.size() - 1, true});
      }
  }
  return in;
}

void require(const CheckReport& rep, const char* stage) {
  MPHLS_CHECK(rep.clean(), stage << " check failed: " << rep.firstError());
}

/// Input sizes of one synthesized unit.
struct UnitSizes {
  double opsAfter = 0, steps = 0, states = 0, compatN = 0, verilogBytes = 0;
};

UnitSizes sizesOf(const SynthesisResult& r, const std::string& verilog) {
  const RtlDesign& d = r.design;
  double fuOps = 0;
  for (const auto& blk : d.binding.fuOfOp)
    for (int f : blk) fuOps += f >= 0 ? 1 : 0;
  return {(double)d.fn.numLiveOps(), (double)d.sched.totalSteps(),
          (double)d.ctrl.numStates(),
          std::max((double)d.lifetimes.items.size(), fuOps),
          (double)verilog.size()};
}

struct Staged {
  SynthesisResult result;
  std::string verilog;
};

/// Synthesizer::synthesize plus emitVerilog for the list scheduler and the
/// standard pipeline, one public layer call at a time, each inside its own
/// span, all inside one "unit" span.
Staged stagedSynthesis(const std::string& source,
                       const SynthesisOptions& o) {
  obs::TraceSpan unit("pb.unit");
  std::optional<Function> parsed;
  {
    obs::TraceSpan s("pb.lang.compile");
    parsed.emplace(compileBdlOrThrow(source));
    verifyOrThrow(*parsed);
  }
  Function fn = std::move(*parsed);
  {
    obs::TraceSpan s("pb.opt.pipeline");
    auto pm = PassManager::standardPipeline();
    pm.run(fn);
  }
  Schedule sched;
  {
    obs::TraceSpan s("pb.sched.schedule");
    sched = scheduleFunction(
        fn,
        [&](const BlockDeps& deps) {
          return listSchedule(deps, o.resources, o.listPriority);
        },
        o.latencies);
    const std::string msg =
        validateSchedule(fn, sched, o.resources, o.latencies);
    MPHLS_CHECK(msg.empty(), "invalid schedule: " << msg);
  }
  {
    obs::TraceSpan s("pb.check.stage");
    CheckReport rep;
    checkSchedule(fn, sched, o.resources, o.latencies, rep);
    require(rep, "schedule");
  }
  LifetimeInfo lt;
  {
    obs::TraceSpan s("pb.alloc.lifetimes");
    lt = computeLifetimes(fn, sched, o.latencies);
  }
  RegAssignment regs;
  {
    obs::TraceSpan s("pb.alloc.reg");
    regs = allocateRegisters(lt, o.regMethod);
    const std::string msg = validateRegAssignment(lt, regs);
    MPHLS_CHECK(msg.empty(), "invalid register allocation: " << msg);
  }
  HwLibrary lib;
  FuBinding binding;
  {
    obs::TraceSpan s("pb.alloc.fu");
    lib = HwLibrary::defaultLibrary();
    binding = allocateFus(fn, sched, lt, regs, lib, o.fuMethod, o.latencies);
    const std::string msg =
        validateFuBinding(fn, sched, binding, lib, o.latencies);
    MPHLS_CHECK(msg.empty(), "invalid FU binding: " << msg);
  }
  InterconnectResult ic;
  {
    obs::TraceSpan s("pb.alloc.interconnect");
    ic = buildInterconnect(fn, sched, lt, regs, binding, lib, o.latencies);
    const std::string msg = validateInterconnect(ic);
    MPHLS_CHECK(msg.empty(), "invalid interconnect: " << msg);
  }
  {
    obs::TraceSpan s("pb.check.stage");
    CheckReport rep;
    checkBinding(fn, sched, lt, regs, binding, ic, lib, o.latencies, rep);
    require(rep, "binding");
  }
  Controller ctrl;
  {
    obs::TraceSpan s("pb.ctrl.build");
    ctrl = buildController(fn, sched, lt, regs, binding, ic, o.latencies);
    const std::string msg = validateController(ctrl, ic, binding);
    MPHLS_CHECK(msg.empty(), "invalid controller: " << msg);
  }
  {
    obs::TraceSpan s("pb.check.stage");
    CheckReport rep;
    checkController(fn, sched, ctrl, ic, binding, o.latencies, rep);
    require(rep, "controller");
  }
  Staged st{SynthesisResult{RtlDesign{std::move(fn), std::move(sched),
                                      std::move(lt), std::move(regs),
                                      std::move(binding), std::move(ic),
                                      std::move(ctrl), std::move(lib)},
                            {}, {}, {}, {}, {}, {}},
            {}};
  SynthesisResult& r = st.result;
  {
    obs::TraceSpan s("pb.ctrl.encode");
    r.fsm = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                             o.encoding);
  }
  {
    obs::TraceSpan s("pb.ctrl.microcode");
    r.microHorizontal = buildMicrocode(r.design.ctrl, r.design.ic,
                                       r.design.binding,
                                       MicrocodeStyle::Horizontal);
    r.microEncoded = buildMicrocode(r.design.ctrl, r.design.ic,
                                    r.design.binding, MicrocodeStyle::Encoded);
  }
  {
    obs::TraceSpan s("pb.estim.area");
    r.area = estimateArea(r.design, r.fsm);
  }
  {
    obs::TraceSpan s("pb.estim.timing");
    r.timing = estimateTiming(r.design);
  }
  {
    obs::TraceSpan s("pb.check.timing");
    CheckReport rep;
    TimingLintOptions topt;
    topt.clockNs = r.timing.cycleTime;
    checkTiming(r.design, topt, rep);
    require(rep, "timing");
  }
  {
    obs::TraceSpan s("pb.rtl.verilog");
    st.verilog = emitVerilog(r.design);
  }
  return st;
}

/// What a designer runs on the result next: the netlist lint and a timing
/// report. Kept outside the unit span so units stay comparable with the
/// untraced Synthesizer calls.
void probes(const Staged& st) {
  obs::TraceSpan probe("pb.probe");
  {
    obs::TraceSpan s("pb.check.lint");
    CheckReport rep;
    lintVerilog(st.verilog, rep);
    require(rep, "lint");
  }
  {
    obs::TraceSpan s("pb.sta.run");
    const sta::StaResult r = sta::runSta(st.result.design);
    MPHLS_CHECK(r.worstSlack > -1e-6,
                "negative slack at the estimated clock");
  }
}

}  // namespace

Outcome runSynthLarge(const RunConfig& cfg) {
  Outcome out;
  Inputs in;
  const double setup = timedSetup(cfg.tiny ? 1 : 5, [&] {
    in = makeInputs(cfg);
  });

  // Passes cycle through the design sets: every set runs at least once,
  // then passes continue until the measured time reaches --seconds. Each
  // unit's outputs and sizes are checked the first time it runs, outside
  // the timed region. A traced run makes one untraced cycle through the
  // sets, then one traced cycle.
  const std::size_t perSet = in.units.size() / (std::size_t)in.sets;
  const double budget = cfg.trace ? 0 : cfg.seconds;
  std::vector<std::vector<double>> unitMs(in.units.size());
  std::vector<std::string> firstVerilog(in.units.size());
  std::vector<UnitSizes> sizes(in.units.size());
  std::vector<double> area, execNs, passUnits, passSeconds;
  double measured = 0, firstCycle = 0;
  int passes = 0;
  while (passes < in.sets || (measured < budget && passes < 100000)) {
    const std::size_t begin = (std::size_t)(passes % in.sets) * perSet;
    const double measured0 = measured;
    for (std::size_t u = begin; u < begin + perSet; ++u) {
      const Unit& unit = in.units[u];
      const Design& d = in.designs[unit.design];
      if (cfg.calibrator) cfg.calibrator->sample();
      ++out.attempted;
      std::optional<SynthesisResult> r;
      std::string verilog;
      const double t0 = now();
      try {
        r = Synthesizer(optionsFor(unit.clique)).synthesizeSource(d.source);
        verilog = emitVerilog(r->design);
      } catch (const std::exception& e) {
        out.fail(d.name + ": " + e.what());
        continue;
      }
      const double dt = now() - t0;
      measured += dt;
      unitMs[u].push_back(dt * 1e3);
      if (passes >= in.sets) continue;
      firstCycle += dt;
      const std::string msg = coSimulate(*r, in.refs[unit.design]);
      if (!msg.empty()) out.fail(d.name + ": " + msg);
      area.push_back(r->area.total());
      execNs.push_back(r->staticLatency() * r->timing.cycleTime);
      sizes[u] = sizesOf(*r, verilog);
      if (cfg.trace) firstVerilog[u] = std::move(verilog);
    }
    passUnits.push_back((double)perSet);
    passSeconds.push_back(measured - measured0);
    ++passes;
  }

  // Latencies are per distinct unit, the median over its passes, which
  // resists a slow stretch of host time; throughput is one cycle's.
  std::vector<double> unitP50;
  for (const auto& ms : unitMs) unitP50.push_back(median(ms));
  const Tail t = tail(unitP50);
  out.set("setup_s", setup, "s");
  out.set("throughput_per_s", cycleRate(passUnits, passSeconds, in.sets),
          "1/s");
  out.set("latency_p50_ms", median(unitP50), "ms");
  out.set("latency_tail_ms", t.value, "ms");
  // Every unit compiles its source from scratch (no frontend cache).
  out.set("cold_latency_p50_ms", median(unitP50), "ms");
  out.set("qor_area_geomean", geomean(area), "area");
  out.set("qor_exec_ns_geomean", geomean(execNs), "ns");
  out.note("unit", str("one synthesis of one design in one configuration"));
  out.note("passes", num(passes));
  out.note("design_sets", num(in.sets));
  out.note("latency_tail", tailJson(t));

  std::vector<double> nominal, ops, states, compat;
  for (const Design& d : in.designs) nominal.push_back(d.nominalOps);
  double compatMax = 0;
  for (std::size_t u = 0; u < in.units.size(); ++u) {
    if (in.units[u].clique) {
      compat.push_back(sizes[u].compatN);
      compatMax = std::max(compatMax, sizes[u].compatN);
    } else {
      ops.push_back(sizes[u].opsAfter);
      states.push_back(sizes[u].states);
    }
  }
  out.note("nominal_ops", distributionJson(nominal));
  out.note("ops_after_opt", distributionJson(ops));
  out.note("fsm_states", distributionJson(states));
  out.note("compat_n", distributionJson(compat));
  // One row per unit, so a change in one design's time is visible.
  std::string rows;
  for (std::size_t u = 0; u < in.units.size(); ++u)
    rows += std::string(rows.empty() ? "" : ",") + "{\"design\":" +
            str(in.designs[in.units[u].design].name) + ",\"config\":" +
            str(in.units[u].clique ? "clique" : "default") +
            ",\"ops_after_opt\":" + num(sizes[u].opsAfter) +
            ",\"ms_p50\":" + num(unitP50[u]) + "}";
  out.note("units", "[" + rows + "]");
  if (!cfg.trace) return out;

  beginTrace();
  for (std::size_t u = 0; u < in.units.size(); ++u) {
    const Unit& unit = in.units[u];
    const Design& d = in.designs[unit.design];
    try {
      const Staged st = stagedSynthesis(d.source, optionsFor(unit.clique));
      probes(st);
      if (st.verilog != firstVerilog[u])
        out.fail(d.name + ": staged Verilog differs from Synthesizer's");
    } catch (const std::exception& e) {
      out.fail(d.name + " (traced): " + e.what());
    }
  }
  const std::map<std::string, SpanTotals> spans = rollUp(endTrace());
  const double perUnit = 1.0 / (double)in.units.size();
  for (const char* layer :
       {"lang.compile", "opt.pipeline", "sched.schedule", "alloc.lifetimes",
        "alloc.reg", "alloc.fu", "alloc.interconnect", "ctrl.build",
        "ctrl.encode", "ctrl.microcode", "estim.area", "estim.timing",
        "check.stage", "check.timing", "check.lint", "sta.run",
        "rtl.verilog"}) {
    const auto it = spans.find(layer);
    out.set(std::string(layer) + "_s",
            (it == spans.end() ? 0.0 : it->second.self) * perUnit, "s");
  }
  double steps = 0, bytes = 0;
  for (const UnitSizes& s : sizes) {
    steps += s.steps;
    bytes += s.verilogBytes;
  }
  out.set("opt.ops_after", sum(ops), "count");
  out.set("sched.steps", steps, "count");
  out.set("alloc.compat_n_max", compatMax, "count");
  out.set("ctrl.states", sum(states), "count");
  out.set("rtl.verilog_bytes", bytes, "bytes");

  const SpanTotals units = spans.count("unit") ? spans.at("unit") : SpanTotals{};
  out.set("trace.unattributed_frac", units.self / units.total, "ratio");
  out.set("trace.overhead_frac", units.total / firstCycle - 1.0, "ratio");
  writeTrace(cfg.outDir + "/trace-synth_large-" + std::to_string(cfg.seed) +
             ".json");
  return out;
}

}  // namespace perfbench
