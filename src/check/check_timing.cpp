#include "check/check_timing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "sta/sta.h"

namespace mphls {

namespace {

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Per-stage delay the scheduler implicitly budgeted for state `st`: the
/// worst single functional-unit combinational stage among units the state
/// issues or that deliver a multicycle result into it. Everything the STA
/// finds beyond this — operand/destination muxes, register setup, chained
/// captures — is wiring overhead the schedulers do not model.
double schedulerFuAssumption(const RtlDesign& d, const CtrlState& st) {
  double a = 0;
  auto stageOf = [&](int f, int cycles) {
    if (f < 0 || (std::size_t)f >= d.binding.fus.size()) return 0.0;
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    return d.lib.component(fu.comp).delay(fu.width) / std::max(cycles, 1);
  };
  for (const FuAction& fa : st.fuActions) a = std::max(a, stageOf(fa.fu, fa.cycles));
  // Units delivering a previously issued multicycle result here.
  auto completing = [&](int f) {
    for (const FuAction& fa : st.fuActions)
      if (fa.fu == f) return;  // active, already counted
    for (const CtrlState& is : d.ctrl.states) {
      if (is.block != st.block || is.step >= st.step) continue;
      for (const FuAction& fa : is.fuActions)
        if (fa.fu == f && fa.cycles > 1 && is.step + fa.cycles - 1 == st.step)
          a = std::max(a, stageOf(f, fa.cycles));
    }
  };
  auto scanSource = [&](const Source& s) {
    if (s.kind == Source::Kind::Fu) completing(s.id);
  };
  for (const RegAction& ra : st.regActions) {
    if (ra.reg < 0 || (std::size_t)ra.reg >= d.ic.regInput.size()) continue;
    const MuxSpec& m = d.ic.regInput[(std::size_t)ra.reg];
    if (ra.muxSel >= 0 && ra.muxSel < m.legs())
      scanSource(m.sources[(std::size_t)ra.muxSel]);
  }
  for (const PortAction& pa : st.portActions) {
    if (pa.port < 0 || (std::size_t)pa.port >= d.ic.outPortInput.size())
      continue;
    const MuxSpec& m = d.ic.outPortInput[(std::size_t)pa.port];
    if (pa.muxSel >= 0 && pa.muxSel < m.legs())
      scanSource(m.sources[(std::size_t)pa.muxSel]);
  }
  if (st.conditional) scanSource(st.cond);
  return a;
}

}  // namespace

void checkTiming(const RtlDesign& design, const TimingLintOptions& options,
                 CheckReport& report) {
  sta::StaResult r;
  try {
    sta::StaOptions so;
    so.clockNs = options.clockNs;
    so.maxPaths = options.maxReported;
    r = sta::runSta(design, so);
  } catch (const std::exception& e) {
    report.error("timing.analysis-error", "design",
                 std::string("static timing analysis failed: ") + e.what());
    return;
  }
  checkTiming(design, r, options, report);
}

void checkTiming(const RtlDesign& design, const sta::StaResult& r,
                 const TimingLintOptions& options, CheckReport& report) {
  // The cross-validation payoff: estimateTiming (recursive, per-action)
  // and the STA engine (explicit graph, longest path) implement the same
  // timing model independently; a gap beyond tolerance means one is wrong.
  if (std::abs(r.cycleTime - r.estimatedCycleTime) > options.tolerance)
    report.error("timing.estimate-divergence", "design",
                 "sta cycle time " + num(r.cycleTime) +
                     " disagrees with estimateTiming " +
                     num(r.estimatedCycleTime) + " (tolerance " +
                     num(options.tolerance) + ")");

  if (r.combLoop)
    report.error("timing.comb-loop", "design",
                 "timing graph contains a combinational cycle");

  int reported = 0;
  for (const sta::TimingPath& p : r.paths) {
    if (p.slack >= -options.tolerance) break;  // slack-ascending order
    if (reported++ >= options.maxReported) break;
    std::string route;
    for (std::size_t i = 0; i < p.points.size(); ++i) {
      if (i) route += " -> ";
      route += p.points[i].node;
    }
    report.error("timing.negative-slack",
                 "state " + std::to_string(p.state) + " (" + p.stateDesc + ")",
                 "path " + route + " arrives at " + num(p.arrival) +
                     " past the clock " + num(p.required) + " (slack " +
                     num(p.slack) + ")");
  }

  for (const auto& [stateIdx, arrival] : r.stateArrivals) {
    if (stateIdx < 0 || (std::size_t)stateIdx >= design.ctrl.states.size())
      continue;
    const CtrlState& st = design.ctrl.states[(std::size_t)stateIdx];
    const double assumed = schedulerFuAssumption(design, st);
    const double overhead = arrival - assumed;
    if (overhead > options.chainSlackFraction * r.clockNs)
      report.warning(
          "timing.chain-overrun",
          "state " + std::to_string(stateIdx),
          "chained interconnect adds " + num(overhead) +
              " beyond the scheduler's " + num(assumed) +
              " functional-unit budget (over " +
              num(options.chainSlackFraction * 100) + "% of the clock " +
              num(r.clockNs) + ")");
  }
}

}  // namespace mphls
