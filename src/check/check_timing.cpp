#include "check/check_timing.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <string>
#include <tuple>
#include <vector>

#include "sta/sta.h"

namespace mphls {

namespace {

/// `v` as printf's "%.6g" renders it (std::to_chars' general format with a
/// precision is specified to match printf, and skips its format parsing).
std::string num(double v) {
  char buf[48];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  return std::string(buf, end.ptr);
}

/// A multicycle issue, keyed by the (block, step) where its result is
/// delivered: unit `fu` issued there `cycles - 1` steps earlier.
struct Completion {
  std::uint32_t block;
  int step;
  int fu;
  int cycles;
};

bool completesBefore(const Completion& a, const Completion& b) {
  return std::tie(a.block, a.step) < std::tie(b.block, b.step);
}

/// Every multicycle issue of the controller, sorted by completion.
std::vector<Completion> multicycleCompletions(const Controller& ctrl) {
  std::vector<Completion> out;
  for (const CtrlState& is : ctrl.states)
    for (const FuAction& fa : is.fuActions)
      if (fa.cycles > 1)
        out.push_back({is.block.get(), is.step + fa.cycles - 1, fa.fu,
                       fa.cycles});
  std::sort(out.begin(), out.end(), completesBefore);
  return out;
}

/// Per-stage delay the scheduler implicitly budgeted for state `st`: the
/// worst single functional-unit combinational stage among units the state
/// issues or that deliver a multicycle result into it. Everything the STA
/// finds beyond this — operand/destination muxes, register setup, chained
/// captures — is wiring overhead the schedulers do not model.
double schedulerFuAssumption(const RtlDesign& d, const CtrlState& st,
                             const std::vector<Completion>& completions) {
  double a = 0;
  auto stageOf = [&](int f, int cycles) {
    if (f < 0 || (std::size_t)f >= d.binding.fus.size()) return 0.0;
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    return d.lib.component(fu.comp).delay(fu.width) / std::max(cycles, 1);
  };
  for (const FuAction& fa : st.fuActions) a = std::max(a, stageOf(fa.fu, fa.cycles));
  // Units delivering a previously issued multicycle result here.
  auto [first, last] =
      std::equal_range(completions.begin(), completions.end(),
                       Completion{st.block.get(), st.step, 0, 0},
                       completesBefore);
  auto completing = [&](int f) {
    for (const FuAction& fa : st.fuActions)
      if (fa.fu == f) return;  // active, already counted
    for (auto it = first; it != last; ++it)
      if (it->fu == f) a = std::max(a, stageOf(f, it->cycles));
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

  const std::vector<Completion> completions =
      multicycleCompletions(design.ctrl);
  // The message tail is the same for every overrun: render it once, at
  // the first.
  std::string overrunTail;
  for (const auto& [stateIdx, arrival] : r.stateArrivals) {
    if (stateIdx < 0 || (std::size_t)stateIdx >= design.ctrl.states.size())
      continue;
    const CtrlState& st = design.ctrl.states[(std::size_t)stateIdx];
    const double assumed = schedulerFuAssumption(design, st, completions);
    const double overhead = arrival - assumed;
    if (overhead <= options.chainSlackFraction * r.clockNs) continue;
    if (overrunTail.empty())
      overrunTail = " functional-unit budget (over " +
                    num(options.chainSlackFraction * 100) + "% of the clock " +
                    num(r.clockNs) + ")";
    report.warning("timing.chain-overrun",
                   "state " + std::to_string(stateIdx),
                   "chained interconnect adds " + num(overhead) +
                       " beyond the scheduler's " + num(assumed) +
                       overrunTail);
  }
}

}  // namespace mphls
