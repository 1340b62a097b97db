#include "check/check.h"

#include <string>

#include "obs/trace.h"
#include "rtl/verilog.h"

namespace mphls {

CheckReport checkDesign(const RtlDesign& design, const CheckOptions& options) {
  // Each analyzer runs in its own span sized by the work it walks.
  auto ops = [&] { return "ops=" + std::to_string(design.fn.numLiveOps()); };
  auto states = [&] {
    return "states=" + std::to_string(design.ctrl.numStates());
  };
  CheckReport report;
  if (options.semantics) checkSemantics(design.fn, report);
  if (options.structure) {
    obs::TraceSpan span("check.schedule", ops);
    checkSchedule(design.fn, design.sched, options.resources,
                  options.latencies, report);
  }
  if (options.structure) {
    obs::TraceSpan span("check.binding", ops);
    checkBinding(design.fn, design.sched, design.lifetimes, design.regs,
                 design.binding, design.ic, design.lib, options.latencies,
                 report);
  }
  if (options.structure) {
    obs::TraceSpan span("check.controller", states);
    checkController(design.fn, design.sched, design.ctrl, design.ic,
                    design.binding, options.latencies, report);
  }
  if (options.timing) {
    obs::TraceSpan span("check.timing", states);
    checkTiming(design, {}, report);
  }
  if (options.latencies.isUnit()) {
    obs::TraceSpan span("check.netlist", ops);
    lintVerilog(emitVerilog(design), report);
  }
  return report;
}

}  // namespace mphls
