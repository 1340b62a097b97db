// E6 / Fig. 6 — "Greedy Data Path Allocation".
//
// "Assignments are made so as to minimize interconnect. In the case shown
// in the figure, a2 was assigned to adder2 since the increase in
// multiplexing cost required by that allocation was zero ... if we had
// assigned a2 to adder1 and a4 to adder1 without checking for
// interconnection costs, then the final multiplexing would have been more
// expensive. A more global selection rule also could have been applied."
#include <cstdio>

#include "alloc/fu_alloc.h"
#include "alloc/interconnect.h"
#include "bench/bench_util.h"
#include "core/options.h"
#include "sched/list_sched.h"
#include "sched/sched_util.h"

using namespace mphls;

namespace {

/// Two adders' worth of parallelism where source reuse matters: step 0
/// computes a+b and c+d; step 1 computes c+d and a+b again (through
/// variables); interconnect-aware assignment reuses each adder's sources.
Function buildGraph() {
  Function fn("fig6");
  BlockId b = fn.addBlock("entry");
  ValueId va = fn.emitRead(b, fn.addInput("a", 8));
  ValueId vb = fn.emitRead(b, fn.addInput("b", 8));
  ValueId vc = fn.emitRead(b, fn.addInput("c", 8));
  ValueId vd = fn.emitRead(b, fn.addInput("d", 8));
  ValueId a1 = fn.emitBinary(b, OpKind::Add, va, vb);
  ValueId a1b = fn.emitBinary(b, OpKind::Add, vc, vd);
  VarId t1 = fn.addVar("t1", 8);
  VarId t2 = fn.addVar("t2", 8);
  fn.emitStore(b, t1, a1);
  fn.emitStore(b, t2, a1b);
  ValueId l1 = fn.emitLoad(b, t1);
  ValueId l2 = fn.emitLoad(b, t2);
  ValueId a2 = fn.emitBinary(b, OpKind::Add, vc, vd);
  ValueId a3 = fn.emitBinary(b, OpKind::Add, va, vb);
  ValueId s1 = fn.emitBinary(b, OpKind::Xor, a2, l1);
  ValueId s2 = fn.emitBinary(b, OpKind::Xor, a3, l2);
  fn.emitWrite(b, fn.addOutput("q0", 8), s1);
  fn.emitWrite(b, fn.addOutput("q1", 8), s2);
  fn.setReturn(b);
  return fn;
}

}  // namespace

int main() {
  std::printf("== E6 / Fig. 6: greedy data-path allocation ==\n\n");
  Function fn = buildGraph();
  auto limits = ResourceLimits::withClasses(
      {{FuClass::Adder, 2}, {FuClass::Logic, 2}});
  Schedule sched = scheduleFunction(fn, [&](const BlockDeps& d) {
    return listSchedule(d, limits, ListPriority::PathLength);
  });
  HwLibrary lib = HwLibrary::defaultLibrary();
  LifetimeInfo lt = computeLifetimes(fn, sched);
  RegAssignment regs = allocateRegisters(lt);

  std::printf("%-24s %14s %14s %8s\n", "method", "mux area",
              "2:1 muxes", "FUs");
  double awareArea = 0, blindArea = 0;
  for (auto m : {FuAllocMethod::GreedyLocal, FuAllocMethod::GreedyGlobal,
                 FuAllocMethod::InterconnectBlind, FuAllocMethod::Clique}) {
    FuBinding bind = allocateFus(fn, sched, lt, regs, lib, m);
    InterconnectResult ic = buildInterconnect(fn, sched, lt, regs, bind, lib);
    std::printf("%-24s %14.1f %14d %8d\n",
                std::string(fuAllocMethodName(m)).c_str(), ic.muxArea,
                ic.mux2to1Count, bind.numFus());
    if (m == FuAllocMethod::GreedyLocal) awareArea = ic.muxArea;
    if (m == FuAllocMethod::InterconnectBlind) blindArea = ic.muxArea;
  }
  std::printf("\n");
  bench::claim(
      "interconnect-aware greedy beats blind first-fit in mux cost",
      awareArea < blindArea);
  std::printf("  (aware %.1f vs blind %.1f: %.0f%% cheaper multiplexing)\n",
              awareArea, blindArea,
              100.0 * (blindArea - awareArea) / blindArea);
  return 0;
}
