// E4 / Fig. 4 — "A List Schedule".
//
// "List scheduling overcomes this problem by using a more global criterion
// ... Here the priority is the length of the path from the operation to
// the end of the block. Since operation 2 has a higher priority than
// operation 1, it is scheduled first, giving an optimal schedule for this
// case." All four priority functions are compared on the Fig. 3 graph.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/options.h"
#include "sched/asap.h"
#include "sched/list_sched.h"
#include "sched/schedule.h"

using namespace mphls;

namespace {

Function buildGraph() {
  Function fn("fig4");
  BlockId b = fn.addBlock("entry");
  std::vector<ValueId> v;
  for (int i = 0; i < 6; ++i) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive (see vcd.cpp).
    std::string pname = "p";
    pname += std::to_string(i);
    v.push_back(fn.emitRead(b, fn.addInput(pname, 8)));
  }
  ValueId y1 = fn.emitBinary(b, OpKind::Add, v[0], v[1]);
  ValueId y2 = fn.emitBinary(b, OpKind::Add, v[2], v[3]);
  ValueId y3 = fn.emitBinary(b, OpKind::Add, v[4], v[5]);
  ValueId x1 = fn.emitBinary(b, OpKind::Add, v[0], v[5]);
  ValueId x2 = fn.emitBinary(b, OpKind::Add, x1, v[1]);
  ValueId x3 = fn.emitBinary(b, OpKind::Add, x2, v[2]);
  fn.emitWrite(b, fn.addOutput("q0", 8), y1);
  fn.emitWrite(b, fn.addOutput("q1", 8), y2);
  fn.emitWrite(b, fn.addOutput("q2", 8), y3);
  fn.emitWrite(b, fn.addOutput("q3", 8), x3);
  fn.setReturn(b);
  return fn;
}

}  // namespace

int main() {
  std::printf("== E4 / Fig. 4: list scheduling fixes the ASAP pathology ==\n\n");
  Function fn = buildGraph();
  BlockDeps deps(fn, fn.block(fn.entry()));
  auto limits = ResourceLimits::withClasses({{FuClass::Adder, 2}});

  BlockSchedule asap = asapResourceSchedule(deps, limits);
  std::printf("%-28s -> %d steps\n", "ASAP (no priority)", asap.numSteps);
  for (auto prio : {ListPriority::PathLength, ListPriority::Mobility,
                    ListPriority::Urgency, ListPriority::ProgramOrder}) {
    BlockSchedule s = listSchedule(deps, limits, prio);
    std::printf("list, %-21s -> %d steps\n",
                std::string(listPriorityName(prio)).c_str(), s.numSteps);
  }

  BlockSchedule best =
      listSchedule(deps, limits, ListPriority::PathLength);
  std::printf("\npath-length list schedule:\n%s\n",
              renderBlockSchedule(deps, best).c_str());
  bench::verdict("list (path-length priority) schedule length", 3,
                 best.numSteps);
  bench::claim("optimal: equals the critical path", best.numSteps == 3);
  bench::claim("ASAP was worse", asap.numSteps > best.numSteps);
  return 0;
}
