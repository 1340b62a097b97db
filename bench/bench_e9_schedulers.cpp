// E9 — scheduler comparison across real designs.
//
// Section 3's technique survey made executable: every scheduling algorithm
// the tutorial describes runs on every built-in design; the table reports
// schedule length and the functional units each schedule implies, plus a
// list-priority ablation (BUD's path length vs mobility vs Elf/ISYN's
// urgency vs no priority).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/designs.h"
#include "core/options.h"
#include "core/synthesizer.h"

using namespace mphls;

int main() {
  std::printf("== E9: scheduler comparison on real designs ==\n\n");

  struct Cfg {
    std::string name;
    SynthesisOptions opts;
  };
  std::vector<Cfg> cfgs;
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Serial;
    cfgs.push_back({"serial", o});
  }
  for (int n : {1, 2}) {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Asap;
    o.resources = ResourceLimits::universalSet(n);
    cfgs.push_back({"asap-" + std::to_string(n), o});
    SynthesisOptions l = o;
    l.scheduler = SchedulerKind::List;
    cfgs.push_back({"list-" + std::to_string(n), l});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Freedom;
    cfgs.push_back({"freedom", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::ForceDirected;
    cfgs.push_back({"force-dir", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::Transform;
    o.resources = ResourceLimits::universalSet(2);
    cfgs.push_back({"transf-2", o});
  }
  {
    SynthesisOptions o;
    o.scheduler = SchedulerKind::BranchBound;
    o.resources = ResourceLimits::universalSet(2);
    cfgs.push_back({"b&b-2", o});
  }

  std::printf("schedule length in control steps (static, one pass):\n");
  std::printf("%-10s", "design");
  for (const auto& c : cfgs) std::printf("%10s", c.name.c_str());
  std::printf("\n");
  for (const auto& d : designs::all()) {
    std::printf("%-10s", d.name);
    for (const auto& c : cfgs) {
      Synthesizer synth(c.opts);
      SynthesisResult r = synth.synthesizeSource(d.source);
      std::printf("%10d", r.staticLatency());
    }
    std::printf("\n");
  }

  std::printf("\nlist-priority ablation (2 universal FUs):\n");
  std::printf("%-10s", "design");
  for (auto p : {ListPriority::PathLength, ListPriority::Mobility,
                 ListPriority::Urgency, ListPriority::ProgramOrder})
    std::printf("%16s", std::string(listPriorityName(p)).c_str());
  std::printf("\n");
  for (const auto& d : designs::all()) {
    std::printf("%-10s", d.name);
    for (auto p : {ListPriority::PathLength, ListPriority::Mobility,
                   ListPriority::Urgency, ListPriority::ProgramOrder}) {
      SynthesisOptions o;
      o.scheduler = SchedulerKind::List;
      o.resources = ResourceLimits::universalSet(2);
      o.listPriority = p;
      Synthesizer synth(o);
      std::printf("%16d", synth.synthesizeSource(d.source).staticLatency());
    }
    std::printf("\n");
  }

  // Shape claims.
  std::printf("\n");
  {
    SynthesisOptions serialO, listO;
    serialO.scheduler = SchedulerKind::Serial;
    listO.scheduler = SchedulerKind::List;
    listO.resources = ResourceLimits::universalSet(2);
    bool listBeatsSerial = true;
    for (const auto& d : designs::all()) {
      Synthesizer s1(serialO), s2(listO);
      if (s2.synthesizeSource(d.source).staticLatency() >
          s1.synthesizeSource(d.source).staticLatency())
        listBeatsSerial = false;
    }
    bench::claim("list-2FU never slower than the trivial serial schedule",
                 listBeatsSerial);
  }
  return 0;
}
