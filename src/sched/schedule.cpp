#include "sched/schedule.h"

#include <algorithm>
#include <sstream>

namespace mphls {

int Schedule::totalSteps() const {
  int total = 0;
  for (const auto& b : blocks) total += b.numSteps;
  return total;
}

long Schedule::stepsForTrace(const std::vector<BlockId>& trace) const {
  long total = 0;
  for (BlockId b : trace) total += blocks.at(b.index()).numSteps;
  return total;
}

namespace {

FuClass occupyingClassOf(const Op& o) {
  return o.isSink() ? FuClass::Move : classOf(o.kind);
}

}  // namespace

FuClass scheduleClassOf(const BlockDeps& deps, std::size_t i) {
  return deps.occupiesSlot(i) ? occupyingClassOf(deps.op(i)) : FuClass::None;
}

FuClass scheduleClassOf(const Function& fn, const Op& o) {
  return opOccupiesSlot(fn, o) ? occupyingClassOf(o) : FuClass::None;
}

std::string validateBlockSchedule(const BlockDeps& deps,
                                  const BlockSchedule& sched) {
  std::ostringstream err;
  if (sched.step.size() != deps.numOps()) {
    err << "schedule covers " << sched.step.size() << " ops, block has "
        << deps.numOps();
    return err.str();
  }
  for (std::size_t i = 0; i < deps.numOps(); ++i) {
    if (sched.step[i] < 0 || sched.step[i] >= std::max(sched.numSteps, 1)) {
      err << "op " << i << " step " << sched.step[i] << " outside [0, "
          << sched.numSteps << ")";
      return err.str();
    }
  }
  for (const DepEdge& e : deps.edges()) {
    int lat = deps.edgeLatency(e);
    if (sched.step[e.to] - sched.step[e.from] < lat) {
      err << "edge " << e.from << " -> " << e.to << " needs separation "
          << lat << " but steps are " << sched.step[e.from] << " and "
          << sched.step[e.to];
      return err.str();
    }
  }
  return {};
}

std::string validateBlockSchedule(const BlockDeps& deps,
                                  const BlockSchedule& sched,
                                  const ResourceLimits& limits) {
  std::string base = validateBlockSchedule(deps, sched);
  if (!base.empty() || limits.isUnlimited()) return base;

  std::ostringstream err;
  const int steps = std::max(sched.numSteps, 1);
  if (limits.universal) {
    // Moves do not occupy universal operator slots (register transfers);
    // they are checked against an explicit Move limit only. Multicycle
    // operations hold their unit for every step of their span.
    std::vector<int> usage(steps, 0);
    std::vector<int> moves(steps, 0);
    for (std::size_t i = 0; i < deps.numOps(); ++i) {
      FuClass c = scheduleClassOf(deps, i);
      if (c == FuClass::None) continue;
      if (c == FuClass::Move) {
        ++moves[sched.step[i]];
      } else {
        for (int s = sched.step[i];
             s < sched.step[i] + deps.duration(i) && s < steps; ++s)
          ++usage[s];
      }
    }
    for (int s = 0; s < steps; ++s) {
      if (usage[s] > limits.universalCount) {
        err << "step " << s << " uses " << usage[s] << " of "
            << limits.universalCount << " universal units";
        return err.str();
      }
      auto it = limits.perClass.find(FuClass::Move);
      if (it != limits.perClass.end() && moves[s] > it->second) {
        err << "step " << s << " uses " << moves[s] << " moves of "
            << it->second;
        return err.str();
      }
    }
  } else {
    std::map<FuClass, std::vector<int>> usage;
    for (std::size_t i = 0; i < deps.numOps(); ++i) {
      FuClass c = scheduleClassOf(deps, i);
      if (c == FuClass::None) continue;
      auto& vec = usage[c];
      if (vec.empty()) vec.assign(steps, 0);
      int span = c == FuClass::Move ? 1 : deps.duration(i);
      for (int s = sched.step[i]; s < sched.step[i] + span && s < steps; ++s)
        ++vec[s];
    }
    for (const auto& [c, vec] : usage) {
      int limit = limits.limitFor(c);
      for (int s = 0; s < steps; ++s)
        if (vec[s] > limit) {
          err << "step " << s << " uses " << vec[s] << " "
              << fuClassName(c) << " units of " << limit;
          return err.str();
        }
    }
  }
  return {};
}

std::string validateSchedule(const Function& fn, const Schedule& sched,
                             const ResourceLimits& limits,
                             const OpLatencyModel& latencies) {
  if (sched.blocks.size() != fn.numBlocks()) return "block count mismatch";
  for (const auto& blk : fn.blocks()) {
    BlockDeps deps(fn, blk, latencies);
    std::string msg =
        validateBlockSchedule(deps, sched.blocks[blk.id.index()], limits);
    if (!msg.empty()) return "block " + blk.name + ": " + msg;
  }
  return {};
}

std::map<FuClass, int> peakUsage(const BlockDeps& deps,
                                 const BlockSchedule& sched) {
  std::map<FuClass, std::vector<int>> usage;
  const int steps = std::max(sched.numSteps, 1);
  for (std::size_t i = 0; i < deps.numOps(); ++i) {
    FuClass c = scheduleClassOf(deps, i);
    if (c == FuClass::None) continue;
    auto& vec = usage[c];
    if (vec.empty()) vec.assign(steps, 0);
    ++vec[sched.step[i]];
  }
  std::map<FuClass, int> peak;
  for (const auto& [c, vec] : usage)
    peak[c] = *std::max_element(vec.begin(), vec.end());
  return peak;
}

std::map<FuClass, int> peakUsage(const Function& fn, const Schedule& sched) {
  std::map<FuClass, int> peak;
  for (const auto& blk : fn.blocks()) {
    BlockDeps deps(fn, blk);
    for (const auto& [c, n] : peakUsage(deps, sched.blocks[blk.id.index()]))
      peak[c] = std::max(peak[c], n);
  }
  return peak;
}

std::string renderBlockSchedule(const BlockDeps& deps,
                                const BlockSchedule& sched) {
  std::ostringstream oss;
  for (int s = 0; s < sched.numSteps; ++s) {
    oss << "step " << s << ":";
    for (std::size_t i = 0; i < deps.numOps(); ++i) {
      if (sched.step[i] != s) continue;
      const Op& o = deps.op(i);
      if (o.kind == OpKind::Nop) continue;
      oss << "  " << opName(o.kind);
      if (o.kind == OpKind::Const) oss << "(" << o.imm << ")";
      if (o.var.valid()) oss << "[" << deps.fn().var(o.var).name << "]";
      if (o.port.valid()) oss << "[" << deps.fn().port(o.port).name << "]";
      if (!deps.occupiesSlot(i)) oss << "~";  // chained / free
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace mphls
