#include "check/check_schedule.h"

#include <algorithm>
#include <array>
#include <limits>
#include <sstream>
#include <vector>

#include "ir/deps.h"

namespace mphls {

namespace {

std::string_view depKindName(DepKind k) {
  switch (k) {
    case DepKind::Data: return "data";
    case DepKind::VarRaw: return "var RAW";
    case DepKind::VarWar: return "var WAR";
    case DepKind::VarWaw: return "var WAW";
    case DepKind::PortWaw: return "port WAW";
  }
  return "?";
}

std::string opWhere(const Block& blk, const BlockDeps& deps, std::size_t i) {
  std::ostringstream oss;
  oss << "block " << blk.name << " op " << i << " ("
      << opName(deps.op(i).kind) << ")";
  return oss.str();
}

void checkBlock(const Block& blk, const BlockDeps& deps,
                const BlockSchedule& bs, const ResourceLimits& limits,
                CheckReport& report) {
  if (bs.step.size() != deps.numOps()) {
    std::ostringstream oss;
    oss << "schedule covers " << bs.step.size() << " ops, block has "
        << deps.numOps();
    report.error("sched.op-count", "block " + blk.name, oss.str());
    return;  // per-op indices below would be meaningless
  }

  // Steps in range; multi-cycle spans inside the block.
  bool stepsUsable = true;
  for (std::size_t i = 0; i < deps.numOps(); ++i) {
    if (bs.step[i] < 0 || bs.step[i] >= std::max(bs.numSteps, 1)) {
      std::ostringstream oss;
      oss << "step " << bs.step[i] << " outside [0, " << bs.numSteps << ")";
      report.error("sched.step-range", opWhere(blk, deps, i), oss.str());
      stepsUsable = false;
      continue;
    }
    int dur = deps.occupiesSlot(i) ? deps.duration(i) : 1;
    if (bs.step[i] + dur > std::max(bs.numSteps, 1)) {
      std::ostringstream oss;
      oss << "op issues at step " << bs.step[i] << " for " << dur
          << " cycles but the block has only " << bs.numSteps << " steps";
      report.error("sched.multicycle-span", opWhere(blk, deps, i), oss.str());
    }
  }
  if (!stepsUsable) return;  // dependence/resource math needs valid steps

  // Dependence separations.
  for (const DepEdge& e : deps.edges()) {
    int lat = deps.edgeLatency(e);
    if (bs.step[e.to] - bs.step[e.from] < lat) {
      std::ostringstream oss;
      oss << depKindName(e.kind) << " dependence on op " << e.from << " ("
          << opName(deps.op(e.from).kind) << ") needs separation " << lat
          << " but steps are " << bs.step[e.from] << " -> " << bs.step[e.to];
      report.error("sched.dep-order", opWhere(blk, deps, e.to), oss.str());
    }
  }

  // Resource limits: multi-cycle ops hold their unit for their whole span;
  // stand-alone moves are charged against an explicit Move limit only
  // (matching UsageTracker/validateBlockSchedule accounting).
  if (limits.isUnlimited()) return;
  const int steps = std::max(bs.numSteps, 1);
  // Per-step usage by bucket, indexed by FuClass; a bucket no op charges
  // stays empty and is skipped, so buckets report in FuClass order.
  std::array<std::vector<int>, (std::size_t)FuClass::Alu + 1> usage;
  for (std::size_t i = 0; i < deps.numOps(); ++i) {
    FuClass c = scheduleClassOf(deps, i);
    if (c == FuClass::None) continue;
    FuClass bucket =
        (limits.universal && c != FuClass::Move) ? FuClass::None : c;
    auto& vec = usage[(std::size_t)bucket];
    if (vec.empty()) vec.assign((std::size_t)steps, 0);
    int span = c == FuClass::Move ? 1 : deps.duration(i);
    for (int s = bs.step[i]; s < bs.step[i] + span && s < steps; ++s)
      ++vec[(std::size_t)s];
  }
  for (std::size_t b = 0; b < usage.size(); ++b) {
    const std::vector<int>& vec = usage[b];
    if (vec.empty()) continue;
    const FuClass bucket = (FuClass)b;
    int limit;
    if (limits.universal && bucket == FuClass::None) {
      limit = limits.universalCount;
    } else if (limits.universal && bucket == FuClass::Move) {
      // Universal accounting constrains moves only via an explicit Move
      // entry; absent means register transfers are free.
      auto it = limits.perClass.find(FuClass::Move);
      limit = it == limits.perClass.end() ? std::numeric_limits<int>::max()
                                          : it->second;
    } else {
      limit = limits.limitFor(bucket);
    }
    for (int s = 0; s < steps; ++s) {
      if (vec[(std::size_t)s] <= limit) continue;
      std::ostringstream where, oss;
      where << "block " << blk.name << " step " << s;
      oss << "uses " << vec[(std::size_t)s] << " ";
      if (limits.universal && bucket == FuClass::None)
        oss << "universal units";
      else
        oss << fuClassName(bucket) << " units";
      oss << " of " << limit;
      report.error("sched.resource-limit", where.str(), oss.str());
    }
  }
}

}  // namespace

void checkSchedule(const Function& fn, const Schedule& sched,
                   const ResourceLimits& limits,
                   const OpLatencyModel& latencies, CheckReport& report) {
  if (sched.blocks.size() != fn.numBlocks()) {
    std::ostringstream oss;
    oss << "schedule covers " << sched.blocks.size() << " blocks, function '"
        << fn.name() << "' has " << fn.numBlocks();
    report.error("sched.block-count", "function " + fn.name(), oss.str());
    return;
  }
  for (const auto& blk : fn.blocks()) {
    BlockDeps deps(fn, blk, latencies);
    checkBlock(blk, deps, sched.of(blk.id), limits, report);
  }
}

}  // namespace mphls
