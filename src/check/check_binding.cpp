#include "check/check_binding.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mphls {

namespace {

std::string itemWhere(const LifetimeInfo& lt, std::size_t i) {
  std::ostringstream oss;
  oss << "item " << i << " (" << lt.items[i].name << ")";
  return oss.str();
}

std::string opWhere(const Function& fn, const Block& blk, std::size_t i) {
  std::ostringstream oss;
  oss << "block " << blk.name << " op " << i << " ("
      << opName(fn.op(blk.ops[i]).kind) << ")";
  return oss.str();
}

/// True when checkRegisters has nothing to report: every live item sits in
/// an in-range register wide enough for it, and per register the live
/// intervals sorted by birth never start before an earlier one dies.
bool registersHold(const LifetimeInfo& lt, const RegAssignment& regs) {
  std::vector<std::pair<int, LiveInterval>> held;  // (register, interval)
  held.reserve(lt.items.size());
  for (std::size_t i = 0; i < lt.items.size(); ++i) {
    if (lt.items[i].live.empty()) continue;
    const int r = regs.regOfItem[i];
    if (r < 0 || r >= regs.numRegs ||
        (std::size_t)r >= regs.regWidth.size() ||
        regs.regWidth[(std::size_t)r] < lt.items[i].width)
      return false;
    held.emplace_back(r, lt.items[i].live);
  }
  std::sort(held.begin(), held.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second.birth < b.second.birth;
  });
  int lastDeath = 0;
  for (std::size_t k = 0; k < held.size(); ++k) {
    const bool sameReg = k > 0 && held[k].first == held[k - 1].first;
    if (sameReg && held[k].second.birth < lastDeath) return false;
    lastDeath = sameReg ? std::max(lastDeath, held[k].second.death)
                        : held[k].second.death;
  }
  return true;
}

void checkRegisters(const LifetimeInfo& lt, const RegAssignment& regs,
                    CheckReport& report) {
  if (regs.regOfItem.size() != lt.items.size()) {
    std::ostringstream oss;
    oss << "assignment covers " << regs.regOfItem.size()
        << " items, lifetime analysis produced " << lt.items.size();
    report.error("bind.reg-count", "register assignment", oss.str());
    return;
  }
  if (registersHold(lt, regs)) return;
  // Some item violates the assignment: report every violation in item
  // order with the all-pairs scan.
  for (std::size_t i = 0; i < lt.items.size(); ++i) {
    if (lt.items[i].live.empty()) continue;
    int r = regs.regOfItem[i];
    if (r < 0 || r >= regs.numRegs) {
      std::ostringstream oss;
      oss << "live item mapped to register " << r << " of " << regs.numRegs;
      report.error("bind.reg-range", itemWhere(lt, i), oss.str());
      continue;
    }
    if ((std::size_t)r >= regs.regWidth.size()) {
      std::ostringstream oss;
      oss << "register r" << r << " has no width (widths cover "
          << regs.regWidth.size() << " registers)";
      report.error("bind.reg-width", itemWhere(lt, i), oss.str());
    } else if (regs.regWidth[(std::size_t)r] < lt.items[i].width) {
      std::ostringstream oss;
      oss << "register r" << r << " is " << regs.regWidth[(std::size_t)r]
          << " bits, item needs " << lt.items[i].width;
      report.error("bind.reg-width", itemWhere(lt, i), oss.str());
    }
    for (std::size_t j = i + 1; j < lt.items.size(); ++j) {
      if (regs.regOfItem[j] != r || lt.items[j].live.empty()) continue;
      if (lt.items[i].live.overlaps(lt.items[j].live)) {
        std::ostringstream oss;
        oss << "shares register r" << r << " with " << itemWhere(lt, j)
            << " but lifetimes [" << lt.items[i].live.birth << ", "
            << lt.items[i].live.death << ") and [" << lt.items[j].live.birth
            << ", " << lt.items[j].live.death << ") overlap";
        report.error("bind.reg-overlap", itemWhere(lt, i), oss.str());
      }
    }
  }
}

/// True when some unit executes two ops in one control step (or an op's
/// step is too far out of range to pack, which the exact scan then
/// judges): the packed (fu, step) occupancy of every bound slot-occupying
/// op, sorted, holds two equal entries.
bool unitsConflict(const Function& fn, const Block& blk,
                   const BlockSchedule& bs, const std::vector<FuClass>& cls,
                   const std::vector<int>& fuOf, int numFus,
                   const OpLatencyModel& latencies) {
  std::vector<std::uint64_t> busy;
  for (std::size_t i = 0; i < blk.ops.size(); ++i) {
    const int f = fuOf[i];
    if (cls[i] == FuClass::None || cls[i] == FuClass::Move || f < 0 ||
        f >= numFus)
      continue;
    const int cycles = latencies.of(fn.op(blk.ops[i]).kind);
    if (bs.step[i] < 0 || bs.step[i] > (1 << 30) - cycles) return true;
    for (int span = 0; span < cycles; ++span)
      busy.push_back((std::uint64_t)f << 32 |
                     (std::uint32_t)(bs.step[i] + span));
  }
  std::sort(busy.begin(), busy.end());
  return std::adjacent_find(busy.begin(), busy.end()) != busy.end();
}

void checkUnits(const Function& fn, const Schedule& sched,
                const FuBinding& binding, const HwLibrary& lib,
                const OpLatencyModel& latencies, CheckReport& report) {
  for (const auto& blk : fn.blocks()) {
    if (blk.id.index() >= binding.fuOfOp.size() ||
        binding.fuOfOp[blk.id.index()].size() != blk.ops.size()) {
      report.error("bind.fu-unbound", "block " + blk.name,
                   "binding does not cover every op of the block");
      continue;
    }
    const BlockSchedule& bs = sched.of(blk.id);
    const std::vector<int>& fuOf = binding.fuOfOp[blk.id.index()];
    std::vector<FuClass> cls(blk.ops.size());
    for (std::size_t i = 0; i < blk.ops.size(); ++i)
      cls[i] = scheduleClassOf(fn, fn.op(blk.ops[i]));
    const bool conflict = bs.step.size() == blk.ops.size() &&
                          unitsConflict(fn, blk, bs, cls, fuOf,
                                        binding.numFus(), latencies);
    // (fu, step) -> first op index seen executing there; filled only for
    // a block with a conflict, to name the op that got there first.
    std::map<std::pair<int, int>, std::size_t> unitBusy;
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      FuClass c = cls[i];
      int f = fuOf[i];
      if (c == FuClass::None || c == FuClass::Move) {
        if (f >= 0)
          report.error("bind.fu-spurious", opWhere(fn, blk, i),
                       "op needs no functional unit but is bound to fu" +
                           std::to_string(f));
        continue;
      }
      if (f < 0) {
        report.error("bind.fu-unbound", opWhere(fn, blk, i),
                     "slot-occupying op is bound to no functional unit");
        continue;
      }
      if (f >= binding.numFus()) {
        std::ostringstream oss;
        oss << "bound to fu" << f << " but only " << binding.numFus()
            << " units exist";
        report.error("bind.fu-range", opWhere(fn, blk, i), oss.str());
        continue;
      }
      const FuInstance& fu = binding.fus[(std::size_t)f];
      const Op& o = fn.op(blk.ops[i]);
      if (!fu.performs(o.kind)) {
        std::ostringstream oss;
        oss << "fu" << f << " does not perform " << opName(o.kind);
        report.error("bind.fu-op-support", opWhere(fn, blk, i), oss.str());
      } else if (!fu.comp.valid() ||
                 fu.comp.index() >= lib.components().size()) {
        std::ostringstream oss;
        oss << "fu" << f << " is bound to no library component";
        report.error("bind.fu-comp-support", opWhere(fn, blk, i), oss.str());
      } else if (!lib.component(fu.comp).supports(o.kind)) {
        std::ostringstream oss;
        oss << "fu" << f << "'s component " << lib.component(fu.comp).name
            << " cannot execute " << opName(o.kind);
        report.error("bind.fu-comp-support", opWhere(fn, blk, i), oss.str());
      }
      if (o.result.valid() && fu.width < fn.value(o.result).width) {
        std::ostringstream oss;
        oss << "fu" << f << " is " << fu.width << " bits, result needs "
            << fn.value(o.result).width;
        report.error("bind.fu-width", opWhere(fn, blk, i), oss.str());
      }
      if (!conflict) continue;  // also when the sched checker's sizes differ
      for (int span = 0; span < latencies.of(o.kind); ++span) {
        auto [it, fresh] = unitBusy.try_emplace({f, bs.step[i] + span}, i);
        if (!fresh && it->second != i) {
          std::ostringstream oss;
          oss << "fu" << f << " also runs op " << it->second << " ("
              << opName(fn.op(blk.ops[it->second]).kind) << ") at step "
              << bs.step[i] + span;
          report.error("bind.fu-conflict", opWhere(fn, blk, i), oss.str());
        }
      }
    }
  }
}

/// Steps (or buses) at or past this bound send the conflict checks below
/// to their exact scans; it caps the per-step (per-bus) arrays.
constexpr int kIndexLimit = 1 << 20;

/// True when two transfers of one group name different sources in one
/// step. `slotOf` gives each transfer's group, below `slots`; every step
/// lies in [0, maxStep]. Transfers are grouped with a counting sort;
/// within a group, a per-step stamp remembers the first transfer seen in
/// each step, so the check is linear.
bool groupsConflict(const std::vector<Transfer>& transfers,
                    const std::vector<std::size_t>& slotOf,
                    std::size_t slots, int maxStep) {
  std::vector<std::size_t> start(slots + 1, 0), order(transfers.size());
  for (std::size_t slot : slotOf) ++start[slot + 1];
  for (std::size_t s = 0; s < slots; ++s) start[s + 1] += start[s];
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::size_t k = 0; k < transfers.size(); ++k)
      order[fill[slotOf[k]]++] = k;
  }
  std::vector<std::size_t> stamp((std::size_t)maxStep + 1, SIZE_MAX);
  std::vector<std::size_t> first((std::size_t)maxStep + 1);
  for (std::size_t s = 0; s < slots; ++s)
    for (std::size_t i = start[s]; i < start[s + 1]; ++i) {
      const Transfer& t = transfers[order[i]];
      const std::size_t step = (std::size_t)t.step;
      if (stamp[step] != s) {
        stamp[step] = s;
        first[step] = order[i];
      } else if (!(transfers[first[step]].src == t.src)) {
        return true;
      }
    }
  return false;
}

/// True when some destination mux needs two different sources in one step
/// (or a transfer's destination or step is out of range, which the exact
/// scan then judges).
bool muxConflict(const InterconnectResult& ic) {
  const std::vector<Transfer>& transfers = ic.transfers;
  const std::size_t fuSlots = ic.fuInput.size() * 3;
  const std::size_t regSlots = ic.regInput.size();
  const std::size_t slots = fuSlots + regSlots + ic.outPortInput.size();
  std::vector<std::size_t> slotOf(transfers.size());
  int maxStep = 0;
  for (std::size_t k = 0; k < transfers.size(); ++k) {
    const Transfer& t = transfers[k];
    const std::size_t id = (std::size_t)t.destId;
    if (t.destId < 0 || t.step < 0 || t.step >= kIndexLimit) return true;
    switch (t.destKind) {
      case Transfer::DestKind::FuPort:
        if (id >= ic.fuInput.size() || t.destPort < 0 || t.destPort >= 3)
          return true;
        slotOf[k] = id * 3 + (std::size_t)t.destPort;
        break;
      case Transfer::DestKind::Reg:
        if (id >= regSlots) return true;
        slotOf[k] = fuSlots + id;
        break;
      case Transfer::DestKind::OutPort:
        if (id >= ic.outPortInput.size()) return true;
        slotOf[k] = fuSlots + regSlots + id;
        break;
    }
    maxStep = std::max(maxStep, t.step);
  }
  return groupsConflict(transfers, slotOf, slots, maxStep);
}

/// True when some bus carries two different sources in one step (or a
/// transfer's step or bus is too large for the arrays, which the exact
/// scan then judges). Every transfer's bus must already be in range.
bool busConflict(const InterconnectResult& ic) {
  std::vector<std::size_t> slotOf(ic.transfers.size());
  int maxStep = 0, maxBus = 0;
  for (std::size_t k = 0; k < ic.transfers.size(); ++k) {
    const int step = ic.transfers[k].step, bus = ic.busOfTransfer[k];
    if (step < 0 || step >= kIndexLimit || bus >= kIndexLimit) return true;
    slotOf[k] = (std::size_t)bus;
    maxStep = std::max(maxStep, step);
    maxBus = std::max(maxBus, bus);
  }
  return groupsConflict(ic.transfers, slotOf, (std::size_t)maxBus + 1,
                        maxStep);
}

void checkMuxes(const InterconnectResult& ic, CheckReport& report) {
  auto muxOf = [&](const Transfer& t) -> const MuxSpec* {
    switch (t.destKind) {
      case Transfer::DestKind::FuPort:
        if (t.destId < 0 || (std::size_t)t.destId >= ic.fuInput.size() ||
            t.destPort < 0 || t.destPort >= 3)
          return nullptr;
        return &ic.fuInput[(std::size_t)t.destId][(std::size_t)t.destPort];
      case Transfer::DestKind::Reg:
        if (t.destId < 0 || (std::size_t)t.destId >= ic.regInput.size())
          return nullptr;
        return &ic.regInput[(std::size_t)t.destId];
      case Transfer::DestKind::OutPort:
        if (t.destId < 0 || (std::size_t)t.destId >= ic.outPortInput.size())
          return nullptr;
        return &ic.outPortInput[(std::size_t)t.destId];
    }
    return nullptr;
  };
  auto destName = [](const Transfer& t) {
    std::ostringstream oss;
    switch (t.destKind) {
      case Transfer::DestKind::FuPort:
        oss << "fu" << t.destId << " port " << t.destPort;
        break;
      case Transfer::DestKind::Reg: oss << "register r" << t.destId; break;
      case Transfer::DestKind::OutPort: oss << "port " << t.destId; break;
    }
    return oss.str();
  };

  // Leg membership: a binary search of the mux's leg hashes (sorted on
  // first use), then an exact comparison with each leg of equal hash.
  using HashedLeg = std::pair<std::uint64_t, const Source*>;
  std::unordered_map<const MuxSpec*, std::vector<HashedLeg>> hashedLegs;
  auto hasLeg = [&](const MuxSpec& mux, const Source& src) {
    auto [it, fresh] = hashedLegs.try_emplace(&mux);
    std::vector<HashedLeg>& legs = it->second;
    if (fresh) {
      for (const Source& leg : mux.sources)
        legs.emplace_back(hashSource(leg), &leg);
      std::sort(legs.begin(), legs.end());
    }
    const std::uint64_t h = hashSource(src);
    for (auto l = std::lower_bound(legs.begin(), legs.end(),
                                   HashedLeg{h, nullptr});
         l != legs.end() && l->first == h; ++l)
      if (*l->second == src) return true;
    return false;
  };

  // Exhaustiveness: every transfer's source must be a leg of its dest mux.
  for (const Transfer& t : ic.transfers) {
    const MuxSpec* mux = muxOf(t);
    if (!mux) {
      report.error("bind.mux-missing", destName(t),
                   "transfer destination does not exist");
      continue;
    }
    if (!hasLeg(*mux, t.src)) {
      std::ostringstream oss;
      oss << "source " << t.src.str() << " (step " << t.step
          << ") has no mux leg";
      report.error("bind.mux-missing", destName(t), oss.str());
    }
  }

  // Conflict-freedom: one source per destination mux per control step.
  // Key the destination by (kind, id, port). Only a design with a conflict
  // pays for the first-seen map that names each conflicting pair.
  if (!muxConflict(ic)) return;
  std::map<std::tuple<int, int, int, int>, const Transfer*> seen;
  for (const Transfer& t : ic.transfers) {
    auto key = std::make_tuple((int)t.destKind, t.destId, t.destPort, t.step);
    auto [it, fresh] = seen.try_emplace(key, &t);
    if (!fresh && !(it->second->src == t.src)) {
      std::ostringstream oss;
      oss << "needs both " << it->second->src.str() << " and " << t.src.str()
          << " at step " << t.step;
      report.error("bind.mux-conflict", destName(t), oss.str());
    }
  }
}

/// The bus-based alternative (estimateTiming indexes its per-bus tables
/// by busOfTransfer): every transfer rides an existing bus, and no bus
/// carries two different sources in one step.
void checkBuses(const InterconnectResult& ic, CheckReport& report) {
  if (ic.busOfTransfer.size() != ic.transfers.size()) {
    std::ostringstream oss;
    oss << "bus assignment covers " << ic.busOfTransfer.size()
        << " transfers, interconnect has " << ic.transfers.size();
    report.error("bind.bus-range", "bus assignment", oss.str());
    return;
  }
  bool inRange = true;
  for (std::size_t k = 0; k < ic.transfers.size(); ++k) {
    const int b = ic.busOfTransfer[k];
    if (b >= 0 && b < ic.numBuses) continue;
    std::ostringstream where, oss;
    where << "transfer " << k;
    oss << "assigned to bus " << b << " of " << ic.numBuses;
    report.error("bind.bus-range", where.str(), oss.str());
    inRange = false;
  }
  // Only a design with a conflict (or an out-of-range bus) pays for the
  // first-seen map that names each conflicting pair.
  if (inRange && !busConflict(ic)) return;
  std::map<std::pair<int, int>, const Transfer*> seen;
  for (std::size_t k = 0; k < ic.transfers.size(); ++k) {
    const Transfer& t = ic.transfers[k];
    const int b = ic.busOfTransfer[k];
    if (b < 0 || b >= ic.numBuses) continue;  // reported as bus-range
    auto [it, fresh] = seen.try_emplace({b, t.step}, &t);
    if (!fresh && !(it->second->src == t.src)) {
      std::ostringstream oss;
      oss << "carries both " << it->second->src.str() << " and "
          << t.src.str() << " at step " << t.step;
      report.error("bind.bus-conflict", "bus " + std::to_string(b),
                   oss.str());
    }
  }
}

}  // namespace

void checkBinding(const Function& fn, const Schedule& sched,
                  const LifetimeInfo& lifetimes, const RegAssignment& regs,
                  const FuBinding& binding, const InterconnectResult& ic,
                  const HwLibrary& lib, const OpLatencyModel& latencies,
                  CheckReport& report) {
  checkRegisters(lifetimes, regs, report);
  checkUnits(fn, sched, binding, lib, latencies, report);
  checkMuxes(ic, report);
  checkBuses(ic, report);
}

std::string validateRegAssignment(const LifetimeInfo& lifetimes,
                                  const RegAssignment& regs) {
  CheckReport report;
  checkRegisters(lifetimes, regs, report);
  return report.firstError();
}

std::string validateFuBinding(const Function& fn, const Schedule& sched,
                              const FuBinding& binding, const HwLibrary& lib,
                              const OpLatencyModel& latencies) {
  CheckReport report;
  checkUnits(fn, sched, binding, lib, latencies, report);
  return report.firstError();
}

std::string validateInterconnect(const InterconnectResult& ic) {
  CheckReport report;
  checkMuxes(ic, report);
  checkBuses(ic, report);
  return report.firstError();
}

}  // namespace mphls
