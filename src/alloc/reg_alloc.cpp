#include "alloc/reg_alloc.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "alloc/clique.h"
#include "obs/trace.h"

namespace mphls {

namespace {

RegAssignment leftEdge(const LifetimeInfo& lt) {
  const std::size_t n = lt.items.size();
  RegAssignment out;
  out.regOfItem.assign(n, -1);

  // Sort by birth (the "left edge"), then by death for determinism.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& la = lt.items[a].live;
    const auto& lb = lt.items[b].live;
    if (la.birth != lb.birth) return la.birth < lb.birth;
    if (la.death != lb.death) return la.death < lb.death;
    return a < b;
  });

  std::vector<int> regFreeAt;  // death of the last interval in each register
  for (std::size_t i : order) {
    const LiveInterval& li = lt.items[i].live;
    if (li.empty()) continue;
    int chosen = -1;
    for (std::size_t r = 0; r < regFreeAt.size(); ++r) {
      if (regFreeAt[r] <= li.birth) {
        chosen = (int)r;
        break;
      }
    }
    if (chosen < 0) {
      chosen = (int)regFreeAt.size();
      regFreeAt.push_back(0);
    }
    regFreeAt[static_cast<std::size_t>(chosen)] = li.death;
    out.regOfItem[i] = chosen;
  }
  out.numRegs = (int)regFreeAt.size();
  return out;
}

RegAssignment byClique(const LifetimeInfo& lt) {
  const std::size_t n = lt.items.size();
  CompatGraph g(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (!lt.items[i].live.overlaps(lt.items[j].live)) g.addEdge(i, j);
  CliqueCover cover;
  {
    obs::TraceSpan span("alloc.clique", [&] { return compatSizeArg(g); });
    cover = cliquePartition(g);
  }
  RegAssignment out;
  out.regOfItem.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i)
    if (!lt.items[i].live.empty())
      out.regOfItem[i] = (int)cover.group[i];
  // Compact register numbering over used groups.
  std::vector<int> remap(cover.count, -1);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.regOfItem[i] < 0) continue;
    int& m = remap[static_cast<std::size_t>(out.regOfItem[i])];
    if (m < 0) m = next++;
    out.regOfItem[i] = m;
  }
  out.numRegs = next;
  return out;
}

RegAssignment naive(const LifetimeInfo& lt) {
  RegAssignment out;
  out.regOfItem.assign(lt.items.size(), -1);
  int next = 0;
  for (std::size_t i = 0; i < lt.items.size(); ++i)
    if (!lt.items[i].live.empty()) out.regOfItem[i] = next++;
  out.numRegs = next;
  return out;
}

}  // namespace

RegAssignment allocateRegisters(const LifetimeInfo& lt,
                                RegAllocMethod method) {
  RegAssignment out;
  switch (method) {
    case RegAllocMethod::LeftEdge: out = leftEdge(lt); break;
    case RegAllocMethod::Clique: out = byClique(lt); break;
    case RegAllocMethod::Naive: out = naive(lt); break;
  }
  out.regWidth.assign(static_cast<std::size_t>(out.numRegs), 0);
  for (std::size_t i = 0; i < lt.items.size(); ++i) {
    int r = out.regOfItem[i];
    if (r >= 0)
      out.regWidth[static_cast<std::size_t>(r)] = std::max(
          out.regWidth[static_cast<std::size_t>(r)], lt.items[i].width);
  }
  return out;
}

namespace {

/// True when no item violates the assignment, in O(n log n): every
/// non-empty item has a register wide enough, and per register the items
/// sorted by birth never start before an earlier one dies. An empty item
/// that holds a register can still "overlap" under LiveInterval::overlaps,
/// so its presence sends the caller to the exact scan.
bool assignmentHolds(const LifetimeInfo& lt, const RegAssignment& regs) {
  std::vector<std::pair<int, LiveInterval>> held;  // (register, interval)
  for (std::size_t i = 0; i < lt.items.size(); ++i) {
    const int r = regs.regOfItem[i];
    const bool hasReg = r >= 0 && r < regs.numRegs;
    if (lt.items[i].live.empty()) {
      if (hasReg) return false;
      continue;
    }
    if (!hasReg || (std::size_t)r >= regs.regWidth.size() ||
        regs.regWidth[(std::size_t)r] < lt.items[i].width)
      return false;
    held.emplace_back(r, lt.items[i].live);
  }
  std::sort(held.begin(), held.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second.birth < b.second.birth;
  });
  // Sorted by birth, so an item overlaps an earlier one of its register
  // exactly when it is born before the latest death seen so far.
  int lastDeath = 0;
  for (std::size_t k = 0; k < held.size(); ++k) {
    if (k > 0 && held[k].first == held[k - 1].first &&
        held[k].second.birth < lastDeath)
      return false;
    if (k == 0 || held[k].first != held[k - 1].first)
      lastDeath = held[k].second.death;
    else
      lastDeath = std::max(lastDeath, held[k].second.death);
  }
  return true;
}

}  // namespace

std::string validateRegAssignment(const LifetimeInfo& lt,
                                  const RegAssignment& regs) {
  std::ostringstream err;
  if (regs.regOfItem.size() != lt.items.size()) return "item count mismatch";
  if (assignmentHolds(lt, regs)) return {};
  // Some item violates the assignment: name the first one in item order.
  for (std::size_t i = 0; i < lt.items.size(); ++i) {
    if (lt.items[i].live.empty()) continue;
    if (regs.regOfItem[i] < 0 || regs.regOfItem[i] >= regs.numRegs) {
      err << "item " << i << " has no register";
      return err.str();
    }
    if (regs.regWidth[static_cast<std::size_t>(regs.regOfItem[i])] <
        lt.items[i].width) {
      err << "register too narrow for item " << i;
      return err.str();
    }
    for (std::size_t j = i + 1; j < lt.items.size(); ++j) {
      if (regs.regOfItem[i] == regs.regOfItem[j] &&
          lt.items[i].live.overlaps(lt.items[j].live)) {
        err << "items " << i << " (" << lt.items[i].name << ") and " << j
            << " (" << lt.items[j].name << ") share register "
            << regs.regOfItem[i] << " with overlapping lifetimes";
        return err.str();
      }
    }
  }
  return {};
}

}  // namespace mphls
