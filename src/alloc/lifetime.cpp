#include "alloc/lifetime.h"

#include <algorithm>

#include "ir/analysis.h"
#include "ir/deps.h"

namespace mphls {

int LifetimeInfo::maxOverlap() const {
  // Sweep event counts over global steps.
  std::vector<int> delta(static_cast<std::size_t>(totalSteps) + 2, 0);
  for (const auto& it : items) {
    if (it.live.empty()) continue;
    delta[static_cast<std::size_t>(std::max(it.live.birth, 0))] += 1;
    delta[static_cast<std::size_t>(
        std::min(it.live.death, totalSteps + 1))] -= 1;
  }
  int cur = 0, best = 0;
  for (int d : delta) {
    cur += d;
    best = std::max(best, cur);
  }
  return best;
}

LifetimeInfo computeLifetimes(const Function& fn, const Schedule& sched,
                              const OpLatencyModel& latencies) {
  LifetimeInfo info;
  info.itemOfValue.assign(fn.numValues(), -1);
  info.itemOfVar.assign(fn.vars().size(), -1);
  info.blockBase.assign(fn.numBlocks(), 0);

  // Lay blocks out in reverse post-order.
  auto rpo = reversePostOrder(fn);
  int base = 0;
  for (BlockId b : rpo) {
    info.blockBase[b.index()] = base;
    base += std::max(sched.of(b).numSteps, 0);
  }
  info.totalSteps = base;

  // One walk over every op of every block collects both item families.
  // Temporaries: per-value scratch arrays shared by all blocks (the
  // defining op's position, and the root's latch and last-use steps), reset
  // through the block's own ops; a block's roots are emitted in ascending
  // value id. Variables: lo/hi accumulated per variable, emitted in
  // variable order after the walk.
  const VarLiveness lv = computeVarLiveness(fn);
  const std::size_t nvars = fn.vars().size();
  std::vector<int> varLo(nvars, INT32_MAX), varHi(nvars, INT32_MIN);
  std::vector<char> varStored(nvars, 0);
  auto touchVar = [&](VarId v, int lo, int hi) {
    varLo[v.index()] = std::min(varLo[v.index()], lo);
    varHi[v.index()] = std::max(varHi[v.index()], hi);
  };

  std::vector<int> defIndexOfValue(fn.numValues(), -1);
  std::vector<int> rootDefStep(fn.numValues(), 0);
  std::vector<int> rootLastUse(fn.numValues(), -1);
  std::vector<char> isRoot(fn.numValues(), 0);
  std::vector<std::uint32_t> roots;
  // Const and port reads are wiring; variable loads use the variable's own
  // register. Anything else is a temporary root.
  auto isWiring = [](const Op& rdef) {
    return rdef.kind == OpKind::Const || rdef.kind == OpKind::ReadPort ||
           rdef.kind == OpKind::LoadVar;
  };
  auto touchRoot = [&](ValueId r) {
    if (!isRoot[r.index()]) {
      isRoot[r.index()] = 1;
      roots.push_back(r.get());
    }
  };

  for (const auto& blk : fn.blocks()) {
    const BlockSchedule& bs = sched.of(blk.id);
    const int bb = info.blockBase[blk.id.index()];
    const std::size_t bi = blk.id.index();

    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      if (o.result.valid()) defIndexOfValue[o.result.index()] = (int)i;
    }
    for (const auto& var : fn.vars()) {
      if (lv.liveIn[bi][var.id.index()]) touchVar(var.id, bb, bb + 1);
      // Live out: conservatively written somewhere within the block.
      if (lv.liveOut[bi][var.id.index()])
        touchVar(var.id, bb, bb + std::max(bs.numSteps, 1));
    }

    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      const int step = bs.step[i];
      if (o.kind == OpKind::StoreVar) {
        varStored[o.var.index()] = 1;
        touchVar(o.var, bb + step, bb + step + 1);
      } else if (o.kind == OpKind::LoadVar) {
        touchVar(o.var, bb + step, bb + step + 1);
      }
      for (ValueId a : o.args) {
        ValueId r = rootValue(fn, a);
        const Op& rdef = fn.defOf(r);
        // Loads are transparent wiring: the variable's register is actually
        // read when a *consumer* of a load-rooted value executes, which may
        // be later than the load's own position. Extend the lifetime to
        // every such consumer.
        if (rdef.kind == OpKind::LoadVar)
          touchVar(rdef.var, bb + step, bb + step + 1);
        if (isWiring(rdef)) continue;
        int defIdx = defIndexOfValue[r.index()];
        MPHLS_CHECK(defIdx >= 0, "root value not defined in block");
        touchRoot(r);
        // The value is latched at the producer's completion step.
        rootDefStep[r.index()] =
            bs.step[(std::size_t)defIdx] + latencies.of(rdef.kind) - 1;
        rootLastUse[r.index()] = std::max(rootLastUse[r.index()], step);
      }
    }
    if (blk.term.kind == Terminator::Kind::Branch) {
      ValueId r = rootValue(fn, blk.term.cond);
      const Op& rdef = fn.defOf(r);
      // The condition is consumed in the block's final step.
      if (rdef.kind == OpKind::LoadVar)
        touchVar(rdef.var, bb, bb + std::max(bs.numSteps, 1));
      if (!isWiring(rdef)) {
        int defIdx = defIndexOfValue[r.index()];
        MPHLS_CHECK(defIdx >= 0, "branch cond root not in block");
        touchRoot(r);
        const int defStep =
            bs.step[(std::size_t)defIdx] + latencies.of(rdef.kind) - 1;
        rootDefStep[r.index()] = defStep;
        rootLastUse[r.index()] = std::max(
            rootLastUse[r.index()], std::max(bs.numSteps - 1, defStep));
      }
    }

    std::sort(roots.begin(), roots.end());
    for (std::uint32_t vid : roots) {
      const int defStep = rootDefStep[vid];
      const int lastUse = rootLastUse[vid];
      isRoot[vid] = 0;
      rootLastUse[vid] = -1;
      if (lastUse <= defStep) continue;  // same-step: combinational
      StorageItem item;
      item.kind = StorageItem::Kind::Temp;
      item.value = ValueId(vid);
      item.width = fn.value(ValueId(vid)).width;
      item.live = {bb + defStep, bb + lastUse};
      // Sequential append: GCC 12's -Wrestrict misfires on the temporary
      // chain `"t" + std::to_string(...)` at -O3 (same story as obs/vcd.cpp).
      item.name = "t";
      item.name += std::to_string(vid);
      info.itemOfValue[item.value.index()] = (int)info.items.size();
      info.items.push_back(std::move(item));
    }
    roots.clear();
    for (OpId oid : blk.ops) {
      const ValueId r = fn.op(oid).result;
      if (r.valid()) defIndexOfValue[r.index()] = -1;
    }
  }

  for (const auto& var : fn.vars()) {
    const int lo = varLo[var.id.index()], hi = varHi[var.id.index()];
    if (!varStored[var.id.index()] || lo >= hi) continue;  // no register
    StorageItem item;
    item.kind = StorageItem::Kind::Variable;
    item.var = var.id;
    item.width = var.width;
    item.live = {lo, hi};
    item.name = var.name;
    info.itemOfVar[var.id.index()] = (int)info.items.size();
    info.items.push_back(std::move(item));
  }

  return info;
}

}  // namespace mphls
