#include "core/inject.h"

#include "alloc/fu_alloc.h"
#include "alloc/interconnect.h"
#include "ctrl/fsm.h"
#include "ir/deps.h"

namespace mphls {

bool parseInjectedBug(const std::string& name, InjectedBug& out) {
  if (name == "mul") out = InjectedBug::MulToAdd;
  else if (name == "sched") out = InjectedBug::ScheduleShift;
  else if (name == "bind") out = InjectedBug::SwappedBinding;
  else return false;
  return true;
}

int injectMulToAdd(Function& fn) {
  int rewritten = 0;
  for (const Block& blk : fn.blocks())
    for (OpId oid : blk.ops)
      if (fn.op(oid).kind == OpKind::Mul) {
        fn.op(oid).kind = OpKind::Add;
        ++rewritten;
      }
  return rewritten;
}

int injectScheduleShift(RtlDesign& d, const OpLatencyModel& lat) {
  const Function& fn = d.fn;
  for (const Block& blk : fn.blocks()) {
    BlockSchedule& bs = d.sched.of(blk.id);
    const std::vector<int>& fuOf = d.binding.fuOfOp[blk.id.index()];
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      int f = fuOf[i];
      if (f < 0 || lat.of(o.kind) != 1) continue;
      int s = bs.step[i];
      if (s < 1) continue;
      // The result must be latched into a register: consumers then read
      // the (now wrong) register instead of a no-longer-active unit
      // output, so the mutated design still executes end to end.
      if (!o.result.valid() ||
          d.lifetimes.itemOfValue[o.result.index()] < 0)
        continue;
      // The unit must be idle in the destination step.
      bool busy = false;
      for (std::size_t j = 0; j < blk.ops.size() && !busy; ++j) {
        if (j == i || fuOf[j] != f) continue;
        int js = bs.step[j];
        if (js <= s - 1 && s - 1 <= js + lat.of(fn.op(blk.ops[j]).kind) - 1)
          busy = true;
      }
      if (busy) continue;
      // Operands must be stable wiring (registers, ports, constants), and
      // at least one must read a register whose producing operation
      // completes exactly in step s-1: issuing in s-1 then latches the
      // register's previous contents instead of the fresh value.
      bool wired = true, stale = false;
      for (std::size_t a = 0; a < o.args.size() && wired; ++a) {
        Source src =
            operandSource(fn, d.lifetimes, d.regs, blk.id, i, a);
        if (src.kind == Source::Kind::Fu) {
          wired = false;
          break;
        }
        if (src.kind != Source::Kind::Reg) continue;
        ValueId root = rootValue(fn, o.args[a]);
        const Op& def = fn.defOf(root);
        if (def.isFree() || def.kind == OpKind::LoadVar) continue;
        for (std::size_t j = 0; j < blk.ops.size(); ++j)
          if (blk.ops[j] == def.id &&
              bs.step[j] + lat.of(def.kind) - 1 == s - 1)
            stale = true;
      }
      if (!wired || !stale) continue;
      bs.step[i] -= 1;
      d.ctrl = buildController(fn, d.sched, d.lifetimes, d.regs, d.binding,
                               d.ic, lat);
      return 1;
    }
  }
  return 0;
}

int injectSwappedBinding(RtlDesign& d, const OpLatencyModel& lat) {
  const Function& fn = d.fn;
  for (const Block& blk : fn.blocks()) {
    const std::vector<int>& fuOf = d.binding.fuOfOp[blk.id.index()];
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      if (fuOf[i] < 0 || o.args.size() != 2) continue;
      if (opIsCommutative(o.kind) || o.kind == OpKind::Select) continue;
      if (!o.result.valid()) continue;
      Source sa = operandSource(fn, d.lifetimes, d.regs, blk.id, i, 0);
      Source sb = operandSource(fn, d.lifetimes, d.regs, blk.id, i, 1);
      // Identical sources would make the swap a no-op; same-step unit
      // outputs are left alone to keep the rebuilt wiring well-formed.
      if (sa == sb || sa.kind == Source::Kind::Fu ||
          sb.kind == Source::Kind::Fu)
        continue;
      std::vector<bool>& sw = d.binding.swappedOfOp[blk.id.index()];
      sw[i] = !sw[i];
      d.ic = buildInterconnect(fn, d.sched, d.lifetimes, d.regs, d.binding,
                               d.lib, lat);
      d.ctrl = buildController(fn, d.sched, d.lifetimes, d.regs, d.binding,
                               d.ic, lat);
      return 1;
    }
  }
  return 0;
}

}  // namespace mphls
