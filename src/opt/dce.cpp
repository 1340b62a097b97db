// Dead-code elimination: removes pure operations whose results are unused
// and stores to variables that are never loaded anywhere in the design.
//
// One worklist pass reaches the same fixpoint as repeated sweeps: removing
// an op only lowers the use counts of its operands and the load count of
// its variable, so each op is re-examined when one of those reaches zero.
#include <vector>

#include "opt/pass.h"

namespace mphls {

namespace {

class DcePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "dce"; }

  int run(Function& fn) override {
    // Uses of every value (op args + branch conditions), loads of every
    // variable, and the stores of every variable.
    std::vector<int> uses(fn.numValues(), 0);
    std::vector<int> loads(fn.vars().size(), 0);
    std::vector<std::vector<OpId>> storesOfVar(fn.vars().size());
    std::vector<OpId> work;
    for (const auto& blk : fn.blocks()) {
      for (OpId oid : blk.ops) {
        const Op& o = fn.op(oid);
        for (ValueId a : o.args) ++uses[a.index()];
        if (o.kind == OpKind::LoadVar) ++loads[o.var.index()];
        if (o.kind == OpKind::StoreVar)
          storesOfVar[o.var.index()].push_back(oid);
        work.push_back(oid);
      }
      if (blk.term.kind == Terminator::Kind::Branch)
        ++uses[blk.term.cond.index()];
    }

    std::vector<char> removed(fn.numOps(), 0);
    int changes = 0;
    while (!work.empty()) {
      const OpId oid = work.back();
      work.pop_back();
      if (removed[oid.index()]) continue;
      const Op& o = fn.op(oid);
      if (!isDead(o, uses, loads)) continue;
      removed[oid.index()] = 1;
      ++changes;
      for (ValueId a : o.args)
        if (--uses[a.index()] == 0) work.push_back(fn.value(a).def);
      if (o.kind == OpKind::LoadVar && --loads[o.var.index()] == 0)
        for (OpId st : storesOfVar[o.var.index()]) work.push_back(st);
    }

    std::vector<OpId> dead;
    for (const auto& blk : fn.blocks()) {
      dead.clear();
      for (OpId oid : blk.ops)
        if (removed[oid.index()]) dead.push_back(oid);
      fn.removeOps(blk.id, dead);
    }
    return changes;
  }

 private:
  static bool isDead(const Op& o, const std::vector<int>& uses,
                     const std::vector<int>& loads) {
    if (o.result.valid() && uses[o.result.index()] == 0 && opIsPure(o.kind))
      return true;
    // Loads/reads have no side effects either; only their ordering role
    // matters, and unused ones constrain nothing we must keep.
    if ((o.kind == OpKind::LoadVar || o.kind == OpKind::ReadPort) &&
        uses[o.result.index()] == 0)
      return true;
    if (o.kind == OpKind::StoreVar && loads[o.var.index()] == 0) return true;
    return o.kind == OpKind::Nop;
  }
};

}  // namespace

std::unique_ptr<Pass> createDcePass() { return std::make_unique<DcePass>(); }

}  // namespace mphls
