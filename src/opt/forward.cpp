// Store-to-load forwarding and local constant propagation.
//
// Within a block, a load that follows a store to the same variable can use
// the stored value directly ("the data-flow graph can also be used to
// remove the dependence on the way internal variables are used in the
// specification", Section 2) — this both shortens dependence chains and
// lets later passes (const folding, DCE) fire.
#include <unordered_map>

#include "opt/pass.h"

namespace mphls {

namespace {

class ForwardingPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "forward"; }

  int run(Function& fn) override {
    int changes = 0;
    UseIndex uses(fn);
    StoreGuard guard(fn);
    for (auto& blk : fn.blocks()) {
      // Last in-block stored value per variable (+ position of the store).
      std::unordered_map<std::uint32_t, std::pair<ValueId, std::size_t>>
          lastStore;
      for (std::size_t pos = 0; pos < blk.ops.size(); ++pos) {
        OpId oid = blk.ops[pos];
        Op& o = fn.op(oid);
        if (o.kind == OpKind::StoreVar) {
          lastStore[o.var.get()] = {o.args[0], pos};
        } else if (o.kind == OpKind::LoadVar) {
          auto it = lastStore.find(o.var.get());
          if (it == lastStore.end()) continue;
          ValueId v = it->second.first;
          // Widths match by construction (stores resize to the var width),
          // but guard anyway: forwarding must not change the value.
          if (fn.value(v).width != fn.value(o.result).width) continue;
          // Safety: if v is rooted at a load of variable w and w is stored
          // again later in the block, the forwarded uses would read w's
          // register after the overwrite — keep the explicit copy instead.
          if (guard.wiringWouldOutliveStore(blk, v)) continue;
          uses.replace(o.result, v);
          ++changes;
          // The dead load is swept by DCE.
        }
      }
    }
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> createForwardingPass() {
  return std::make_unique<ForwardingPass>();
}

}  // namespace mphls
