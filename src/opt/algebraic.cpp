// Algebraic simplification: identity/annihilator rewrites and redundant
// width-cast removal (lowering inserts conservative casts; most collapse).
//
//   x + 0 -> x        x - 0 -> x        x - x -> 0
//   x & 0 -> 0        x & x -> x        x | 0 -> x       x | x -> x
//   x ^ 0 -> x        x ^ x -> 0
//   x << 0 / >> 0 (const) -> x
//   zext/sext/trunc to the same width -> copy
//   cast(cast(x)) -> cast(x) when the outer cast re-extends the same way
//   select(c, x, x) -> x
#include "opt/pass.h"

namespace mphls {

namespace {

bool isZero(const Function& fn, ValueId v) {
  const Op& def = fn.defOf(v);
  if (def.kind != OpKind::Const) return false;
  int w = fn.value(v).width;
  std::uint64_t raw = static_cast<std::uint64_t>(def.imm);
  return (w == 64 ? raw : (raw & ((1ULL << w) - 1))) == 0;
}

/// One run's rewriting state: the use index, the store guard, and the ops
/// of the current block that became copies and await detaching.
class Rewriter {
 public:
  explicit Rewriter(Function& fn) : fn(fn), uses(fn), guard(fn) {}

  int rewrite(const Block& blk, OpId oid) {
    Op& o = fn.op(oid);
    const int rw = o.result.valid() ? fn.value(o.result).width : 0;

    // Replace this op with a plain copy of `v` (free width adjustment).
    // Refuse when the alias would root consumers at a register that is
    // overwritten later in the block (same guard as forwarding).
    auto toCopy = [&](ValueId v) {
      if (guard.wiringWouldOutliveStore(blk, v)) return 0;
      if (fn.value(v).width == rw) {
        uses.replace(o.result, v);
        removed.push_back(oid);
      } else {
        o.kind = fn.value(v).width > rw ? OpKind::Trunc : OpKind::ZExt;
        uses.setArgs(oid, {v});
        o.imm = 0;
      }
      return 1;
    };
    auto toConstZero = [&]() {
      o.kind = OpKind::Const;
      o.args.clear();
      o.imm = 0;
      return 1;
    };

    switch (o.kind) {
      case OpKind::Add:
        if (isZero(fn, o.args[0])) return toCopy(o.args[1]);
        if (isZero(fn, o.args[1])) return toCopy(o.args[0]);
        return 0;
      case OpKind::Sub:
        if (isZero(fn, o.args[1])) return toCopy(o.args[0]);
        if (o.args[0] == o.args[1]) return toConstZero();
        return 0;
      case OpKind::And:
        if (isZero(fn, o.args[0]) || isZero(fn, o.args[1]))
          return toConstZero();
        if (o.args[0] == o.args[1]) return toCopy(o.args[0]);
        return 0;
      case OpKind::Or:
        if (isZero(fn, o.args[0])) return toCopy(o.args[1]);
        if (isZero(fn, o.args[1])) return toCopy(o.args[0]);
        if (o.args[0] == o.args[1]) return toCopy(o.args[0]);
        return 0;
      case OpKind::Xor:
        if (isZero(fn, o.args[0])) return toCopy(o.args[1]);
        if (isZero(fn, o.args[1])) return toCopy(o.args[0]);
        if (o.args[0] == o.args[1]) return toConstZero();
        return 0;
      case OpKind::ShlConst:
      case OpKind::ShrConst:
      case OpKind::SarConst:
        if (o.imm == 0 && fn.value(o.args[0]).width == rw)
          return toCopy(o.args[0]);
        return 0;
      case OpKind::Trunc:
      case OpKind::ZExt:
      case OpKind::SExt: {
        if (fn.value(o.args[0]).width == rw) return toCopy(o.args[0]);
        // Collapse zext(zext(x)) and sext(sext(x)).
        const Op& inner = fn.defOf(o.args[0]);
        if (inner.kind == o.kind && !inner.args.empty() &&
            o.kind != OpKind::Trunc) {
          uses.setArg(oid, 0, inner.args[0]);
          return 1;
        }
        return 0;
      }
      case OpKind::Select:
        if (o.args[1] == o.args[2]) return toCopy(o.args[1]);
        return 0;
      default:
        return 0;
    }
  }

  Function& fn;
  UseIndex uses;
  StoreGuard guard;
  std::vector<OpId> removed;
};

class AlgebraicPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "algebraic"; }

  int run(Function& fn) override {
    int changes = 0;
    Rewriter rw(fn);
    for (const auto& blk : fn.blocks()) {
      rw.removed.clear();
      for (OpId oid : std::vector<OpId>(blk.ops)) {
        changes += rw.rewrite(blk, oid);
      }
      fn.removeOps(blk.id, rw.removed);
    }
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> createAlgebraicPass() {
  return std::make_unique<AlgebraicPass>();
}

}  // namespace mphls
