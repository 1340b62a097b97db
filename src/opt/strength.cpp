// Strength reduction — the hardware-specific local transformations the
// paper applies to the square-root example (Section 2): "The multiplication
// times 0.5 can be replaced by a right shift by one. The addition of 1 to I
// can be replaced by an increment operation."
//
// Rewrites:
//   x * 2^k  -> x << k          x * 1 -> x           x * 0 -> 0
//   x u/ 2^k -> x >> k          x / 1 -> x
//   x u% 2^k -> x & (2^k - 1)
//   x + 1    -> inc x           x - 1 -> dec x
//   x << c, x >> c (variable shift by constant) -> free constant shift
#include "common/bitutil.h"
#include "ir/deps.h"
#include "opt/pass.h"

namespace mphls {

namespace {

class StrengthPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "strength"; }

  int run(Function& fn) override {
    int changes = 0;
    StoreGuard guard(fn);
    for (const auto& blk : fn.blocks()) {
      for (OpId oid : std::vector<OpId>(blk.ops)) {
        changes += rewrite(fn, guard, blk, oid);
      }
    }
    return changes;
  }

 private:
  /// Constant payload of a value when its def is a Const; -1 otherwise
  /// (note: safe because we only look for small non-negative constants).
  static std::int64_t constOf(const Function& fn, ValueId v) {
    const Op& def = fn.defOf(v);
    if (def.kind != OpKind::Const) return -1;
    std::uint64_t raw = static_cast<std::uint64_t>(def.imm);
    int w = fn.value(v).width;
    raw = truncBits(raw, w);
    return raw > (1ULL << 62) ? -1 : static_cast<std::int64_t>(raw);
  }

  static int rewrite(Function& fn, StoreGuard& guard, const Block& blk,
                     OpId oid) {
    Op& o = fn.op(oid);
    // Rewriting an occupying op into free wiring (casts, constant shifts)
    // chains its consumers to the operand's root register; refuse when that
    // register is overwritten later in the block (same guard as forwarding
    // and the algebraic identities).
    auto toUnary = [&](OpKind k, ValueId arg, std::int64_t imm = 0) {
      if (kindFlowsFree(k) && guard.wiringWouldOutliveStore(blk, arg))
        return 0;
      o.kind = k;
      o.args = {arg};
      o.imm = imm;
      return 1;
    };
    auto toConstZero = [&]() {
      o.kind = OpKind::Const;
      o.args.clear();
      o.imm = 0;
      return 1;
    };

    switch (o.kind) {
      case OpKind::Mul: {
        for (int side = 0; side < 2; ++side) {
          std::int64_t c = constOf(fn, o.args[static_cast<std::size_t>(side)]);
          ValueId other = o.args[static_cast<std::size_t>(1 - side)];
          if (c == 0) return toConstZero();
          if (c == 1) return toUnary(OpKind::ZExt, other);
          if (c > 1 && isPowerOfTwo(static_cast<std::uint64_t>(c)))
            return toUnary(OpKind::ShlConst, other,
                           log2Floor(static_cast<std::uint64_t>(c)));
        }
        return 0;
      }
      case OpKind::UDiv: {
        std::int64_t c = constOf(fn, o.args[1]);
        if (c == 1) return toUnary(OpKind::ZExt, o.args[0]);
        if (c > 1 && isPowerOfTwo(static_cast<std::uint64_t>(c)))
          return toUnary(OpKind::ShrConst, o.args[0],
                         log2Floor(static_cast<std::uint64_t>(c)));
        return 0;
      }
      case OpKind::UMod: {
        std::int64_t c = constOf(fn, o.args[1]);
        if (c == 1) return toConstZero();
        if (c > 1 && isPowerOfTwo(static_cast<std::uint64_t>(c))) {
          // x % 2^k == x & (2^k - 1): needs a mask constant. Reuse the
          // divisor's block by appending a const before this op is not
          // possible in-place, so rewrite as trunc+zext when the mask is
          // the full width of a narrower type; otherwise leave it.
          int k = log2Floor(static_cast<std::uint64_t>(c));
          if (k < fn.value(o.result).width) {
            // (x & (2^k-1)) == zext(trunc_k(x))
            // Express as a Trunc to k bits then ZExt; both are free.
            // In-place we can only become one op, so use Trunc to k bits
            // only when the result width equals k; else skip.
            if (fn.value(o.result).width == k)
              return toUnary(OpKind::Trunc, o.args[0]);
          }
          return 0;
        }
        return 0;
      }
      case OpKind::Add: {
        for (int side = 0; side < 2; ++side) {
          std::int64_t c = constOf(fn, o.args[static_cast<std::size_t>(side)]);
          ValueId other = o.args[static_cast<std::size_t>(1 - side)];
          if (c == 1 &&
              fn.value(other).width == fn.value(o.result).width)
            return toUnary(OpKind::Inc, other);
        }
        return 0;
      }
      case OpKind::Sub: {
        std::int64_t c = constOf(fn, o.args[1]);
        if (c == 1 && fn.value(o.args[0]).width == fn.value(o.result).width)
          return toUnary(OpKind::Dec, o.args[0]);
        return 0;
      }
      case OpKind::Shl:
      case OpKind::Shr:
      case OpKind::Sar: {
        std::int64_t c = constOf(fn, o.args[1]);
        if (c >= 0 && c < fn.value(o.args[0]).width) {
          OpKind k = o.kind == OpKind::Shl   ? OpKind::ShlConst
                     : o.kind == OpKind::Shr ? OpKind::ShrConst
                                             : OpKind::SarConst;
          return toUnary(k, o.args[0], c);
        }
        return 0;
      }
      default:
        return 0;
    }
  }
};

}  // namespace

std::unique_ptr<Pass> createStrengthPass() {
  return std::make_unique<StrengthPass>();
}

}  // namespace mphls
