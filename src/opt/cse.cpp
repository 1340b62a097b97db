// Common-subexpression elimination (local): within a block, pure ops with
// identical opcode, immediate and operands reuse the first computation.
// Commutative operands are canonicalized so a*b and b*a unify. Repeated
// loads of a variable with no intervening store also merge.
#include <array>
#include <unordered_map>
#include <vector>

#include "opt/pass.h"

namespace mphls {

namespace {

/// A pure computation: opcode, immediate, result width and operands (the
/// opcode fixes the arity; unused slots stay 0).
struct ExprKey {
  OpKind kind = OpKind::Nop;
  std::int64_t imm = 0;
  int width = 0;
  std::array<std::uint32_t, 3> args{};

  bool operator==(const ExprKey&) const = default;
};

struct ExprKeyHash {
  std::size_t operator()(const ExprKey& k) const {
    std::uint64_t h = (std::uint64_t)k.kind * 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](std::uint64_t x) {
      h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix((std::uint64_t)k.imm);
    mix((std::uint64_t)k.width);
    for (std::uint32_t a : k.args) mix(a);
    return (std::size_t)h;
  }
};

class CsePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "cse"; }

  int run(Function& fn) override {
    int changes = 0;
    UseIndex uses(fn);
    for (auto& blk : fn.blocks()) {
      std::unordered_map<ExprKey, ValueId, ExprKeyHash> seen;
      // Loads: (var, generation) so stores invalidate.
      std::unordered_map<std::uint32_t, std::uint32_t> varGen;
      std::unordered_map<std::uint64_t, ValueId> loadSeen;

      // Input-port reads are stable within an execution: dedup per block.
      std::unordered_map<std::uint32_t, ValueId> readSeen;

      std::vector<OpId> toRemove;
      for (OpId oid : blk.ops) {
        const Op& o = fn.op(oid);
        if (o.kind == OpKind::StoreVar) {
          ++varGen[o.var.get()];
          continue;
        }
        if (o.kind == OpKind::ReadPort) {
          auto [it, inserted] = readSeen.emplace(o.port.get(), o.result);
          if (!inserted) {
            uses.replace(o.result, it->second);
            toRemove.push_back(oid);
            ++changes;
          }
          continue;
        }
        if (o.kind == OpKind::LoadVar) {
          auto key = (std::uint64_t)o.var.get() << 32 | varGen[o.var.get()];
          auto [it, inserted] = loadSeen.emplace(key, o.result);
          if (!inserted) {
            uses.replace(o.result, it->second);
            toRemove.push_back(oid);
            ++changes;
          }
          continue;
        }
        if (!opIsPure(o.kind)) continue;

        ExprKey key{o.kind, o.imm, fn.value(o.result).width, {}};
        for (std::size_t a = 0; a < o.args.size(); ++a)
          key.args[a] = o.args[a].get();
        if (opIsCommutative(o.kind) && o.args.size() == 2 &&
            key.args[0] > key.args[1])
          std::swap(key.args[0], key.args[1]);
        auto [it, inserted] = seen.emplace(key, o.result);
        if (!inserted) {
          uses.replace(o.result, it->second);
          toRemove.push_back(oid);
          ++changes;
        }
      }
      fn.removeOps(blk.id, toRemove);
    }
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> createCsePass() { return std::make_unique<CsePass>(); }

}  // namespace mphls
