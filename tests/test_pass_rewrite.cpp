// Equivalence of the indexed pass-rewrite primitives with the one-off
// Function methods they stand in for, on fuzz-generated functions:
//
//   UseIndex::replace   vs Function::replaceAllUses (chained rewrites,
//                       branch conditions, uses in removed ops)
//   Function::removeOps vs repeated Function::removeOp
//   StoreGuard          vs a whole-block rescan (the reference below), on
//                       every (block, value) pair, before and after ops are
//                       removed and inserted
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/bdl_gen.h"
#include "ir/deps.h"
#include "lang/frontend.h"
#include "opt/pass.h"

namespace mphls {
namespace {

/// Reference for StoreGuard: rescan the block for a store to the root
/// load's variable after the load.
bool wiringWouldOutliveStoreReference(const Function& fn, const Block& blk,
                                      ValueId v) {
  const Op& rdef = fn.defOf(rootValue(fn, v));
  if (rdef.kind != OpKind::LoadVar) return false;
  bool afterLoad = false;
  for (OpId oid : blk.ops) {
    if (oid == rdef.id) {
      afterLoad = true;
      continue;
    }
    const Op& o = fn.op(oid);
    if (afterLoad && o.kind == OpKind::StoreVar && o.var == rdef.var)
      return true;
  }
  return false;
}

/// Every field a rewrite can touch: each op's liveness, kind and
/// arguments (dead ops included), each block's op list and terminator.
std::string snapshot(const Function& fn) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < fn.numOps(); ++i) {
    const Op& o = fn.op(OpId(i));
    oss << i << (o.dead ? " dead " : " ") << opName(o.kind);
    for (ValueId a : o.args) oss << " v" << a.get();
    oss << "\n";
  }
  for (const Block& blk : fn.blocks()) {
    oss << blk.name << ":";
    for (OpId oid : blk.ops) oss << " " << oid.get();
    oss << " term " << (int)blk.term.kind;
    if (blk.term.kind == Terminator::Kind::Branch)
      oss << " v" << blk.term.cond.get();
    oss << "\n";
  }
  return oss.str();
}

Function generated(std::uint64_t seed) {
  return compileBdlOrThrow(fuzz::generateProgram(seed).render());
}

/// Values used as branch conditions.
std::vector<ValueId> branchConds(const Function& fn) {
  std::vector<ValueId> out;
  for (const Block& blk : fn.blocks())
    if (blk.term.kind == Terminator::Kind::Branch)
      out.push_back(blk.term.cond);
  return out;
}

TEST(PassRewrite, UseIndexReplaceMatchesReplaceAllUses) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Function ref = generated(seed);
    Function fn = ref.clone();
    ASSERT_GT(fn.numValues(), 2u);
    std::mt19937_64 rng(seed);
    auto pick = [&](std::size_t n) { return (std::size_t)(rng() % n); };
    const std::vector<ValueId> conds = branchConds(fn);

    // Remove a few ops first so some uses sit in dead ops.
    for (int k = 0; k < 3; ++k) {
      const Block& blk = fn.block(BlockId(pick(fn.numBlocks())));
      if (blk.ops.empty()) continue;
      const OpId victim = blk.ops[pick(blk.ops.size())];
      ref.removeOp(victim);
      fn.removeOp(victim);
    }

    UseIndex uses(fn);
    ValueId last = ValueId(pick(fn.numValues()));
    for (int step = 0; step < 60; ++step) {
      ValueId from;
      const std::size_t r = pick(10);
      if (r < 4) {
        from = last;  // chain: a -> b, then b -> c
      } else if (r < 6 && !conds.empty()) {
        from = conds[pick(conds.size())];
      } else {
        from = ValueId(pick(fn.numValues()));
      }
      const ValueId to = ValueId(pick(fn.numValues()));
      ref.replaceAllUses(from, to);
      uses.replace(from, to);
      last = to;
      if (step % 10 == 9) {
        // Remove an op mid-sequence: its uses must stay as they are.
        const Block& blk = fn.block(BlockId(pick(fn.numBlocks())));
        if (!blk.ops.empty()) {
          const OpId victim = blk.ops[pick(blk.ops.size())];
          ref.removeOp(victim);
          fn.removeOp(victim);
        }
      }
      ASSERT_EQ(snapshot(fn), snapshot(ref))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(PassRewrite, UseIndexFollowsSetArg) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Function ref = generated(seed);
    Function fn = ref.clone();
    std::mt19937_64 rng(seed * 7);
    auto pick = [&](std::size_t n) { return (std::size_t)(rng() % n); };
    UseIndex uses(fn);
    for (int step = 0; step < 40; ++step) {
      const OpId oid(pick(fn.numOps()));
      const ValueId v(pick(fn.numValues()));
      if (!fn.op(oid).args.empty() && step % 2 == 0) {
        const std::size_t slot = pick(fn.op(oid).args.size());
        ref.op(oid).args[slot] = v;
        uses.setArg(oid, slot, v);
      } else {
        std::vector<ValueId> args(pick(3), v);
        ref.op(oid).args = args;
        uses.setArgs(oid, args);
      }
      const ValueId from(pick(fn.numValues()));
      const ValueId to(pick(fn.numValues()));
      ref.replaceAllUses(v, to);
      uses.replace(v, to);
      ref.replaceAllUses(from, to);
      uses.replace(from, to);
      ASSERT_EQ(snapshot(fn), snapshot(ref))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(PassRewrite, RemoveOpsMatchesRepeatedRemoveOp) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Function ref = generated(seed);
    Function fn = ref.clone();
    std::mt19937_64 rng(seed * 13);
    for (const Block& blk : ref.blocks()) {
      std::vector<OpId> ids;
      for (OpId oid : blk.ops)
        if (rng() % 3 == 0) ids.push_back(oid);
      std::shuffle(ids.begin(), ids.end(), rng);
      if (!ids.empty() && rng() % 2) ids.push_back(ids.front());  // repeat
      for (OpId oid : ids) ref.removeOp(oid);
      fn.removeOps(blk.id, ids);
    }
    ASSERT_EQ(snapshot(fn), snapshot(ref)) << "seed " << seed;
  }
}

void expectGuardAgrees(const Function& fn, StoreGuard& guard,
                       const std::string& where) {
  for (const Block& blk : fn.blocks())
    for (std::size_t v = 0; v < fn.numValues(); ++v)
      ASSERT_EQ(guard.wiringWouldOutliveStore(blk, ValueId(v)),
                wiringWouldOutliveStoreReference(fn, blk, ValueId(v)))
          << where << " block " << blk.name << " value v" << v;
}

TEST(PassRewrite, StoreGuardMatchesBlockRescan) {
  int positives = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Function fn = generated(seed);
    std::mt19937_64 rng(seed * 31);
    auto pick = [&](std::size_t n) { return (std::size_t)(rng() % n); };
    StoreGuard guard(fn);
    const std::string tag = "seed " + std::to_string(seed);
    expectGuardAgrees(fn, guard, tag);
    for (const Block& blk : fn.blocks())
      for (std::size_t v = 0; v < fn.numValues(); ++v)
        positives += wiringWouldOutliveStoreReference(fn, blk, ValueId(v));

    for (int round = 0; round < 6; ++round) {
      const BlockId b(pick(fn.numBlocks()));
      std::vector<OpId>& ops = fn.block(b).ops;
      if (round % 3 == 0) {
        // Remove about half the block's stores (the last store of a
        // variable may be among them).
        std::vector<OpId> stores;
        for (OpId oid : ops)
          if (fn.op(oid).kind == OpKind::StoreVar && pick(2))
            stores.push_back(oid);
        fn.removeOps(b, stores);
      } else if (round % 3 == 1 && !ops.empty()) {
        // Remove a random load (queries root at it), else any op.
        std::vector<OpId> loads;
        for (OpId oid : ops)
          if (fn.op(oid).kind == OpKind::LoadVar) loads.push_back(oid);
        fn.removeOp(loads.empty() ? ops[pick(ops.size())]
                                  : loads[pick(loads.size())]);
      } else if (!fn.vars().empty() && !ops.empty()) {
        // Insert a store of an existing block value, or a load, at a
        // random position.
        const VarId var(pick(fn.vars().size()));
        const OpId anchor = ops[pick(ops.size())];
        const Op& a = fn.op(anchor);
        OpId made;
        if (a.result.valid() && fn.value(a.result).width == fn.var(var).width)
          made = fn.makeOp(b, OpKind::StoreVar, {a.result}, 0, 0, var);
        else
          made = fn.value(fn.emitLoad(b, var)).def;
        ops.pop_back();
        const auto at = std::find(ops.begin(), ops.end(), anchor) + 1;
        ops.insert(at + (std::ptrdiff_t)pick((std::size_t)(ops.end() - at) + 1),
                   made);
      }
      expectGuardAgrees(fn, guard, tag + " round " + std::to_string(round));
    }
  }
  EXPECT_GT(positives, 0) << "no (block, value) pair exercised the guard";
}

}  // namespace
}  // namespace mphls
