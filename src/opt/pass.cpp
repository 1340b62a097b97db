#include "opt/pass.h"

#include "ir/deps.h"
#include "ir/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mphls {

std::vector<PassStats> PassManager::run(Function& fn, int maxRounds) {
  obs::TraceSpan pipelineSpan("opt.pipeline", fn.name());
  std::vector<PassStats> stats(passes_.size());
  std::vector<double> seconds(passes_.size(), 0.0);
  for (std::size_t i = 0; i < passes_.size(); ++i)
    stats[i].pass = passes_[i]->name();

  for (int round = 0; round < maxRounds; ++round) {
    int total = 0;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      Function before("");
      if (observer_) before = fn.clone();
      int c;
      {
        obs::TraceSpan span("pass." + stats[i].pass, &seconds[i]);
        c = passes_[i]->run(fn);
      }
      {
        obs::TraceSpan span("opt.verify");
        verifyOrThrow(fn);
      }
      if (observer_) observer_(stats[i].pass, before, fn, c);
      stats[i].changes += c;
      if (c > 0) ++stats[i].iterations;
      total += c;
    }
    if (total == 0) break;
  }
  {
    obs::TraceSpan span("opt.compact");
    fn.compact();
  }
  {
    obs::TraceSpan span("opt.verify");
    verifyOrThrow(fn);
  }

  auto& mr = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    mr.counter("pass." + stats[i].pass + ".changes")
        .add((std::uint64_t)stats[i].changes);
    mr.histogram("pass." + stats[i].pass + ".seconds").observe(seconds[i]);
  }
  return stats;
}

PassManager PassManager::standardPipeline() {
  PassManager pm;
  pm.add(createForwardingPass())
      .add(createConstFoldPass())
      .add(createStrengthPass())
      .add(createAlgebraicPass())
      .add(createCsePass())
      .add(createDcePass());
  return pm;
}

PassManager PassManager::aggressivePipeline(int maxTrip) {
  PassManager pm;
  pm.add(createUnrollPass(maxTrip))
      .add(createForwardingPass())
      .add(createConstFoldPass())
      .add(createStrengthPass())
      .add(createAlgebraicPass())
      .add(createCsePass())
      .add(createTreeHeightPass())
      .add(createDcePass());
  return pm;
}

void optimize(Function& fn) {
  auto pm = PassManager::standardPipeline();
  pm.run(fn);
}

UseIndex::UseIndex(Function& fn)
    : fn_(fn), head_(fn.numValues(), -1), tail_(fn.numValues(), -1) {
  for (std::size_t i = 0; i < fn.numOps(); ++i) {
    const Op& o = fn.op(OpId(i));
    if (o.dead) continue;
    for (std::size_t a = 0; a < o.args.size(); ++a)
      add(o.args[a], (std::uint32_t)i, (std::uint32_t)a);
  }
  for (const Block& blk : fn.blocks())
    if (blk.term.kind == Terminator::Kind::Branch)
      add(blk.term.cond, blk.id.get(), kBranch);
}

void UseIndex::add(ValueId v, std::uint32_t user, std::uint32_t slot) {
  if (v.index() >= head_.size()) {
    head_.resize(v.index() + 1, -1);
    tail_.resize(v.index() + 1, -1);
  }
  const auto u = (std::int32_t)uses_.size();
  uses_.push_back({user, slot, -1});
  if (tail_[v.index()] < 0)
    head_[v.index()] = u;
  else
    uses_[(std::size_t)tail_[v.index()]].next = u;
  tail_[v.index()] = u;
}

void UseIndex::replace(ValueId from, ValueId to) {
  if (from == to || from.index() >= head_.size()) return;
  const std::int32_t first = head_[from.index()];
  if (first < 0) return;
  for (std::int32_t u = first; u >= 0; u = uses_[(std::size_t)u].next) {
    const Use& use = uses_[(std::size_t)u];
    if (use.slot == kBranch) {
      Terminator& t = fn_.block(BlockId(use.user)).term;
      if (t.kind == Terminator::Kind::Branch && t.cond == from) t.cond = to;
      continue;
    }
    Op& o = fn_.op(OpId(use.user));
    if (!o.dead && use.slot < o.args.size() && o.args[use.slot] == from)
      o.args[use.slot] = to;
  }
  // The moved entries now describe uses of `to`.
  if (to.index() >= head_.size()) {
    head_.resize(to.index() + 1, -1);
    tail_.resize(to.index() + 1, -1);
  }
  if (tail_[to.index()] < 0)
    head_[to.index()] = first;
  else
    uses_[(std::size_t)tail_[to.index()]].next = first;
  tail_[to.index()] = tail_[from.index()];
  head_[from.index()] = tail_[from.index()] = -1;
}

void UseIndex::setArg(OpId op, std::size_t slot, ValueId v) {
  fn_.op(op).args[slot] = v;
  add(v, op.get(), (std::uint32_t)slot);
}

void UseIndex::setArgs(OpId op, std::vector<ValueId> args) {
  Op& o = fn_.op(op);
  o.args = std::move(args);
  for (std::size_t a = 0; a < o.args.size(); ++a)
    add(o.args[a], op.get(), (std::uint32_t)a);
}

void StoreGuard::index(const Block& blk) {
  for (OpId id : placed_) pos_[id.index()] = 0;
  for (VarId v : stored_) lastStore_[v.index()] = 0;
  placed_.clear();
  stored_.clear();
  pos_.resize(fn_.numOps(), 0);
  lastStore_.resize(fn_.vars().size(), 0);
  for (std::size_t i = 0; i < blk.ops.size(); ++i) {
    const OpId id = blk.ops[i];
    pos_[id.index()] = (std::uint32_t)i + 1;
    placed_.push_back(id);
    const Op& o = fn_.op(id);
    if (o.kind != OpKind::StoreVar) continue;
    if (lastStore_[o.var.index()] == 0) stored_.push_back(o.var);
    lastStore_[o.var.index()] = id.get() + 1;
  }
  block_ = blk.id;
  indexedOps_ = fn_.numOps();
}

bool StoreGuard::wiringWouldOutliveStore(const Block& blk, ValueId v) {
  if (blk.id != block_ || fn_.numOps() != indexedOps_) index(blk);
  const Op& load = fn_.defOf(rootValue(fn_, v));
  if (load.kind != OpKind::LoadVar || load.dead) return false;
  const std::uint32_t loadPos = pos_[load.id.index()];
  if (loadPos == 0 || load.var.index() >= lastStore_.size()) return false;
  std::uint32_t last = lastStore_[load.var.index()];
  // The last store was removed since indexing: find the new last one.
  if (last != 0 && fn_.op(OpId(last - 1)).dead) {
    index(blk);
    last = lastStore_[load.var.index()];
  }
  return last != 0 && pos_[last - 1] > loadPos;
}

}  // namespace mphls
