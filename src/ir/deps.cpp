#include "ir/deps.h"

#include <algorithm>

#include "common/key_map.h"

namespace mphls {

BlockDeps::BlockDeps(const Function& fn, const Block& block,
                     OpLatencyModel latencies)
    : fn_(&fn), latencies_(std::move(latencies)) {
  opIds_ = block.ops;
  n_ = opIds_.size();
  // Edges in insertion order; a repeated (from, to) pair is skipped to
  // keep degrees meaningful.
  KeySet edgeSeen;
  auto addEdge = [&](std::size_t from, std::size_t to, DepKind kind) {
    if (from == to ||
        !edgeSeen.emplace((std::uint64_t)from << 32 | to, 0).second)
      return;
    edges_.push_back({from, to, kind});
  };

  // Map each value defined in this block to its defining node index.
  KeyMap<std::size_t> defOf;
  for (std::size_t i = 0; i < n_; ++i) {
    const Op& o = fn.op(opIds_[i]);
    if (o.result.valid()) defOf.emplace(o.result.get(), i);
  }

  // Value (RAW-through-temp) edges.
  for (std::size_t i = 0; i < n_; ++i) {
    const Op& o = fn.op(opIds_[i]);
    for (ValueId a : o.args) {
      const std::size_t* def = defOf.find(a.get());
      MPHLS_CHECK(def != nullptr,
                  "value v" << a.get() << " used but not defined in block "
                            << block.name);
      addEdge(*def, i, DepKind::Data);
    }
  }

  // Variable ordering edges: walk in program order tracking last store and
  // the loads since that store, per variable.
  struct VarState {
    std::size_t lastStore = SIZE_MAX;
    std::vector<std::size_t> loadsSinceStore;
  };
  KeyMap<VarState> vs;
  for (std::size_t i = 0; i < n_; ++i) {
    const Op& o = fn.op(opIds_[i]);
    if (o.kind == OpKind::LoadVar) {
      auto& st = *vs.emplace(o.var.get(), {}).first;
      if (st.lastStore != SIZE_MAX) addEdge(st.lastStore, i, DepKind::VarRaw);
      st.loadsSinceStore.push_back(i);
    } else if (o.kind == OpKind::StoreVar) {
      auto& st = *vs.emplace(o.var.get(), {}).first;
      for (std::size_t ld : st.loadsSinceStore)
        addEdge(ld, i, DepKind::VarWar);
      if (st.lastStore != SIZE_MAX) addEdge(st.lastStore, i, DepKind::VarWaw);
      st.lastStore = i;
      st.loadsSinceStore.clear();
    }
  }

  // Port write ordering (two writes to the same port must stay ordered).
  KeyMap<std::size_t> lastWrite;
  for (std::size_t i = 0; i < n_; ++i) {
    const Op& o = fn.op(opIds_[i]);
    if (o.kind == OpKind::WritePort) {
      auto [last, fresh] = lastWrite.emplace(o.port.get(), i);
      if (!fresh) {
        addEdge(*last, i, DepKind::PortWaw);
        *last = i;
      }
    }
  }

  // Use-before-overwrite edges: a register's loaded value is only valid
  // until the next store to the same variable commits, so every operation
  // consuming a value *rooted* at a load must be scheduled no later than
  // that store (same step is fine: reads see the pre-clock value). Without
  // these edges a schedule could overwrite a register while a consumer
  // still needs the old value.
  {
    // Root load (node index) of each value defined in this block, walking
    // through free wiring ops; SIZE_MAX when not load-rooted.
    auto rootLoad = [&](ValueId v) -> std::size_t {
      const Op* def = &fn.defOf(v);
      while (kindFlowsFree(def->kind) && def->kind != OpKind::LoadVar &&
             !def->args.empty())
        def = &fn.defOf(def->args[0]);
      if (def->kind != OpKind::LoadVar) return SIZE_MAX;
      const std::size_t* ld = defOf.find(def->result.get());
      return ld == nullptr ? SIZE_MAX : *ld;
    };
    // A store that writes a load's value straight back into the same
    // variable (store v <- load v, nothing between) leaves the register
    // content unchanged, so it does not invalidate consumers of that load
    // — the invalidating store is the first *later* store of a different
    // value. Emitting an edge at the write-back store would contradict the
    // WAW chain through it and create a cycle (seen after `0 ^ v` folds to
    // the bare load and forwarding collapses a later reload into it); but
    // the edge must then move to the following store, not vanish, or a
    // consumer could be scheduled past a real overwrite. Only a bare Nop
    // chain preserves the value — casts and constant shifts are free for
    // scheduling but change the stored bits.
    auto storesLoadBack = [&](std::size_t st, std::size_t ld) {
      const Op* def = &fn.defOf(fn.op(opIds_[st]).args[0]);
      while (def->kind == OpKind::Nop && !def->args.empty())
        def = &fn.defOf(def->args[0]);
      return def->result.get() == fn.op(opIds_[ld]).result.get();
    };
    KeyMap<std::vector<std::size_t>> storesOfVar;
    for (std::size_t k = 0; k < n_; ++k) {
      const Op& o = fn.op(opIds_[k]);
      if (o.kind == OpKind::StoreVar)
        storesOfVar.emplace(o.var.get(), {}).first->push_back(k);
    }
    // First store after each load that actually changes the register.
    std::vector<std::size_t> invalidatingStoreOfLoad(n_, SIZE_MAX);
    for (std::size_t k = 0; k < n_; ++k) {
      const Op& o = fn.op(opIds_[k]);
      if (o.kind != OpKind::LoadVar) continue;
      const std::vector<std::size_t>* stores = storesOfVar.find(o.var.get());
      if (stores == nullptr) continue;
      for (std::size_t st : *stores) {
        if (st < k || storesLoadBack(st, k)) continue;
        invalidatingStoreOfLoad[k] = st;
        break;
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const Op& o = fn.op(opIds_[i]);
      for (ValueId a : o.args) {
        std::size_t ld = rootLoad(a);
        if (ld == SIZE_MAX) continue;
        std::size_t st = invalidatingStoreOfLoad[ld];
        if (st == SIZE_MAX || st == i) continue;
        addEdge(i, st, DepKind::VarWar);
      }
    }
  }

  // Compressed rows, each in edge insertion order.
  auto rows = [&](auto endOf, std::vector<std::size_t>& start,
                  std::vector<std::size_t>& adj, auto otherEnd) {
    start.assign(n_ + 1, 0);
    for (const DepEdge& e : edges_) ++start[endOf(e) + 1];
    for (std::size_t i = 0; i < n_; ++i) start[i + 1] += start[i];
    adj.resize(edges_.size());
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (const DepEdge& e : edges_) adj[fill[endOf(e)]++] = otherEnd(e);
  };
  rows([](const DepEdge& e) { return e.from; }, succStart_, succAdj_,
       [](const DepEdge& e) { return e.to; });
  rows([](const DepEdge& e) { return e.to; }, predStart_, predAdj_,
       [](const DepEdge& e) { return e.from; });
}

std::vector<std::size_t> BlockDeps::topoOrder() const {
  std::vector<std::size_t> indeg(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) indeg[i] = preds(i).size();
  std::vector<std::size_t> order;
  order.reserve(n_);
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n_; ++i)
    if (indeg[i] == 0) ready.push_back(i);
  // Prefer program order among ready nodes (stable, deterministic).
  std::size_t cursor = 0;
  while (cursor < ready.size()) {
    std::size_t i = ready[cursor++];
    order.push_back(i);
    for (std::size_t s : succs(i))
      if (--indeg[s] == 0) ready.push_back(s);
  }
  MPHLS_CHECK(order.size() == n_, "dependence graph has a cycle");
  return order;
}

ValueId rootValue(const Function& fn, ValueId v) {
  const Op* def = &fn.defOf(v);
  while (kindFlowsFree(def->kind) && !def->args.empty()) {
    v = def->args[0];
    def = &fn.defOf(v);
  }
  return v;
}

bool kindFlowsFree(OpKind k) {
  switch (k) {
    case OpKind::Const:
    case OpKind::ReadPort:
    case OpKind::LoadVar:
    case OpKind::Trunc:
    case OpKind::ZExt:
    case OpKind::SExt:
    case OpKind::ShlConst:
    case OpKind::ShrConst:
    case OpKind::SarConst:
    case OpKind::Nop:
      return true;
    default:
      return false;
  }
}

bool opOccupiesSlot(const Function& fn, const Op& o) {
  if (!o.isSink()) return !kindFlowsFree(o.kind);
  // A sink chains with the occupying op that (transitively) produces its
  // stored value; with none in-block it is a stand-alone data move.
  // Walk the value chain through free ops (casts, constant shifts).
  const Op* p = &fn.defOf(o.args[0]);
  while (kindFlowsFree(p->kind) && !p->args.empty())
    p = &fn.defOf(p->args[0]);
  return kindFlowsFree(p->kind);  // producer is const/read/load => move
}

bool BlockDeps::occupiesSlot(std::size_t i) const {
  if (occupiesCache_.empty()) occupiesCache_.assign(n_, -1);
  if (occupiesCache_[i] >= 0) return occupiesCache_[i] != 0;
  const bool result = opOccupiesSlot(*fn_, op(i));
  occupiesCache_[i] = result ? 1 : 0;
  return result;
}

bool BlockDeps::combinationalFromFu(std::size_t i) const {
  if (combFromFuCache_.empty()) combFromFuCache_.assign(n_, -1);
  if (combFromFuCache_[i] >= 0) return combFromFuCache_[i] != 0;

  const Op& o = op(i);
  bool result = false;
  if (kindFlowsFree(o.kind) && !o.args.empty()) {
    // Walk the producing chain: FU producer => combinational.
    const Op* p = &fn_->defOf(o.args[0]);
    while (kindFlowsFree(p->kind) && !p->args.empty())
      p = &fn_->defOf(p->args[0]);
    result = !kindFlowsFree(p->kind);
  }
  combFromFuCache_[i] = result ? 1 : 0;
  return result;
}

int BlockDeps::duration(std::size_t i) const {
  const Op& o = op(i);
  if (o.isSink() || kindFlowsFree(o.kind)) return 1;
  return latencies_.of(o.kind);
}

int BlockDeps::edgeLatency(const DepEdge& e) const {
  switch (e.kind) {
    case DepKind::Data: {
      // Free wiring ops are labeled with their root producer's ISSUE step;
      // edges into wiring therefore carry no latency, and the producer's
      // remaining execution time (delivery happens during its k-th step)
      // is applied when the value leaves the wiring chain.
      if (kindFlowsFree(op(e.to).kind)) return 0;

      int remainder = 0;  // steps from `from`'s label until delivery
      bool fromFu = false;
      if (kindFlowsFree(op(e.from).kind)) {
        if (combinationalFromFu(e.from)) {
          ValueId root = rootValue(*fn_, op(e.from).result);
          remainder = latencies_.of(fn_->defOf(root).kind) - 1;
          fromFu = true;
        }
      } else {
        remainder = latencies_.of(op(e.from).kind) - 1;
        fromFu = true;
      }
      if (op(e.to).isSink()) {
        // The sink latches at the delivery step (remainder steps later).
        return fromFu ? remainder : 0;
      }
      // A consuming functional unit issues the step after delivery; values
      // from registers/ports/constants are available immediately.
      return fromFu ? remainder + 1 : 0;
    }
    case DepKind::VarRaw:
    case DepKind::VarWaw:
    case DepKind::PortWaw:
      return 1;
    case DepKind::VarWar:
      return 0;
  }
  return 1;
}

bool BlockDeps::reaches(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  std::vector<bool> seen(n_, false);
  std::vector<std::size_t> stack{a};
  seen[a] = true;
  while (!stack.empty()) {
    std::size_t x = stack.back();
    stack.pop_back();
    for (std::size_t s : succs(x)) {
      if (s == b) return true;
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

}  // namespace mphls
