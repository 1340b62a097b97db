#include "alloc/fu_alloc.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "alloc/clique.h"
#include "ir/deps.h"
#include "obs/trace.h"

namespace mphls {

std::string Source::str() const {
  std::ostringstream oss;
  switch (kind) {
    case Kind::Reg: oss << "r" << id; break;
    case Kind::Port: oss << "p" << id; break;
    case Kind::Const: oss << "#" << imm; break;
    case Kind::Fu: oss << "fu" << id; break;
  }
  for (const WireXform& x : xform) {
    oss << ":" << opName(x.kind);
    if (x.kind == OpKind::ShlConst || x.kind == OpKind::ShrConst ||
        x.kind == OpKind::SarConst)
      oss << x.imm;
    oss << "w" << x.width;
  }
  return oss.str();
}

Source buildSource(const Function& fn, const LifetimeInfo& lifetimes,
                   const RegAssignment& regs, ValueId v) {
  // Collect the free wiring chain consumer-to-root, then reverse it.
  std::vector<WireXform> chain;
  ValueId cur = v;
  const Op* def = &fn.defOf(cur);
  while (kindFlowsFree(def->kind) && !def->args.empty()) {
    chain.push_back({def->kind, def->imm, fn.value(cur).width});
    cur = def->args[0];
    def = &fn.defOf(cur);
  }
  std::reverse(chain.begin(), chain.end());

  Source s;
  s.xform = std::move(chain);
  s.rootWidth = fn.value(cur).width;
  switch (def->kind) {
    case OpKind::Const:
      s.kind = Source::Kind::Const;
      s.imm = def->imm;
      break;
    case OpKind::ReadPort:
      s.kind = Source::Kind::Port;
      s.id = (int)def->port.get();
      break;
    case OpKind::LoadVar: {
      int item = lifetimes.itemOfVar[def->var.index()];
      MPHLS_CHECK(item >= 0, "load of never-stored variable "
                                 << fn.var(def->var).name);
      s.kind = Source::Kind::Reg;
      s.id = regs.regOfItem[(std::size_t)item];
      break;
    }
    default: {
      int item = lifetimes.itemOfValue[cur.index()];
      if (item >= 0 && regs.regOfItem[(std::size_t)item] >= 0) {
        s.kind = Source::Kind::Reg;
        s.id = regs.regOfItem[(std::size_t)item];
      } else {
        // Same-step chained FU output; id resolved by the caller via the
        // binding (the root value id is parked in imm meanwhile).
        s.kind = Source::Kind::Fu;
        s.id = -1;
        s.imm = (std::int64_t)cur.get();
      }
      break;
    }
  }
  return s;
}

Source operandSource(const Function& fn, const LifetimeInfo& lifetimes,
                     const RegAssignment& regs, BlockId block,
                     std::size_t opIndex, std::size_t argIndex) {
  const Block& blk = fn.block(block);
  const Op& o = fn.op(blk.ops[opIndex]);
  return buildSource(fn, lifetimes, regs, o.args[argIndex]);
}

namespace {

/// One occupying operation that needs a functional unit.
struct FuOp {
  BlockId block;
  std::size_t index;   ///< index in Block::ops
  OpKind kind;
  int width;
  int globalStep;
  int cycles;          ///< execution span in steps
  Source src[2];
  int numArgs;
  int destReg;  ///< register receiving the result, or -1
};

/// Collect every op that needs a real FU (moves excluded: they need a path,
/// not an operator).
std::vector<FuOp> collectFuOps(const Function& fn, const Schedule& sched,
                               const LifetimeInfo& lt,
                               const RegAssignment& regs,
                               const OpLatencyModel& latencies) {
  std::vector<FuOp> out;
  for (const auto& blk : fn.blocks()) {
    BlockDeps deps(fn, blk);
    const BlockSchedule& bs = sched.of(blk.id);
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      FuClass c = scheduleClassOf(deps, i);
      if (c == FuClass::None || c == FuClass::Move) continue;
      const Op& o = fn.op(blk.ops[i]);
      FuOp fo;
      fo.block = blk.id;
      fo.index = i;
      fo.kind = o.kind;
      fo.width = o.result.valid() ? fn.value(o.result).width : 1;
      for (ValueId a : o.args)
        fo.width = std::max(fo.width, fn.value(a).width);
      fo.globalStep = lt.blockBase[blk.id.index()] + bs.step[i];
      fo.cycles = latencies.of(o.kind);
      fo.numArgs = std::min<int>((int)o.args.size(), 2);
      for (int p = 0; p < fo.numArgs; ++p)
        fo.src[p] = operandSource(fn, lt, regs, blk.id, i, (std::size_t)p);
      // Select ops have 3 args; treat (cond, a, b) with cond on port 0 and
      // the data legs muxed on ports 0/1 is not representable with 2 ports,
      // so widen: use src[0]=cond-ignored, src[0]=a, src[1]=b for muxing
      // purposes (the condition is a 1-bit control-like input).
      if (o.kind == OpKind::Select && o.args.size() == 3) {
        fo.src[0] = operandSource(fn, lt, regs, blk.id, i, 1);
        fo.src[1] = operandSource(fn, lt, regs, blk.id, i, 2);
        fo.numArgs = 2;
      }
      int item = o.result.valid() ? lt.itemOfValue[o.result.index()] : -1;
      fo.destReg = item >= 0 ? regs.regOfItem[(std::size_t)item] : -1;
      out.push_back(fo);
    }
  }
  // Control-step order ("from earliest time step to latest", Fig. 6).
  std::stable_sort(out.begin(), out.end(),
                   [](const FuOp& a, const FuOp& b) {
                     return a.globalStep < b.globalStep;
                   });
  return out;
}

/// Mutable allocation state for the greedy methods.
struct GreedyState {
  const HwLibrary& lib;
  std::vector<FuInstance> fus;
  std::vector<std::set<int>> busySteps;          // per fu
  std::vector<std::array<std::set<Source>, 2>> portSources;  // per fu
  std::map<int, std::set<int>> regSourceFus;     // reg -> feeding fus

  explicit GreedyState(const HwLibrary& l) : lib(l) {}

  /// Mux-leg cost of adding one more distinct source to a port.
  [[nodiscard]] double legCost(int width) const {
    return lib.muxArea(2, width) ;  // one extra 2:1 leg
  }

  /// Cost of putting `op` on existing unit `f` (swapped or not); returns
  /// +inf when incompatible or busy.
  [[nodiscard]] double costOn(const FuOp& op, std::size_t f,
                              bool swapped) const {
    const FuInstance& fu = fus[f];
    for (int s = op.globalStep; s < op.globalStep + op.cycles; ++s)
      if (busySteps[f].count(s))
        return std::numeric_limits<double>::infinity();
    std::vector<OpKind> kinds = fu.kinds;
    if (!fu.performs(op.kind)) kinds.push_back(op.kind);
    int width = std::max(fu.width, op.width);
    CompId comp = lib.cheapestForAll(kinds, width);
    if (!comp.valid()) return std::numeric_limits<double>::infinity();

    double cost =
        lib.component(comp).area(width) - lib.component(fu.comp).area(fu.width);
    for (int p = 0; p < op.numArgs; ++p) {
      const Source& s = op.src[(swapped && op.numArgs == 2) ? 1 - p : p];
      if (s.kind == Source::Kind::Fu) continue;  // chained wire, not muxed
      if (!portSources[f][(std::size_t)p].count(s)) cost += legCost(op.width);
    }
    if (op.destReg >= 0) {
      auto it = regSourceFus.find(op.destReg);
      if (it == regSourceFus.end() || !it->second.count((int)f))
        cost += legCost(op.width);
    }
    return cost;
  }

  [[nodiscard]] double costNew(const FuOp& op) const {
    CompId comp = lib.cheapestFor(op.kind, op.width);
    if (!comp.valid()) return std::numeric_limits<double>::infinity();
    // New unit: full component area + one mux-free connection per port.
    return lib.component(comp).area(op.width);
  }

  void place(const FuOp& op, int f, bool swapped) {
    if (f < 0) {
      FuInstance fu;
      fu.kinds = {op.kind};
      fu.width = op.width;
      fu.comp = lib.cheapestFor(op.kind, op.width);
      MPHLS_CHECK(fu.comp.valid(), "no component for " << opName(op.kind));
      fus.push_back(fu);
      busySteps.emplace_back();
      portSources.emplace_back();
      f = (int)fus.size() - 1;
    } else {
      FuInstance& fu = fus[(std::size_t)f];
      if (!fu.performs(op.kind)) fu.kinds.push_back(op.kind);
      fu.width = std::max(fu.width, op.width);
      fu.comp = lib.cheapestForAll(fu.kinds, fu.width);
      MPHLS_CHECK(fu.comp.valid(), "no component covers unit kinds");
    }
    for (int s = op.globalStep; s < op.globalStep + op.cycles; ++s)
      busySteps[(std::size_t)f].insert(s);
    for (int p = 0; p < op.numArgs; ++p) {
      const Source& s = op.src[(swapped && op.numArgs == 2) ? 1 - p : p];
      if (s.kind != Source::Kind::Fu)
        portSources[(std::size_t)f][(std::size_t)p].insert(s);
    }
    if (op.destReg >= 0) regSourceFus[op.destReg].insert(f);
  }
};

FuBinding finishBinding(const Function& fn, const std::vector<FuOp>& ops,
                        const std::vector<int>& fuOf,
                        const std::vector<bool>& swapped,
                        std::vector<FuInstance> fus) {
  FuBinding out;
  out.fus = std::move(fus);
  out.fuOfOp.resize(fn.numBlocks());
  out.swappedOfOp.resize(fn.numBlocks());
  for (const auto& blk : fn.blocks()) {
    out.fuOfOp[blk.id.index()].assign(blk.ops.size(), -1);
    out.swappedOfOp[blk.id.index()].assign(blk.ops.size(), false);
  }
  for (std::size_t k = 0; k < ops.size(); ++k) {
    out.fuOfOp[ops[k].block.index()][ops[k].index] = fuOf[k];
    out.swappedOfOp[ops[k].block.index()][ops[k].index] = swapped[k];
  }
  return out;
}

FuBinding greedy(const Function& fn, const Schedule& sched,
                 const LifetimeInfo& lt, const RegAssignment& regs,
                 const HwLibrary& lib, FuAllocMethod method,
                 const OpLatencyModel& latencies) {
  auto ops = collectFuOps(fn, sched, lt, regs, latencies);
  GreedyState st(lib);
  std::vector<int> fuOf(ops.size(), -1);
  std::vector<bool> swapped(ops.size(), false);

  auto bestPlacement = [&](std::size_t k, double& bestCost, int& bestFu,
                           bool& bestSwap) {
    const FuOp& op = ops[k];
    bestCost = st.costNew(op);
    bestFu = -1;
    bestSwap = false;
    for (std::size_t f = 0; f < st.fus.size(); ++f) {
      for (int sw = 0; sw < (opIsCommutative(op.kind) ? 2 : 1); ++sw) {
        double c = st.costOn(op, f, sw != 0);
        if (c < bestCost) {
          bestCost = c;
          bestFu = (int)f;
          bestSwap = sw != 0;
        }
      }
    }
  };

  if (method == FuAllocMethod::GreedyGlobal) {
    std::vector<bool> done(ops.size(), false);
    for (std::size_t n = 0; n < ops.size(); ++n) {
      double globalBest = std::numeric_limits<double>::infinity();
      std::size_t pick = 0;
      int pickFu = -1;
      bool pickSwap = false;
      for (std::size_t k = 0; k < ops.size(); ++k) {
        if (done[k]) continue;
        double c;
        int f;
        bool sw;
        bestPlacement(k, c, f, sw);
        if (c < globalBest) {
          globalBest = c;
          pick = k;
          pickFu = f;
          pickSwap = sw;
        }
      }
      st.place(ops[pick], pickFu, pickSwap);
      fuOf[pick] = pickFu < 0 ? (int)st.fus.size() - 1 : pickFu;
      swapped[pick] = pickSwap;
      done[pick] = true;
    }
  } else {
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const FuOp& op = ops[k];
      int chosen = -1;
      bool sw = false;
      if (method == FuAllocMethod::InterconnectBlind) {
        // First idle compatible unit, no cost comparison.
        for (std::size_t f = 0; f < st.fus.size(); ++f) {
          if (st.costOn(op, f, false) <
              std::numeric_limits<double>::infinity()) {
            chosen = (int)f;
            break;
          }
        }
      } else {
        double c;
        bestPlacement(k, c, chosen, sw);
      }
      st.place(op, chosen, sw);
      fuOf[k] = chosen < 0 ? (int)st.fus.size() - 1 : chosen;
      swapped[k] = sw;
    }
  }
  return finishBinding(fn, ops, fuOf, swapped, std::move(st.fus));
}

FuBinding byClique(const Function& fn, const Schedule& sched,
                   const LifetimeInfo& lt, const RegAssignment& regs,
                   const HwLibrary& lib, const OpLatencyModel& latencies) {
  auto ops = collectFuOps(fn, sched, lt, regs, latencies);
  CompatGraph g(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      // Overlapping execution spans cannot share a unit.
      bool overlap = ops[i].globalStep < ops[j].globalStep + ops[j].cycles &&
                     ops[j].globalStep < ops[i].globalStep + ops[i].cycles;
      if (overlap) continue;
      int w = std::max(ops[i].width, ops[j].width);
      if (lib.cheapestForAll({ops[i].kind, ops[j].kind}, w).valid())
        g.addEdge(i, j);
    }
  }
  CliqueCover cover;
  {
    obs::TraceSpan span("alloc.clique", [&] { return compatSizeArg(g); });
    cover = cliquePartition(g);
  }

  std::vector<FuInstance> fus(cover.count);
  std::vector<int> fuOf(ops.size(), -1);
  std::vector<bool> swapped(ops.size(), false);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    std::size_t c = cover.group[k];
    FuInstance& fu = fus[c];
    if (!fu.performs(ops[k].kind)) fu.kinds.push_back(ops[k].kind);
    fu.width = std::max(fu.width, ops[k].width);
    fuOf[k] = (int)c;
  }
  for (auto& fu : fus) {
    fu.comp = lib.cheapestForAll(fu.kinds, fu.width);
    MPHLS_CHECK(fu.comp.valid(), "clique merged incompatible kinds");
  }
  return finishBinding(fn, ops, fuOf, swapped, std::move(fus));
}

}  // namespace

FuBinding allocateFus(const Function& fn, const Schedule& sched,
                      const LifetimeInfo& lt, const RegAssignment& regs,
                      const HwLibrary& lib, FuAllocMethod method,
                      const OpLatencyModel& latencies) {
  if (method == FuAllocMethod::Clique)
    return byClique(fn, sched, lt, regs, lib, latencies);
  return greedy(fn, sched, lt, regs, lib, method, latencies);
}

std::string validateFuBinding(const Function& fn, const Schedule& sched,
                              const FuBinding& binding, const HwLibrary& lib,
                              const OpLatencyModel& latencies) {
  std::ostringstream err;
  for (const auto& blk : fn.blocks()) {
    BlockDeps deps(fn, blk);
    const BlockSchedule& bs = sched.of(blk.id);
    std::map<std::pair<int, int>, int> unitBusy;  // (fu, step) -> op count
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      FuClass c = scheduleClassOf(deps, i);
      int f = binding.fuOfOp[blk.id.index()][i];
      if (c == FuClass::None || c == FuClass::Move) {
        if (f >= 0) {
          err << "non-FU op bound to a unit in " << blk.name;
          return err.str();
        }
        continue;
      }
      if (f < 0 || f >= binding.numFus()) {
        err << "op " << i << " in " << blk.name << " has no unit";
        return err.str();
      }
      const FuInstance& fu = binding.fus[(std::size_t)f];
      const Op& o = fn.op(blk.ops[i]);
      if (!fu.performs(o.kind)) {
        err << "unit " << f << " does not perform " << opName(o.kind);
        return err.str();
      }
      if (!lib.component(fu.comp).supports(o.kind)) {
        err << "component of unit " << f << " does not support "
            << opName(o.kind);
        return err.str();
      }
      for (int span = 0; span < latencies.of(o.kind); ++span) {
        if (++unitBusy[{f, bs.step[i] + span}] > 1) {
          err << "unit " << f << " double-booked at step "
              << bs.step[i] + span << " of " << blk.name;
          return err.str();
        }
      }
    }
  }
  return {};
}

}  // namespace mphls
