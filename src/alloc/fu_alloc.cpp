#include "alloc/fu_alloc.h"

#include <algorithm>
#include <array>
#include <limits>
#include <sstream>

#include "alloc/clique.h"
#include "common/bitutil.h"
#include "common/key_map.h"
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
  int srcId[2] = {-1, -1};  ///< interned src, -1 for a chained FU output
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

/// Mutable allocation state for the greedy methods. costOn is constant
/// time and allocation-free: unit kind sets are bitmasks, the cheapest
/// component per (kind mask, width) is memoized, busy steps are per-unit
/// bitmaps over global steps, and operand sources are interned to ints
/// once per op. The mux-leg questions ("does port p of unit f already
/// carry this source?", "does unit f already feed this register?") are
/// bit tests in unit bitsets that focus() builds once per op from the
/// unit lists of the op's sources and destination register.
struct GreedyState {
  static_assert((int)OpKind::Nop < 64, "kind masks need one bit per kind");

  /// cheapestForAll over a kind set at a width, with that component's area.
  struct Cheapest {
    CompId comp;
    double area = 0;
  };

  const HwLibrary& lib;
  std::vector<FuInstance> fus;
  std::vector<std::uint64_t> kindMask;  ///< per fu
  std::vector<double> area;             ///< per fu: its component's area
  std::size_t busyWords;                ///< bitmap words per fu
  std::vector<std::uint64_t> busy;      ///< fus x busyWords
  /// Per source id and port: the units whose port already carries it.
  std::vector<std::array<std::vector<std::uint32_t>, 2>> portUnits;
  /// Per register: the units already feeding it.
  std::vector<std::vector<std::uint32_t>> regUnits;
  KeySet placed;  ///< (unit, port, source) and (register, unit) in the lists
  mutable KeyMap<Cheapest> memo;
  /// focus()'s unit bitsets: [operand a][port p] at (2a + p), the
  /// destination register at 4; `viewWords` words each.
  std::vector<std::uint64_t> view;
  std::size_t viewWords = 0;

  GreedyState(const HwLibrary& l, int horizon, int sources, int registers)
      : lib(l),
        busyWords(((std::size_t)std::max(horizon, 0) + 63) / 64),
        portUnits((std::size_t)sources),
        regUnits((std::size_t)std::max(registers, 0)) {}

  static std::uint64_t bit(OpKind k) { return 1ULL << (unsigned)k; }

  [[nodiscard]] Cheapest cheapest(std::uint64_t mask, int width) const {
    static_assert(kMaxWidth < 128, "width needs at most 7 key bits");
    const std::uint64_t key = mask << 7 | (std::uint64_t)width;
    if (const Cheapest* hit = memo.find(key)) return *hit;
    std::vector<OpKind> kinds;
    for (int k = 0; k < 64; ++k)
      if (mask >> k & 1) kinds.push_back((OpKind)k);
    Cheapest c;
    c.comp = lib.cheapestForAll(kinds, width);
    if (c.comp.valid()) c.area = lib.component(c.comp).area(width);
    return *memo.emplace(key, c).first;
  }

  /// Mux-leg cost of adding one more distinct source to a port.
  [[nodiscard]] double legCost(int width) const {
    return lib.muxArea(2, width) ;  // one extra 2:1 leg
  }

  [[nodiscard]] bool isBusy(std::size_t f, int step) const {
    return busy[f * busyWords + (std::size_t)step / 64] >> (step % 64) & 1;
  }

  /// Build the unit bitsets costOn reads for `op`.
  void focus(const FuOp& op) {
    viewWords = (fus.size() + 63) / 64;
    view.assign(5 * viewWords, 0);
    auto mark = [&](int set, const std::vector<std::uint32_t>& units) {
      for (std::uint32_t f : units)
        view[(std::size_t)set * viewWords + f / 64] |= 1ULL << (f % 64);
    };
    for (int a = 0; a < op.numArgs; ++a)
      if (op.srcId[a] >= 0)
        for (int p = 0; p < 2; ++p)
          mark(2 * a + p, portUnits[(std::size_t)op.srcId[a]][(std::size_t)p]);
    if (op.destReg >= 0) mark(4, regUnits[(std::size_t)op.destReg]);
  }

  [[nodiscard]] bool inView(int set, std::size_t f) const {
    return view[(std::size_t)set * viewWords + f / 64] >> (f % 64) & 1;
  }

  /// Cost of putting the focused `op` on existing unit `f` (swapped or
  /// not); returns +inf when incompatible or busy.
  [[nodiscard]] double costOn(const FuOp& op, std::size_t f,
                              bool swapped) const {
    for (int s = op.globalStep; s < op.globalStep + op.cycles; ++s)
      if (isBusy(f, s)) return std::numeric_limits<double>::infinity();
    // A unit that already covers op's kind and width keeps its component:
    // the area term is exactly 0.
    double cost = 0;
    if (!(kindMask[f] & bit(op.kind)) || op.width > fus[f].width) {
      const Cheapest c = cheapest(kindMask[f] | bit(op.kind),
                                  std::max(fus[f].width, op.width));
      if (!c.comp.valid()) return std::numeric_limits<double>::infinity();
      cost = c.area - area[f];
    }
    for (int p = 0; p < op.numArgs; ++p) {
      const int a = (swapped && op.numArgs == 2) ? 1 - p : p;
      if (op.srcId[a] < 0) continue;  // chained wire, not muxed
      if (!inView(2 * a + p, f)) cost += legCost(op.width);
    }
    if (op.destReg >= 0 && !inView(4, f)) cost += legCost(op.width);
    return cost;
  }

  [[nodiscard]] double costNew(const FuOp& op) const {
    // cheapestFor(k, w) is cheapestForAll({k}, w).
    const Cheapest c = cheapest(bit(op.kind), op.width);
    if (!c.comp.valid()) return std::numeric_limits<double>::infinity();
    // New unit: full component area + one mux-free connection per port.
    return c.area;
  }

  void place(const FuOp& op, int f, bool swapped) {
    if (f < 0) {
      FuInstance fu;
      fu.kinds = {op.kind};
      fu.width = op.width;
      const Cheapest c = cheapest(bit(op.kind), op.width);
      fu.comp = c.comp;
      MPHLS_CHECK(fu.comp.valid(), "no component for " << opName(op.kind));
      fus.push_back(fu);
      kindMask.push_back(bit(op.kind));
      area.push_back(c.area);
      busy.resize(busy.size() + busyWords, 0);
      f = (int)fus.size() - 1;
    } else {
      FuInstance& fu = fus[(std::size_t)f];
      if (!fu.performs(op.kind)) fu.kinds.push_back(op.kind);
      kindMask[(std::size_t)f] |= bit(op.kind);
      fu.width = std::max(fu.width, op.width);
      const Cheapest c = cheapest(kindMask[(std::size_t)f], fu.width);
      fu.comp = c.comp;
      MPHLS_CHECK(fu.comp.valid(), "no component covers unit kinds");
      area[(std::size_t)f] = c.area;
    }
    for (int s = op.globalStep; s < op.globalStep + op.cycles; ++s)
      busy[(std::size_t)f * busyWords + (std::size_t)s / 64] |=
          1ULL << (s % 64);
    const auto unit = (std::uint32_t)f;
    for (int p = 0; p < op.numArgs; ++p) {
      const int src = op.srcId[(swapped && op.numArgs == 2) ? 1 - p : p];
      if (src >= 0 &&
          placed.emplace((std::uint64_t)unit << 34 | (std::uint64_t)p << 32 |
                             (std::uint32_t)src, 1)
              .second)
        portUnits[(std::size_t)src][(std::size_t)p].push_back(unit);
    }
    // Register keys carry bit 33 set, which no (unit, port 0/1, source)
    // key has, so both kinds share one set.
    if (op.destReg >= 0 &&
        placed.emplace((std::uint64_t)unit << 34 | 1ULL << 33 |
                           (std::uint32_t)op.destReg, 1)
            .second)
      regUnits[(std::size_t)op.destReg].push_back(unit);
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
  SourceIds ids;
  int horizon = 0;
  for (FuOp& op : ops) {
    for (int p = 0; p < op.numArgs; ++p)
      op.srcId[p] =
          op.src[p].kind == Source::Kind::Fu ? -1 : ids.of(op.src[p]);
    horizon = std::max(horizon, op.globalStep + op.cycles);
  }
  GreedyState st(lib, horizon, ids.size(), regs.numRegs);
  std::vector<int> fuOf(ops.size(), -1);
  std::vector<bool> swapped(ops.size(), false);

  auto bestPlacement = [&](std::size_t k, double& bestCost, int& bestFu,
                           bool& bestSwap) {
    const FuOp& op = ops[k];
    st.focus(op);
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
        st.focus(op);
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

}  // namespace mphls
