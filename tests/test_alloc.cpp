// Tests for data-path allocation: lifetimes, register allocation (left
// edge / clique / naive), clique partitioning itself, functional-unit
// allocation (greedy local/global, interconnect-blind, clique) and
// interconnect (mux and bus) construction. Includes the paper's worked
// examples:
//   - Fig. 6: interconnect-aware greedy allocation beats the blind
//     assignment in multiplexing cost;
//   - Fig. 7: the clique formulation shares one adder among the three
//     compatible operations.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "alloc/clique.h"
#include "alloc/fu_alloc.h"
#include "alloc/interconnect.h"
#include "alloc/lifetime.h"
#include "alloc/reg_alloc.h"
#include "core/options.h"
#include "core/synthesizer.h"
#include "fuzz/bdl_gen.h"
#include "lang/frontend.h"
#include "sched/list_sched.h"
#include "sched/sched_util.h"

namespace mphls {
namespace {

const char* kSqrtSrc = R"(
  proc sqrt(in x: uint<16>, out y: uint<16>) {
    var i: uint<2>;
    y = trunc<16>((zext<32>(x) * 3641) >> 12) + 910;
    i = 0;
    do {
      y = (y + trunc<16>((zext<32>(x) << 12) / zext<32>(y))) >> 1;
      i = i + 1;
    } until (i == 0);
  }
)";

struct Flow {
  Function fn;
  Schedule sched;
  LifetimeInfo lt;
  RegAssignment regs;

  explicit Flow(const char* src, int fuCount = 2)
      : fn(compileBdlOrThrow(src)),
        sched(scheduleFunction(fn, [&](const BlockDeps& d) {
          return listSchedule(d, ResourceLimits::universalSet(fuCount),
                              ListPriority::PathLength);
        })),
        lt(computeLifetimes(fn, sched)),
        regs(allocateRegisters(lt)) {}
};

// ----------------------------------------------------------------- lifetime

TEST(Lifetime, RootLooksThroughFreeOps) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, out y: uint<16>) { y = zext<16>(a >> 2) + 1; }");
  // Find the add's first operand; its root must be the ReadPort.
  for (const auto& blk : fn.blocks())
    for (OpId oid : blk.ops) {
      const Op& o = fn.op(oid);
      if (o.kind == OpKind::Add || o.kind == OpKind::Inc) {
        ValueId root = rootValue(fn, o.args[0]);
        EXPECT_EQ(fn.defOf(root).kind, OpKind::ReadPort);
        return;
      }
    }
  FAIL() << "no add found";
}

TEST(Lifetime, TempCrossingStepGetsItem) {
  Flow flow(
      "proc f(in a: uint<8>, in b: uint<8>, out y: uint<8>) {"
      "  y = a * b + b * (a + 1);"  // products cross a step with 1 FU
      "}",
      /*fuCount=*/1);
  EXPECT_GT(flow.lt.items.size(), 0u);
  bool sawTemp = false;
  for (const auto& it : flow.lt.items)
    if (it.kind == StorageItem::Kind::Temp) sawTemp = true;
  EXPECT_TRUE(sawTemp);
}

TEST(Lifetime, SameStepValueNeedsNoRegister) {
  Flow flow(
      "proc f(in a: uint<8>, out y: uint<8>) { y = a + 1; }");
  // The inc result is written in the same step; no temp item needed.
  for (const auto& it : flow.lt.items)
    EXPECT_NE(it.kind, StorageItem::Kind::Temp);
}

TEST(Lifetime, LoopVariableSpansLoop) {
  Flow flow(kSqrtSrc);
  int iItem = -1;
  for (std::size_t k = 0; k < flow.lt.items.size(); ++k)
    if (flow.lt.items[k].name == "i") iItem = (int)k;
  ASSERT_GE(iItem, 0);
  // i is loop-carried: it must span the whole body block.
  BlockId body = flow.fn.findBlock("do_body_0");
  int base = flow.lt.blockBase[body.index()];
  int len = flow.sched.of(body).numSteps;
  EXPECT_LE(flow.lt.items[(std::size_t)iItem].live.birth, base);
  EXPECT_GE(flow.lt.items[(std::size_t)iItem].live.death, base + len);
}

TEST(Lifetime, MaxOverlapIsPositiveOnSqrt) {
  Flow flow(kSqrtSrc);
  EXPECT_GE(flow.lt.maxOverlap(), 2);  // x is not stored; y and i are live
}

// ----------------------------------------------------------------- cliques

TEST(Clique, GreedyCoversTriangle) {
  CompatGraph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(0, 2);
  auto cover = cliquePartition(g);
  EXPECT_EQ(cover.count, 1u);
  EXPECT_TRUE(coverIsValid(g, cover));
}

TEST(Clique, DisconnectedNodesGetOwnCliques) {
  CompatGraph g(4);  // no edges
  auto cover = cliquePartition(g);
  EXPECT_EQ(cover.count, 4u);
}

TEST(Clique, GreedyMatchesExactOnSmallGraphs) {
  // Pentagon (5-cycle): chromatic-style cover needs 3 cliques.
  CompatGraph g(5);
  for (int i = 0; i < 5; ++i) g.addEdge((std::size_t)i, (std::size_t)((i + 1) % 5));
  auto exact = cliquePartitionExact(g);
  EXPECT_EQ(exact.count, 3u);
  auto greedy = cliquePartition(g);
  EXPECT_TRUE(coverIsValid(g, greedy));
  EXPECT_GE(greedy.count, exact.count);
}

TEST(Clique, CoverValidityDetectsBrokenCover) {
  CompatGraph g(2);  // 0 and 1 incompatible
  CliqueCover bad;
  bad.group = {0, 0};
  bad.count = 1;
  EXPECT_FALSE(coverIsValid(g, bad));

  // A group id at or past `count` is rejected before cliques() could
  // index out of bounds with it.
  CliqueCover outOfRange;
  outOfRange.group = {0, 1};
  outOfRange.count = 1;
  EXPECT_FALSE(coverIsValid(g, outOfRange));
  outOfRange.count = 2;
  EXPECT_TRUE(coverIsValid(g, outOfRange));
}

// ------------------------------------------------------------ register alloc

TEST(RegAlloc, LeftEdgeAchievesMaxOverlap) {
  Flow flow(kSqrtSrc);
  auto regs = allocateRegisters(flow.lt, RegAllocMethod::LeftEdge);
  EXPECT_EQ(validateRegAssignment(flow.lt, regs), "");
  // Left edge is optimal for interval graphs.
  EXPECT_EQ(regs.numRegs, flow.lt.maxOverlap());
}

TEST(RegAlloc, CliqueMatchesLeftEdgeOnSqrt) {
  Flow flow(kSqrtSrc);
  auto le = allocateRegisters(flow.lt, RegAllocMethod::LeftEdge);
  auto cq = allocateRegisters(flow.lt, RegAllocMethod::Clique);
  EXPECT_EQ(validateRegAssignment(flow.lt, cq), "");
  EXPECT_EQ(cq.numRegs, le.numRegs);
}

TEST(RegAlloc, NaiveUsesOneRegisterPerItem) {
  Flow flow(kSqrtSrc);
  auto na = allocateRegisters(flow.lt, RegAllocMethod::Naive);
  EXPECT_EQ(validateRegAssignment(flow.lt, na), "");
  int nonEmpty = 0;
  for (const auto& it : flow.lt.items)
    if (!it.live.empty()) ++nonEmpty;
  EXPECT_EQ(na.numRegs, nonEmpty);
  auto le = allocateRegisters(flow.lt, RegAllocMethod::LeftEdge);
  EXPECT_LE(le.numRegs, na.numRegs);
}

TEST(RegAlloc, WidthsCoverItems) {
  Flow flow(kSqrtSrc);
  auto regs = allocateRegisters(flow.lt);
  for (std::size_t i = 0; i < flow.lt.items.size(); ++i) {
    int r = regs.regOfItem[i];
    if (r < 0) continue;
    EXPECT_GE(regs.regWidth[(std::size_t)r], flow.lt.items[i].width);
  }
}

// --------------------------------------------------------------- FU alloc

/// Fig. 6-style fixture: two adders' worth of parallelism where source
/// reuse matters. Step 0: a1 = va+vb, a1b = vc+vd. Step 1: a2 = vc+vd,
/// a3 = va+vb. Interconnect-aware allocation puts a2 on the unit already
/// fed by vc/vd (zero new mux legs); the blind first-idle rule crosses
/// the sources and pays four extra legs.
Function buildFig6() {
  Function fn("fig6");
  BlockId b = fn.addBlock("entry");
  PortId pa = fn.addInput("a", 8);
  PortId pb = fn.addInput("b", 8);
  PortId pc = fn.addInput("c", 8);
  PortId pd = fn.addInput("d", 8);
  ValueId va = fn.emitRead(b, pa);
  ValueId vb = fn.emitRead(b, pb);
  ValueId vc = fn.emitRead(b, pc);
  ValueId vd = fn.emitRead(b, pd);
  ValueId a1 = fn.emitBinary(b, OpKind::Add, va, vb);
  ValueId a1b = fn.emitBinary(b, OpKind::Add, vc, vd);
  // Force step separation through variables written by step-0 ops.
  VarId t1 = fn.addVar("t1", 8);
  VarId t2 = fn.addVar("t2", 8);
  fn.emitStore(b, t1, a1);
  fn.emitStore(b, t2, a1b);
  ValueId l1 = fn.emitLoad(b, t1);
  ValueId l2 = fn.emitLoad(b, t2);
  ValueId a2 = fn.emitBinary(b, OpKind::Add, vc, vd);
  ValueId a3 = fn.emitBinary(b, OpKind::Add, va, vb);
  PortId q0 = fn.addOutput("q0", 8);
  PortId q1 = fn.addOutput("q1", 8);
  ValueId s1 = fn.emitBinary(b, OpKind::Xor, a2, l1);
  ValueId s2 = fn.emitBinary(b, OpKind::Xor, a3, l2);
  fn.emitWrite(b, q0, s1);
  fn.emitWrite(b, q1, s2);
  fn.setReturn(b);
  return fn;
}

struct RawFlow {
  Function fn;
  Schedule sched;
  LifetimeInfo lt;
  RegAssignment regs;
  HwLibrary lib = HwLibrary::defaultLibrary();

  explicit RawFlow(Function f, const ResourceLimits& limits)
      : fn(std::move(f)),
        sched(scheduleFunction(fn, [&](const BlockDeps& d) {
          return listSchedule(d, limits, ListPriority::PathLength);
        })),
        lt(computeLifetimes(fn, sched)),
        regs(allocateRegisters(lt)) {}

  [[nodiscard]] FuBinding alloc(FuAllocMethod m) const {
    return allocateFus(fn, sched, lt, regs, lib, m);
  }
  [[nodiscard]] InterconnectResult wires(const FuBinding& b) const {
    return buildInterconnect(fn, sched, lt, regs, b, lib);
  }
};

TEST(FuAlloc, Fig6AwareBeatsBlind) {
  RawFlow flow(buildFig6(),
               ResourceLimits::withClasses(
                   {{FuClass::Adder, 2}, {FuClass::Logic, 2}}));
  FuBinding aware = flow.alloc(FuAllocMethod::GreedyLocal);
  FuBinding blind = flow.alloc(FuAllocMethod::InterconnectBlind);
  EXPECT_EQ(validateFuBinding(flow.fn, flow.sched, aware, flow.lib), "");
  EXPECT_EQ(validateFuBinding(flow.fn, flow.sched, blind, flow.lib), "");
  auto icAware = flow.wires(aware);
  auto icBlind = flow.wires(blind);
  EXPECT_EQ(validateInterconnect(icAware), "");
  EXPECT_EQ(validateInterconnect(icBlind), "");
  // The paper's Fig. 6 claim: checking interconnection costs yields
  // cheaper multiplexing than ignoring them.
  EXPECT_LT(icAware.muxArea, icBlind.muxArea);
}

TEST(FuAlloc, Fig7CliqueSharesAdderAcrossSteps) {
  // a1,a2 in step 0; a3 in step 1; a4 in step 2 (paper's compatibility
  // shape): the cover uses 2 adders, one executing 3 operations.
  Function fn("fig7");
  BlockId b = fn.addBlock("entry");
  PortId pa = fn.addInput("a", 8);
  PortId pb = fn.addInput("b", 8);
  ValueId va = fn.emitRead(b, pa);
  ValueId vb = fn.emitRead(b, pb);
  ValueId a1 = fn.emitBinary(b, OpKind::Add, va, vb);
  ValueId a2 = fn.emitBinary(b, OpKind::Add, vb, va);
  ValueId a3 = fn.emitBinary(b, OpKind::Add, a1, a2);
  ValueId a4 = fn.emitBinary(b, OpKind::Add, a3, va);
  PortId q = fn.addOutput("q", 8);
  fn.emitWrite(b, q, a4);
  fn.setReturn(b);

  RawFlow flow(std::move(fn), ResourceLimits::unlimited());
  FuBinding cb = flow.alloc(FuAllocMethod::Clique);
  EXPECT_EQ(validateFuBinding(flow.fn, flow.sched, cb, flow.lib), "");
  EXPECT_EQ(cb.numFus(), 2);
  // One unit runs three of the four additions.
  std::map<int, int> opCount;
  for (const auto& blkOps : cb.fuOfOp)
    for (int f : blkOps)
      if (f >= 0) ++opCount[f];
  int maxOps = 0;
  for (auto& [f, n] : opCount) maxOps = std::max(maxOps, n);
  EXPECT_EQ(maxOps, 3);
}

TEST(FuAlloc, AllMethodsValidOnSqrt) {
  RawFlow flow(compileBdlOrThrow(kSqrtSrc), ResourceLimits::universalSet(2));
  for (auto m : {FuAllocMethod::GreedyLocal, FuAllocMethod::GreedyGlobal,
                 FuAllocMethod::InterconnectBlind, FuAllocMethod::Clique}) {
    FuBinding bind = flow.alloc(m);
    EXPECT_EQ(validateFuBinding(flow.fn, flow.sched, bind, flow.lib), "")
        << fuAllocMethodName(m);
    auto ic = flow.wires(bind);
    EXPECT_EQ(validateInterconnect(ic), "") << fuAllocMethodName(m);
  }
}

TEST(FuAlloc, GlobalSelectionNoWorseThanLocalOnFig6) {
  RawFlow flow(buildFig6(),
               ResourceLimits::withClasses(
                   {{FuClass::Adder, 2}, {FuClass::Logic, 2}}));
  auto icLocal = flow.wires(flow.alloc(FuAllocMethod::GreedyLocal));
  auto icGlobal = flow.wires(flow.alloc(FuAllocMethod::GreedyGlobal));
  EXPECT_LE(icGlobal.muxArea, icLocal.muxArea + 1e-9);
}

TEST(FuAlloc, DividerAndMultiplierStaySeparate) {
  RawFlow flow(compileBdlOrThrow(kSqrtSrc), ResourceLimits::universalSet(2));
  FuBinding bind = flow.alloc(FuAllocMethod::GreedyLocal);
  // No library component does both mul and div: they must be on
  // different units.
  for (const auto& fu : bind.fus) {
    bool hasMul = fu.performs(OpKind::Mul);
    bool hasDiv = fu.performs(OpKind::UDiv) || fu.performs(OpKind::Div);
    EXPECT_FALSE(hasMul && hasDiv);
  }
}

// ------------------------------------------------------------- interconnect

TEST(Interconnect, TransfersCoverSinks) {
  RawFlow flow(compileBdlOrThrow(kSqrtSrc), ResourceLimits::universalSet(2));
  auto ic = flow.wires(flow.alloc(FuAllocMethod::GreedyLocal));
  EXPECT_EQ(validateInterconnect(ic), "");
  bool sawRegWrite = false, sawPortWrite = false;
  for (const auto& t : ic.transfers) {
    if (t.destKind == Transfer::DestKind::Reg) sawRegWrite = true;
    if (t.destKind == Transfer::DestKind::OutPort) sawPortWrite = true;
  }
  EXPECT_TRUE(sawRegWrite);
  EXPECT_TRUE(sawPortWrite);
}

TEST(Interconnect, BusCountAtLeastPeakParallelTransfers) {
  RawFlow flow(compileBdlOrThrow(kSqrtSrc), ResourceLimits::universalSet(2));
  auto ic = flow.wires(flow.alloc(FuAllocMethod::GreedyLocal));
  std::map<int, std::set<std::pair<int, std::int64_t>>> perStepSources;
  for (const auto& t : ic.transfers)
    perStepSources[t.step].insert({(int)t.src.kind * 1000 + t.src.id, t.src.imm});
  std::size_t peak = 0;
  for (auto& [s, set] : perStepSources) peak = std::max(peak, set.size());
  EXPECT_GE((std::size_t)ic.numBuses, peak);
}

TEST(Interconnect, MuxAreaGrowsWithSharing) {
  // One universal FU forces heavy multiplexing; two relax it.
  RawFlow one(compileBdlOrThrow(kSqrtSrc), ResourceLimits::universalSet(1));
  RawFlow two(compileBdlOrThrow(kSqrtSrc), ResourceLimits::universalSet(2));
  auto icOne = one.wires(one.alloc(FuAllocMethod::GreedyLocal));
  auto icTwo = two.wires(two.alloc(FuAllocMethod::GreedyLocal));
  EXPECT_EQ(validateInterconnect(icOne), "");
  EXPECT_EQ(validateInterconnect(icTwo), "");
  EXPECT_GT(icOne.muxArea, 0.0);
}

// --------------------------------------------- validators vs all-pairs scans

/// Reference: the all-pairs scan validateInterconnect replaced.
std::string validateInterconnectReference(const InterconnectResult& ic) {
  std::ostringstream err;
  for (std::size_t i = 0; i < ic.transfers.size(); ++i) {
    const Transfer& t = ic.transfers[i];
    const MuxSpec* mux = nullptr;
    switch (t.destKind) {
      case Transfer::DestKind::FuPort:
        mux = &ic.fuInput[(std::size_t)t.destId][(std::size_t)t.destPort];
        break;
      case Transfer::DestKind::Reg:
        mux = &ic.regInput[(std::size_t)t.destId];
        break;
      case Transfer::DestKind::OutPort:
        mux = &ic.outPortInput[(std::size_t)t.destId];
        break;
    }
    if (!mux || mux->indexOf(t.src) < 0) {
      err << "transfer " << i << " source " << t.src.str()
          << " missing from destination mux";
      return err.str();
    }
    if (ic.busOfTransfer[i] < 0 || ic.busOfTransfer[i] >= ic.numBuses) {
      err << "transfer " << i << " has no bus";
      return err.str();
    }
    for (std::size_t j = i + 1; j < ic.transfers.size(); ++j) {
      if (ic.busOfTransfer[i] == ic.busOfTransfer[j] &&
          ic.transfers[j].step == t.step &&
          !(ic.transfers[j].src == t.src)) {
        err << "bus " << ic.busOfTransfer[i]
            << " carries two values at step " << t.step;
        return err.str();
      }
    }
  }
  return {};
}

/// Reference: the all-pairs scan validateRegAssignment falls back to.
std::string validateRegAssignmentReference(const LifetimeInfo& lt,
                                           const RegAssignment& regs) {
  std::ostringstream err;
  if (regs.regOfItem.size() != lt.items.size()) return "item count mismatch";
  for (std::size_t i = 0; i < lt.items.size(); ++i) {
    if (lt.items[i].live.empty()) continue;
    if (regs.regOfItem[i] < 0 || regs.regOfItem[i] >= regs.numRegs) {
      err << "item " << i << " has no register";
      return err.str();
    }
    if (regs.regWidth[(std::size_t)regs.regOfItem[i]] < lt.items[i].width) {
      err << "register too narrow for item " << i;
      return err.str();
    }
    for (std::size_t j = i + 1; j < lt.items.size(); ++j) {
      if (regs.regOfItem[i] == regs.regOfItem[j] &&
          lt.items[i].live.overlaps(lt.items[j].live)) {
        err << "items " << i << " (" << lt.items[i].name << ") and " << j
            << " (" << lt.items[j].name << ") share register "
            << regs.regOfItem[i] << " with overlapping lifetimes";
        return err.str();
      }
    }
  }
  return {};
}

/// Synthesized designs of generated programs, greedy and clique allocation.
std::vector<RtlDesign> generatedDesigns() {
  std::vector<RtlDesign> out;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SynthesisOptions o;
    o.check = false;
    if (seed % 2 == 0) {
      o.fuMethod = FuAllocMethod::Clique;
      o.regMethod = RegAllocMethod::Clique;
    }
    out.push_back(Synthesizer(o)
                      .synthesizeSource(fuzz::generateProgram(seed).render())
                      .design);
  }
  return out;
}

TEST(Validators, InterconnectNamesSameViolationAsAllPairsScan) {
  int caught = 0;
  for (const RtlDesign& d : generatedDesigns()) {
    ASSERT_EQ(validateInterconnect(d.ic), "");
    std::mt19937_64 rng(d.ic.transfers.size());
    auto pick = [&](std::size_t n) { return (std::size_t)(rng() % n); };
    const std::size_t nt = d.ic.transfers.size();
    ASSERT_GT(nt, 0u);
    for (int trial = 0; trial < 60; ++trial) {
      InterconnectResult ic = d.ic;
      for (int k = 0, n = 1 + (int)pick(3); k < n; ++k) {
        const std::size_t t = pick(nt), u = pick(nt);
        switch (pick(4)) {
          case 0:  // another (possibly invalid) bus
            ic.busOfTransfer[t] = (int)pick((std::size_t)ic.numBuses + 2) - 1;
            break;
          case 1:  // onto another transfer's bus and step
            ic.busOfTransfer[t] = ic.busOfTransfer[u];
            ic.transfers[t].step = ic.transfers[u].step;
            break;
          case 2:  // another transfer's source
            ic.transfers[t].src = ic.transfers[u].src;
            break;
          default: {  // a source dropped from a register mux
            if (ic.regInput.empty()) break;
            auto& srcs = ic.regInput[pick(ic.regInput.size())].sources;
            if (!srcs.empty())
              srcs.erase(srcs.begin() + (long)pick(srcs.size()));
          }
        }
      }
      const std::string want = validateInterconnectReference(ic);
      ASSERT_EQ(validateInterconnect(ic), want) << "trial " << trial;
      caught += !want.empty();
    }
  }
  EXPECT_GT(caught, 100);
}

TEST(Validators, RegAssignmentNamesSameViolationAsAllPairsScan) {
  int caught = 0;
  for (const RtlDesign& d : generatedDesigns()) {
    ASSERT_EQ(validateRegAssignment(d.lifetimes, d.regs), "");
    const std::size_t n = d.lifetimes.items.size();
    if (n == 0) continue;
    std::mt19937_64 rng(n);
    auto pick = [&](std::size_t m) { return (std::size_t)(rng() % m); };
    for (int trial = 0; trial < 60; ++trial) {
      LifetimeInfo lt = d.lifetimes;
      RegAssignment regs = d.regs;
      for (int k = 0, m = 1 + (int)pick(3); k < m; ++k) {
        const std::size_t i = pick(n), u = pick(n);
        switch (pick(5)) {
          case 0:  // another (possibly invalid) register
            regs.regOfItem[i] = (int)pick((std::size_t)regs.numRegs + 2) - 1;
            break;
          case 1:  // share the register of another item
            regs.regOfItem[i] = regs.regOfItem[u];
            break;
          case 2:  // an empty (possibly inverted) lifetime
            lt.items[i].live.death = lt.items[i].live.birth - (int)pick(3);
            break;
          case 3:  // an empty lifetime inside another item's, sharing its
                   // register (LiveInterval::overlaps still reports it)
            if (i != u && lt.items[u].live.length() >= 2) {
              const int at = lt.items[u].live.birth + 1;
              lt.items[i].live = {at, at};
              regs.regOfItem[i] = regs.regOfItem[u];
            }
            break;
          default:  // a narrower register
            if (regs.regOfItem[i] >= 0 && regs.regOfItem[i] < regs.numRegs)
              regs.regWidth[(std::size_t)regs.regOfItem[i]] = 1;
        }
      }
      const std::string want = validateRegAssignmentReference(lt, regs);
      ASSERT_EQ(validateRegAssignment(lt, regs), want) << "trial " << trial;
      caught += !want.empty();
    }
  }
  EXPECT_GT(caught, 100);
}

}  // namespace
}  // namespace mphls
