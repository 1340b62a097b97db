#include "alloc/interconnect.h"

#include <algorithm>
#include <sstream>

#include "common/key_map.h"
#include "ir/deps.h"

namespace mphls {

int MuxSpec::indexOf(const Source& s) const {
  for (std::size_t i = 0; i < sources.size(); ++i)
    if (sources[i] == s) return (int)i;
  return -1;
}

namespace {

void addSource(MuxSpec& mux, const Source& s, int width) {
  mux.width = std::max(mux.width, width);
  if (mux.indexOf(s) < 0) mux.sources.push_back(s);
}

/// Resolve a Fu source with unresolved id (-1): look up the producing
/// op's index in the block (`posOfOp`, by op id, -1 outside the block) and
/// substitute its bound unit index.
Source resolveFuSource(const Function& fn, const FuBinding& binding,
                       BlockId block, const std::vector<int>& posOfOp,
                       Source s) {
  if (!(s.kind == Source::Kind::Fu && s.id < 0)) return s;
  ValueId root((std::uint32_t)s.imm);
  const int i = posOfOp[fn.defOf(root).id.index()];
  MPHLS_CHECK(i >= 0, "chained producer not found in block");
  int f = binding.fuOfOp[block.index()][(std::size_t)i];
  MPHLS_CHECK(f >= 0, "value chained to unbound op");
  s.id = f;
  s.imm = 0;
  return s;
}

/// Source of a stored/written value. When the producing operation runs in
/// the sink's own step, the sink latches the functional unit's output
/// directly (chaining); when the producer ran in an earlier step, the value
/// lives in its temporary register and the sink reads that instead.
Source sinkSource(const Function& fn, const LifetimeInfo& lt,
                  const RegAssignment& regs, const FuBinding& binding,
                  const Block& blk, const BlockSchedule& bs,
                  const std::vector<int>& posOfOp, int sinkStep,
                  ValueId stored, const OpLatencyModel& latencies) {
  Source s = buildSource(fn, lt, regs, stored);
  ValueId root = rootValue(fn, stored);
  const Op& rdef = fn.defOf(root);
  if (!kindFlowsFree(rdef.kind)) {
    // FU-produced root: find its op in this block and compare the sink's
    // step with the producer's completion step.
    const int i = posOfOp[rdef.id.index()];
    MPHLS_CHECK(i >= 0, "sink producer not found in block");
    if (bs.step[(std::size_t)i] + latencies.of(rdef.kind) - 1 == sinkStep) {
      int f = binding.fuOfOp[blk.id.index()][(std::size_t)i];
      MPHLS_CHECK(f >= 0, "same-step sink producer unbound");
      Source fu = s;
      fu.kind = Source::Kind::Fu;
      fu.id = f;
      fu.imm = 0;
      return fu;
    }
    // Producer ran earlier: the value must be registered.
    MPHLS_CHECK(s.kind == Source::Kind::Reg,
                "cross-step sink source not registered");
    return s;
  }
  return resolveFuSource(fn, binding, blk.id, posOfOp, s);
}

}  // namespace

InterconnectResult buildInterconnect(const Function& fn, const Schedule& sched,
                                     const LifetimeInfo& lt,
                                     const RegAssignment& regs,
                                     const FuBinding& binding,
                                     const HwLibrary& lib,
                                     const OpLatencyModel& latencies) {
  InterconnectResult ic;
  ic.fuInput.resize(binding.fus.size());
  ic.regInput.resize((std::size_t)regs.numRegs);
  ic.outPortInput.resize(fn.ports().size());
  ic.opWiring.resize(fn.numBlocks());

  std::vector<int> posOfOp(fn.numOps(), -1);
  for (const auto& blk : fn.blocks()) {
    const BlockSchedule& bs = sched.of(blk.id);
    const int base = lt.blockBase[blk.id.index()];
    ic.opWiring[blk.id.index()].resize(blk.ops.size());
    for (std::size_t i = 0; i < blk.ops.size(); ++i)
      posOfOp[blk.ops[i].index()] = (int)i;

    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      const int gstep = base + bs.step[i];
      int f = binding.fuOfOp[blk.id.index()][i];
      OpWiring& ow = ic.opWiring[blk.id.index()][i];
      ow.fu = f;

      if (f >= 0) {
        // Functional-unit operands.
        const bool swapped = binding.swappedOfOp[blk.id.index()][i];
        std::size_t argBase = 0;
        std::size_t nData = o.args.size();
        int condExtra = -1;
        if (o.kind == OpKind::Select) {
          // Port 2 carries the select condition.
          argBase = 1;
          nData = 2;
          condExtra = 0;
        }
        for (std::size_t p = 0; p < nData && p < 2; ++p) {
          std::size_t arg = argBase + ((swapped && nData == 2) ? 1 - p : p);
          Source s = operandSource(fn, lt, regs, blk.id, i, arg);
          if (s.kind == Source::Kind::Fu && s.id < 0) continue;  // chained
          int w = fn.value(o.args[arg]).width;
          addSource(ic.fuInput[(std::size_t)f][p], s, w);
          ow.fuMuxSel[p] = ic.fuInput[(std::size_t)f][p].indexOf(s);
          ic.transfers.push_back({s, Transfer::DestKind::FuPort, f, (int)p,
                                  gstep, w});
        }
        if (condExtra >= 0) {
          Source s = operandSource(fn, lt, regs, blk.id, i, 0);
          if (!(s.kind == Source::Kind::Fu && s.id < 0)) {
            addSource(ic.fuInput[(std::size_t)f][2], s, 1);
            ow.fuMuxSel[2] = ic.fuInput[(std::size_t)f][2].indexOf(s);
            ic.transfers.push_back(
                {s, Transfer::DestKind::FuPort, f, 2, gstep, 1});
          }
        }
        // Result into its register (when the value is registered); the
        // latch happens at the producer's completion step.
        if (o.result.valid()) {
          int item = lt.itemOfValue[o.result.index()];
          if (item >= 0 && regs.regOfItem[(std::size_t)item] >= 0) {
            int r = regs.regOfItem[(std::size_t)item];
            Source s{Source::Kind::Fu, f, 0, {}, fn.value(o.result).width};
            int w = fn.value(o.result).width;
            int done = gstep + latencies.of(o.kind) - 1;
            addSource(ic.regInput[(std::size_t)r], s, w);
            ow.destReg = r;
            ow.destRegMuxSel = ic.regInput[(std::size_t)r].indexOf(s);
            ic.transfers.push_back(
                {s, Transfer::DestKind::Reg, r, 0, done, w});
          }
        }
        continue;
      }

      // Sinks: register writes and output-port writes.
      if (o.kind == OpKind::StoreVar) {
        int item = lt.itemOfVar[o.var.index()];
        if (item < 0) continue;  // dead store to never-loaded var
        int r = regs.regOfItem[(std::size_t)item];
        Source s = sinkSource(fn, lt, regs, binding, blk, bs, posOfOp,
                              bs.step[i], o.args[0], latencies);
        int w = fn.var(o.var).width;
        addSource(ic.regInput[(std::size_t)r], s, w);
        ow.destReg = r;
        ow.destRegMuxSel = ic.regInput[(std::size_t)r].indexOf(s);
        ic.transfers.push_back({s, Transfer::DestKind::Reg, r, 0, gstep, w});
      } else if (o.kind == OpKind::WritePort) {
        Source s = sinkSource(fn, lt, regs, binding, blk, bs, posOfOp,
                              bs.step[i], o.args[0], latencies);
        int w = fn.port(o.port).width;
        addSource(ic.outPortInput[o.port.index()], s, w);
        ow.destPort = (int)o.port.get();
        ow.destPortMuxSel = ic.outPortInput[o.port.index()].indexOf(s);
        ic.transfers.push_back({s, Transfer::DestKind::OutPort,
                                (int)o.port.get(), 0, gstep, w});
      }
    }
    for (OpId oid : blk.ops) posOfOp[oid.index()] = -1;
  }

  // Mux-based cost.
  auto addMuxCost = [&](const MuxSpec& m) {
    if (m.legs() > 1) {
      ic.muxArea += lib.muxArea(m.legs(), m.width);
      ic.mux2to1Count += m.legs() - 1;
    }
  };
  for (const auto& fu : ic.fuInput)
    for (const auto& m : fu) addMuxCost(m);
  for (const auto& m : ic.regInput) addMuxCost(m);
  for (const auto& m : ic.outPortInput) addMuxCost(m);

  // Bus-based alternative: greedy coloring of the transfer conflict graph.
  // Conflict: same step, different source (a bus carries one value per
  // step; identical sources may broadcast). First fit: the lowest bus not
  // carrying a different source at the transfer's step, found from the
  // (bus, source) pairs already placed at that step.
  const std::size_t nt = ic.transfers.size();
  ic.busOfTransfer.assign(nt, -1);
  SourceIds ids;
  std::vector<int> srcOf(nt);
  int lastStep = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    srcOf[t] = ids.of(ic.transfers[t].src);
    lastStep = std::max(lastStep, ic.transfers[t].step);
  }
  std::vector<std::vector<std::pair<int, int>>> onStep(
      (std::size_t)lastStep + 1);  // step -> (bus, source) placed there
  std::vector<int> taken;
  for (std::size_t t = 0; t < nt; ++t) {
    auto& here = onStep[(std::size_t)ic.transfers[t].step];
    taken.clear();
    for (const auto& [bus, src] : here)
      if (src != srcOf[t]) taken.push_back(bus);
    std::sort(taken.begin(), taken.end());
    int chosen = 0;
    for (int b : taken) {
      if (b > chosen) break;
      if (b == chosen) ++chosen;
    }
    ic.numBuses = std::max(ic.numBuses, chosen + 1);
    here.emplace_back(chosen, srcOf[t]);
    ic.busOfTransfer[t] = chosen;
  }
  // Per bus: distinct sources and widest transfer.
  std::vector<int> busSources((std::size_t)ic.numBuses, 0);
  std::vector<int> busWidth((std::size_t)ic.numBuses, 0);
  KeySet seen;
  for (std::size_t t = 0; t < nt; ++t) {
    const auto b = (std::size_t)ic.busOfTransfer[t];
    busWidth[b] = std::max(busWidth[b], ic.transfers[t].width);
    if (seen.emplace((std::uint64_t)b << 32 | (std::uint32_t)srcOf[t], 1)
            .second)
      ++busSources[b];
  }
  for (std::size_t b = 0; b < busSources.size(); ++b)
    ic.busArea += lib.busArea(busSources[b], busWidth[b]);
  return ic;
}

std::string validateInterconnect(const InterconnectResult& ic) {
  std::ostringstream err;
  // conflictLater[i]: some later transfer on i's bus at i's step carries a
  // different source. Found in one backward sweep that keeps, per
  // (bus, step), the source seen there and whether a second one was.
  const std::size_t n = ic.transfers.size();
  std::vector<char> conflictLater(n, 0);
  {
    SourceIds ids;
    struct Seen {
      int src;
      bool mixed;
    };
    KeyMap<Seen> later;
    for (std::size_t i = n; i-- > 0;) {
      const int src = ids.of(ic.transfers[i].src);
      const std::uint64_t key =
          (std::uint64_t)(std::uint32_t)ic.busOfTransfer[i] << 32 |
          (std::uint32_t)ic.transfers[i].step;
      auto [seen, fresh] = later.emplace(key, Seen{src, false});
      if (fresh) continue;
      conflictLater[i] = seen->mixed || seen->src != src;
      if (seen->src != src) seen->mixed = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
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
        // Port ids index outPortInput directly.
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
    if (conflictLater[i]) {
      err << "bus " << ic.busOfTransfer[i]
          << " carries two values at step " << t.step;
      return err.str();
    }
  }
  return {};
}

}  // namespace mphls
