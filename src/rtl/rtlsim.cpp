#include "rtl/rtlsim.h"

#include <vector>

#include "common/bitutil.h"
#include "rtl/source_eval.h"

namespace mphls {

RtlExecResult RtlSimulator::run(
    const std::map<std::string, std::uint64_t>& inputs, long maxCycles,
    const SimObserver& observe) const {
  RtlExecResult res;

  // Stable input port values.
  std::vector<std::uint64_t> inPort(d_.fn.ports().size(), 0);
  for (const auto& p : d_.fn.ports()) {
    if (!p.isInput) continue;
    auto it = inputs.find(p.name);
    MPHLS_CHECK(it != inputs.end(), "missing input '" << p.name << "'");
    inPort[p.id.index()] = truncBits(it->second, p.width);
  }

  std::vector<std::uint64_t> regVal((std::size_t)d_.regs.numRegs, 0);
  std::vector<std::uint64_t> outVal(d_.fn.ports().size(), 0);
  std::vector<bool> outWritten(d_.fn.ports().size(), false);

  StateId cur = d_.ctrl.initial;

  // In-flight multicycle operations: the unit latched its operands at
  // issue; the result becomes visible at the recorded completion cycle.
  std::vector<long> pendingDone((std::size_t)d_.binding.numFus(), -1);
  std::vector<std::uint64_t> pendingVal((std::size_t)d_.binding.numFus(), 0);

  for (long cycle = 0; cycle < maxCycles; ++cycle) {
    const CtrlState& st = d_.ctrl.state(cur);
    if (st.halt) {
      res.finished = true;
      break;
    }
    ++res.cycles;

    // --- combinational phase: functional-unit outputs ---------------------
    std::vector<std::uint64_t> fuOut((std::size_t)d_.binding.numFus(), 0);
    std::vector<bool> fuActive((std::size_t)d_.binding.numFus(), false);
    // Multicycle completions deliver first.
    for (std::size_t f = 0; f < pendingDone.size(); ++f) {
      if (pendingDone[f] == cycle) {
        fuOut[f] = pendingVal[f];
        fuActive[f] = true;
        pendingDone[f] = -1;
      }
    }
    auto srcVal = [&](const Source& s) {
      return rtl::sourceValue(s, regVal, inPort, fuOut, fuActive);
    };

    for (const FuAction& fa : st.fuActions) {
      std::vector<std::uint64_t> args;
      std::vector<int> widths;
      auto pushPort = [&](int p) {
        const MuxSpec& mux = d_.ic.fuInput[(std::size_t)fa.fu][(std::size_t)p];
        MPHLS_CHECK(fa.muxSel[p] >= 0 && fa.muxSel[p] < mux.legs(),
                    "bad mux select");
        const Source& s = mux.sources[(std::size_t)fa.muxSel[p]];
        args.push_back(srcVal(s));
        widths.push_back(s.finalWidth());
      };
      if (fa.kind == OpKind::Select) {
        pushPort(2);  // condition
        pushPort(0);  // taken value
        pushPort(1);  // not-taken value
      } else {
        int arity = opArity(fa.kind);
        for (int p = 0; p < arity; ++p) pushPort(p);
      }
      std::uint64_t value =
          Interpreter::evalPure(fa.kind, fa.width, 0, args, widths);
      if (fa.cycles <= 1) {
        fuOut[(std::size_t)fa.fu] = value;
        fuActive[(std::size_t)fa.fu] = true;
      } else {
        // The unit latches its operands now and delivers later.
        if (pendingDone[(std::size_t)fa.fu] >= 0)
          throw DesignFault("unit issued while busy");
        pendingDone[(std::size_t)fa.fu] = cycle + fa.cycles - 1;
        pendingVal[(std::size_t)fa.fu] = value;
      }
    }

    // --- sequential phase: compute all latched values, then commit --------
    std::vector<std::pair<int, std::uint64_t>> regWrites;
    for (const RegAction& ra : st.regActions) {
      const MuxSpec& mux = d_.ic.regInput[(std::size_t)ra.reg];
      const Source& s = mux.sources[(std::size_t)ra.muxSel];
      regWrites.push_back({ra.reg, srcVal(s)});
    }
    std::vector<std::pair<int, std::uint64_t>> portWrites;
    for (const PortAction& pa : st.portActions) {
      const MuxSpec& mux = d_.ic.outPortInput[(std::size_t)pa.port];
      const Source& s = mux.sources[(std::size_t)pa.muxSel];
      portWrites.push_back({pa.port, srcVal(s)});
    }

    // Next state resolves combinationally before the clock edge.
    StateId next;
    if (st.conditional) {
      std::uint64_t c = srcVal(st.cond) & 1;
      next = c ? st.nextTaken : st.nextNot;
    } else {
      next = st.next;
    }

    for (auto& [r, v] : regWrites) regVal[(std::size_t)r] = v;
    for (auto& [p, v] : portWrites) {
      outVal[(std::size_t)p] =
          truncBits(v, d_.fn.ports()[(std::size_t)p].width);
      outWritten[(std::size_t)p] = true;
    }
    if (observe) {
      SimCycle sc;
      sc.cycle = cycle;
      sc.state = (std::uint64_t)cur.index();
      sc.nextState = (std::uint64_t)next.index();
      sc.regs = &regVal;
      sc.outs = &outVal;
      sc.fuActive = &fuActive;
      observe(sc);
    }
    cur = next;
  }

  for (const auto& p : d_.fn.ports())
    if (!p.isInput && outWritten[p.id.index()])
      res.outputs[p.name] = outVal[p.id.index()];
  return res;
}

}  // namespace mphls
