#include "rtl/microsim.h"

#include <array>
#include <functional>
#include <vector>

#include "common/bitutil.h"
#include "rtl/source_eval.h"

namespace mphls {

namespace {

/// Decode a select-field value back to a mux leg index.
int decodeSel(std::uint64_t value, bool oneHot) {
  if (!oneHot) return (int)value;
  // One-hot: position of the set bit (0 when no bit set).
  for (int b = 0; b < 64; ++b)
    if ((value >> b) & 1) return b;
  return 0;
}

}  // namespace

RtlExecResult MicrocodeSimulator::run(
    const std::map<std::string, std::uint64_t>& inputs, long maxCycles,
    const SimObserver& observe) const {
  for (const CtrlState& st : d_.ctrl.states)
    for (const FuAction& fa : st.fuActions)
      MPHLS_CHECK(fa.cycles <= 1,
                  "microcode simulation supports unit-latency designs only");
  RtlExecResult res;

  // Field lookup tables by name, resolved once.
  auto fieldIndex = [&](const std::string& name) -> int {
    for (std::size_t i = 0; i < mp_.fields.size(); ++i)
      if (mp_.fields[i].name == name) return (int)i;
    return -1;
  };
  // Sequential appends: GCC 12's -Wrestrict misfires on the temporary chain
  // `"r" + std::to_string(i) + "_en"` at -O3 (same story as obs/vcd.cpp).
  auto sig = [](const char* prefix, int i, const char* suffix) {
    std::string s = prefix;
    s += std::to_string(i);
    s += suffix;
    return s;
  };
  const int nRegs = d_.regs.numRegs;
  const int nFus = d_.binding.numFus();
  std::vector<int> regEnF((std::size_t)nRegs), regSelF((std::size_t)nRegs);
  for (int r = 0; r < nRegs; ++r) {
    regEnF[(std::size_t)r] = fieldIndex(sig("r", r, "_en"));
    regSelF[(std::size_t)r] = fieldIndex(sig("r", r, "_sel"));
  }
  std::vector<int> portEnF(d_.fn.ports().size(), -1),
      portSelF(d_.fn.ports().size(), -1);
  for (std::size_t p = 0; p < d_.fn.ports().size(); ++p) {
    portEnF[p] = fieldIndex(sig("p", (int)p, "_en"));
    portSelF[p] = fieldIndex(sig("p", (int)p, "_sel"));
  }
  std::vector<int> fuOpF((std::size_t)nFus);
  std::vector<std::array<int, 3>> fuMuxF((std::size_t)nFus);
  for (int f = 0; f < nFus; ++f) {
    fuOpF[(std::size_t)f] = fieldIndex(sig("fu", f, "_op"));
    for (int q = 0; q < 3; ++q) {
      std::string m = sig("fu", f, "_m");
      m += std::to_string(q);
      fuMuxF[(std::size_t)f][(std::size_t)q] = fieldIndex(m);
    }
  }
  const int condF = fieldIndex("useq_cond");
  const int condSelF = fieldIndex("useq_condsel");
  const int addrTF = fieldIndex("useq_taken");
  const int addrFF = fieldIndex("useq_fallthrough");
  MPHLS_CHECK(condF >= 0 && addrTF >= 0 && addrFF >= 0,
              "microprogram lacks sequencing fields");

  // Port/register state.
  std::vector<std::uint64_t> inPort(d_.fn.ports().size(), 0);
  for (const auto& p : d_.fn.ports()) {
    if (!p.isInput) continue;
    auto it = inputs.find(p.name);
    MPHLS_CHECK(it != inputs.end(), "missing input '" << p.name << "'");
    inPort[p.id.index()] = truncBits(it->second, p.width);
  }
  std::vector<std::uint64_t> regVal((std::size_t)nRegs, 0);
  std::vector<std::uint64_t> outVal(d_.fn.ports().size(), 0);
  std::vector<bool> outWritten(d_.fn.ports().size(), false);

  std::uint64_t addr = mp_.entryAddress;
  for (long cycle = 0; cycle < maxCycles; ++cycle) {
    if (addr == mp_.haltAddress) {
      res.finished = true;
      break;
    }
    MPHLS_CHECK(addr < mp_.words.size(), "microsequencer address "
                                             << addr << " out of range");
    const auto& w = mp_.words[addr];
    ++res.cycles;

    // --- functional units: execute every unit whose datapath result is
    // captured this cycle. A unit's activity is implied by some register
    // or port selecting it; compute lazily with memoization so chained
    // Fu sources resolve.
    std::vector<std::uint64_t> fuOut((std::size_t)nFus, 0);
    std::vector<bool> fuActive((std::size_t)nFus, false);

    std::function<void(int)> computeFu = [&](int f) {
      if (fuActive[(std::size_t)f]) return;
      fuActive[(std::size_t)f] = true;  // set first: model has no Fu cycles
      const FuInstance& fu = d_.binding.fus[(std::size_t)f];
      int opIdx = fuOpF[(std::size_t)f] >= 0
                      ? decodeSel(w[(std::size_t)fuOpF[(std::size_t)f]],
                                  mp_.oneHot(fuOpF[(std::size_t)f]))
                      : 0;
      MPHLS_CHECK(opIdx >= 0 && opIdx < (int)fu.kinds.size(),
                  "bad function code");
      OpKind kind = fu.kinds[(std::size_t)opIdx];

      std::vector<std::uint64_t> args;
      std::vector<int> widths;
      auto pushPort = [&](int q) {
        const MuxSpec& mux = d_.ic.fuInput[(std::size_t)f][(std::size_t)q];
        MPHLS_CHECK(mux.legs() > 0, "operand port has no sources");
        const int field = fuMuxF[(std::size_t)f][(std::size_t)q];
        int sel = field >= 0
                      ? decodeSel(w[(std::size_t)field], mp_.oneHot(field))
                      : 0;
        MPHLS_CHECK(sel >= 0 && sel < mux.legs(), "bad mux select");
        const Source& s = mux.sources[(std::size_t)sel];
        if (s.kind == Source::Kind::Fu) computeFu(s.id);
        args.push_back(rtl::sourceValue(s, regVal, inPort, fuOut, fuActive));
        widths.push_back(s.finalWidth());
      };
      if (kind == OpKind::Select) {
        pushPort(2);
        pushPort(0);
        pushPort(1);
      } else {
        for (int q = 0; q < opArity(kind); ++q) pushPort(q);
      }
      // Executing at the unit's full width is bit-exact after the capture
      // truncation (operands carry their own widths for signed semantics).
      fuOut[(std::size_t)f] = Interpreter::evalPure(
          kind, std::max(fu.width, 1), 0, args, widths);
    };

    auto resolveSource = [&](const Source& s) -> std::uint64_t {
      if (s.kind == Source::Kind::Fu) computeFu(s.id);
      return rtl::sourceValue(s, regVal, inPort, fuOut, fuActive);
    };

    // --- latched writes ---------------------------------------------------
    std::vector<std::pair<int, std::uint64_t>> regWrites;
    for (int r = 0; r < nRegs; ++r) {
      if (regEnF[(std::size_t)r] < 0 ||
          w[(std::size_t)regEnF[(std::size_t)r]] == 0)
        continue;
      const MuxSpec& mux = d_.ic.regInput[(std::size_t)r];
      int sel = regSelF[(std::size_t)r] >= 0
                    ? decodeSel(w[(std::size_t)regSelF[(std::size_t)r]],
                                mp_.oneHot(regSelF[(std::size_t)r]))
                    : 0;
      MPHLS_CHECK(sel >= 0 && sel < mux.legs(), "bad register select");
      regWrites.push_back(
          {r, resolveSource(mux.sources[(std::size_t)sel])});
    }
    std::vector<std::pair<std::size_t, std::uint64_t>> portWrites;
    for (std::size_t p = 0; p < d_.fn.ports().size(); ++p) {
      if (portEnF[p] < 0 || w[(std::size_t)portEnF[p]] == 0) continue;
      const MuxSpec& mux = d_.ic.outPortInput[p];
      int sel = portSelF[p] >= 0
                    ? decodeSel(w[(std::size_t)portSelF[p]],
                                mp_.oneHot(portSelF[p]))
                    : 0;
      MPHLS_CHECK(sel >= 0 && sel < mux.legs(), "bad port select");
      portWrites.push_back(
          {p, resolveSource(mux.sources[(std::size_t)sel])});
    }

    // --- microsequencer ----------------------------------------------------
    std::uint64_t nextAddr;
    if (w[(std::size_t)condF]) {
      std::size_t csel =
          condSelF >= 0 ? (std::size_t)w[(std::size_t)condSelF] : 0;
      MPHLS_CHECK(csel < mp_.condTable.size(), "bad condition select");
      std::uint64_t c = resolveSource(mp_.condTable[csel]) & 1;
      nextAddr = c ? w[(std::size_t)addrTF] : w[(std::size_t)addrFF];
    } else {
      nextAddr = w[(std::size_t)addrTF];
    }

    for (auto& [r, v] : regWrites) regVal[(std::size_t)r] = v;
    for (auto& [p, v] : portWrites) {
      outVal[p] = truncBits(v, d_.fn.ports()[p].width);
      outWritten[p] = true;
    }
    if (observe) {
      SimCycle sc;
      sc.cycle = cycle;
      sc.state = addr;
      sc.nextState = nextAddr;
      sc.regs = &regVal;
      sc.outs = &outVal;
      sc.fuActive = &fuActive;
      observe(sc);
    }
    addr = nextAddr;
  }

  for (const auto& p : d_.fn.ports())
    if (!p.isInput && outWritten[p.id.index()])
      res.outputs[p.name] = outVal[p.id.index()];
  return res;
}

}  // namespace mphls
