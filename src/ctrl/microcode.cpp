#include "ctrl/microcode.h"

#include <algorithm>
#include <sstream>

#include "common/bitutil.h"

namespace mphls {

std::string_view microcodeStyleName(MicrocodeStyle s) {
  return s == MicrocodeStyle::Horizontal ? "horizontal" : "encoded";
}

const MicroField* Microprogram::field(const std::string& name) const {
  for (const auto& f : fields)
    if (f.name == name) return &f;
  return nullptr;
}

std::string Microprogram::dump() const {
  std::ostringstream oss;
  oss << microcodeStyleName(style) << " microprogram: " << words.size()
      << " words x " << wordWidth << " bits\n";
  for (const auto& f : fields)
    oss << "  field " << f.name << " @" << f.offset << " w" << f.width
        << "\n";
  return oss.str();
}

Microprogram buildMicrocode(const Controller& ctrl,
                            const InterconnectResult& ic,
                            const FuBinding& binding, MicrocodeStyle style) {
  Microprogram mp;
  mp.style = style;
  mp.addrBits = bitsForStates(ctrl.numStates());
  const bool horizontal = style == MicrocodeStyle::Horizontal;

  auto selWidth = [&](int legs) {
    if (legs <= 1) return 0;
    return horizontal ? legs : bitsForStates((std::uint64_t)legs);
  };
  auto addField = [&](const std::string& name, int width) {
    int idx = (int)mp.fields.size();
    mp.fields.push_back({name, width, mp.wordWidth});
    mp.wordWidth += width;
    return idx;
  };

  // Sequential appends: GCC 12's -Wrestrict misfires on the temporary chain
  // `"r" + std::to_string(i) + "_en"` at -O3 (same story as obs/vcd.cpp).
  auto sig = [](const char* prefix, std::size_t i, const char* suffix) {
    std::string s = prefix;
    s += std::to_string(i);
    s += suffix;
    return s;
  };

  // Datapath fields.
  std::vector<int> regEnF, regSelF, portEnF, portSelF, fuOpF;
  std::vector<std::array<int, 3>> fuMuxF;
  for (std::size_t r = 0; r < ic.regInput.size(); ++r) {
    regEnF.push_back(addField(sig("r", r, "_en"), 1));
    int w = selWidth(ic.regInput[r].legs());
    regSelF.push_back(w > 0 ? addField(sig("r", r, "_sel"), w) : -1);
  }
  for (std::size_t p = 0; p < ic.outPortInput.size(); ++p) {
    if (ic.outPortInput[p].legs() == 0) {
      portEnF.push_back(-1);
      portSelF.push_back(-1);
      continue;
    }
    portEnF.push_back(addField(sig("p", p, "_en"), 1));
    int w = selWidth(ic.outPortInput[p].legs());
    portSelF.push_back(w > 0 ? addField(sig("p", p, "_sel"), w) : -1);
  }
  for (std::size_t f = 0; f < binding.fus.size(); ++f) {
    int nk = (int)binding.fus[f].kinds.size();
    int w = nk <= 1 ? 0 : (horizontal ? nk : bitsForStates((std::uint64_t)nk));
    fuOpF.push_back(w > 0 ? addField(sig("fu", f, "_op"), w) : -1);
    std::array<int, 3> mf{-1, -1, -1};
    for (int q = 0; q < 3; ++q) {
      int wq = selWidth(ic.fuInput[f][(std::size_t)q].legs());
      if (wq > 0) {
        std::string m = sig("fu", f, "_m");
        m += std::to_string(q);
        mf[(std::size_t)q] = addField(m, wq);
      }
    }
    fuMuxF.push_back(mf);
  }
  // Condition-select table: one entry per distinct branch condition wire.
  for (const CtrlState& st : ctrl.states) {
    if (!st.conditional) continue;
    if (std::find(mp.condTable.begin(), mp.condTable.end(), st.cond) ==
        mp.condTable.end())
      mp.condTable.push_back(st.cond);
  }

  // Sequencing fields: branch flag, condition select, both target addresses.
  int condF = addField("useq_cond", 1);
  int condSelF =
      mp.condTable.size() > 1
          ? addField("useq_condsel",
                     bitsForStates((std::uint64_t)mp.condTable.size()))
          : -1;
  int addrTF = addField("useq_taken", mp.addrBits);
  int addrFF = addField("useq_fallthrough", mp.addrBits);

  // A horizontal field is `legs` bits wide; see Microprogram::oneHot.
  auto encodeSel = [&](int sel, int legs) -> std::uint64_t {
    if (legs <= 1) return 0;
    return horizontal && legs <= 64 ? (1ULL << sel) : (std::uint64_t)sel;
  };

  for (const CtrlState& st : ctrl.states) {
    std::vector<std::uint64_t> w((std::size_t)mp.fields.size(), 0);
    for (const RegAction& ra : st.regActions) {
      w[(std::size_t)regEnF[(std::size_t)ra.reg]] = 1;
      if (regSelF[(std::size_t)ra.reg] >= 0)
        w[(std::size_t)regSelF[(std::size_t)ra.reg]] =
            encodeSel(ra.muxSel, ic.regInput[(std::size_t)ra.reg].legs());
    }
    for (const PortAction& pa : st.portActions) {
      w[(std::size_t)portEnF[(std::size_t)pa.port]] = 1;
      if (portSelF[(std::size_t)pa.port] >= 0)
        w[(std::size_t)portSelF[(std::size_t)pa.port]] = encodeSel(
            pa.muxSel, ic.outPortInput[(std::size_t)pa.port].legs());
    }
    for (const FuAction& fa : st.fuActions) {
      const FuInstance& fu = binding.fus[(std::size_t)fa.fu];
      if (fuOpF[(std::size_t)fa.fu] >= 0) {
        auto it = std::find(fu.kinds.begin(), fu.kinds.end(), fa.kind);
        w[(std::size_t)fuOpF[(std::size_t)fa.fu]] =
            encodeSel((int)(it - fu.kinds.begin()), (int)fu.kinds.size());
      }
      for (int q = 0; q < 3; ++q)
        if (fa.muxSel[q] >= 0 && fuMuxF[(std::size_t)fa.fu][(std::size_t)q] >= 0)
          w[(std::size_t)fuMuxF[(std::size_t)fa.fu][(std::size_t)q]] =
              encodeSel(fa.muxSel[q],
                        ic.fuInput[(std::size_t)fa.fu][(std::size_t)q].legs());
    }
    if (st.conditional) {
      w[(std::size_t)condF] = 1;
      if (condSelF >= 0) {
        auto it =
            std::find(mp.condTable.begin(), mp.condTable.end(), st.cond);
        w[(std::size_t)condSelF] =
            (std::uint64_t)(it - mp.condTable.begin());
      }
      w[(std::size_t)addrTF] = st.nextTaken.get();
      w[(std::size_t)addrFF] = st.nextNot.get();
    } else {
      StateId next = st.halt ? st.id : st.next;
      w[(std::size_t)addrTF] = next.get();
      w[(std::size_t)addrFF] = next.get();
    }
    mp.words.push_back(std::move(w));
  }
  mp.entryAddress = ctrl.initial.get();
  mp.haltAddress = ctrl.haltState.get();
  return mp;
}

}  // namespace mphls
