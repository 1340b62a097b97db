#include "ctrl/encode.h"

#include <algorithm>
#include <sstream>

#include "common/bitutil.h"

namespace mphls {

namespace {

std::uint64_t grayCode(std::uint64_t n) { return n ^ (n >> 1); }

/// Description of one control-signal group so states can set values.
struct SignalLayout {
  // Base column index (within the signal section) and width for:
  std::vector<int> regEn, regSel, regSelW;
  std::vector<int> portEn, portSel, portSelW;
  std::vector<int> fuOp, fuOpW;
  std::vector<std::array<int, 3>> fuMux;
  std::vector<std::array<int, 3>> fuMuxW;
  int total = 0;
};

SignalLayout layoutSignals(const InterconnectResult& ic,
                           const FuBinding& binding,
                           std::vector<std::string>& names) {
  SignalLayout L;
  auto alloc = [&](const std::string& base, int bits) {
    int at = L.total;
    for (int b = 0; b < bits; ++b)
      names.push_back(bits == 1 ? base : base + "[" + std::to_string(b) + "]");
    L.total += bits;
    return at;
  };
  // Sequential appends: GCC 12's -Wrestrict misfires on the temporary chain
  // `"r" + std::to_string(i) + "_en"` at -O3 (same story as obs/vcd.cpp).
  auto sig = [](const char* prefix, std::size_t i, const char* suffix) {
    std::string s = prefix;
    s += std::to_string(i);
    s += suffix;
    return s;
  };

  for (std::size_t r = 0; r < ic.regInput.size(); ++r) {
    L.regEn.push_back(alloc(sig("r", r, "_en"), 1));
    int legs = ic.regInput[r].legs();
    int w = legs > 1 ? bitsForStates((std::uint64_t)legs) : 0;
    L.regSel.push_back(w > 0 ? alloc(sig("r", r, "_sel"), w) : -1);
    L.regSelW.push_back(w);
  }
  for (std::size_t p = 0; p < ic.outPortInput.size(); ++p) {
    if (ic.outPortInput[p].legs() == 0) {
      L.portEn.push_back(-1);
      L.portSel.push_back(-1);
      L.portSelW.push_back(0);
      continue;
    }
    L.portEn.push_back(alloc(sig("p", p, "_en"), 1));
    int legs = ic.outPortInput[p].legs();
    int w = legs > 1 ? bitsForStates((std::uint64_t)legs) : 0;
    L.portSel.push_back(w > 0 ? alloc(sig("p", p, "_sel"), w) : -1);
    L.portSelW.push_back(w);
  }
  for (std::size_t f = 0; f < binding.fus.size(); ++f) {
    int nk = (int)binding.fus[f].kinds.size();
    int w = nk > 1 ? bitsForStates((std::uint64_t)nk) : 0;
    L.fuOp.push_back(w > 0 ? alloc(sig("fu", f, "_op"), w) : -1);
    L.fuOpW.push_back(w);
    std::array<int, 3> mux{-1, -1, -1};
    std::array<int, 3> muxw{0, 0, 0};
    for (int q = 0; q < 3; ++q) {
      int legs = ic.fuInput[f][(std::size_t)q].legs();
      if (legs > 1) {
        muxw[(std::size_t)q] = bitsForStates((std::uint64_t)legs);
        std::string m = sig("fu", f, "_m");
        m += std::to_string(q);
        mux[(std::size_t)q] = alloc(m, muxw[(std::size_t)q]);
      }
    }
    L.fuMux.push_back(mux);
    L.fuMuxW.push_back(muxw);
  }
  return L;
}

/// Set the signal bits state `st` asserts in `v` (L.total bytes, zeroed).
void writeSignals(const CtrlState& st, const SignalLayout& L,
                  const FuBinding& binding, std::uint8_t* v) {
  auto setBits = [&](int base, int width, std::uint64_t value) {
    for (int b = 0; b < width; ++b)
      if ((value >> b) & 1) v[(std::size_t)(base + b)] = 1;
  };
  for (const RegAction& ra : st.regActions) {
    v[(std::size_t)L.regEn[(std::size_t)ra.reg]] = 1;
    if (L.regSelW[(std::size_t)ra.reg] > 0)
      setBits(L.regSel[(std::size_t)ra.reg], L.regSelW[(std::size_t)ra.reg],
              (std::uint64_t)ra.muxSel);
  }
  for (const PortAction& pa : st.portActions) {
    v[(std::size_t)L.portEn[(std::size_t)pa.port]] = 1;
    if (L.portSelW[(std::size_t)pa.port] > 0)
      setBits(L.portSel[(std::size_t)pa.port],
              L.portSelW[(std::size_t)pa.port], (std::uint64_t)pa.muxSel);
  }
  for (const FuAction& fa : st.fuActions) {
    const FuInstance& fu = binding.fus[(std::size_t)fa.fu];
    if (L.fuOpW[(std::size_t)fa.fu] > 0) {
      auto it = std::find(fu.kinds.begin(), fu.kinds.end(), fa.kind);
      setBits(L.fuOp[(std::size_t)fa.fu], L.fuOpW[(std::size_t)fa.fu],
              (std::uint64_t)(it - fu.kinds.begin()));
    }
    for (int q = 0; q < 3; ++q) {
      if (fa.muxSel[q] >= 0 && L.fuMuxW[(std::size_t)fa.fu][(std::size_t)q] > 0)
        setBits(L.fuMux[(std::size_t)fa.fu][(std::size_t)q],
                L.fuMuxW[(std::size_t)fa.fu][(std::size_t)q],
                (std::uint64_t)fa.muxSel[q]);
    }
  }
}

/// A cover with every cube's literals and outputs packed into 64-bit
/// words, so matching one cube costs a word operation or two however wide
/// the input is.
struct PackedCover {
  std::size_t cubes = 0, inWords = 0, outWords = 0;
  std::vector<std::uint64_t> care, value, out;  ///< row-major per cube

  explicit PackedCover(const SopCover& c)
      : cubes(c.cubes.size()),
        inWords(((std::size_t)c.numInputs + 63) / 64),
        outWords(((std::size_t)c.numOutputs + 63) / 64),
        care(cubes * inWords, 0),
        value(cubes * inWords, 0),
        out(cubes * outWords, 0) {
    for (std::size_t k = 0; k < cubes; ++k) {
      const Cube& cube = c.cubes[k];
      for (std::size_t i = 0; i < cube.in.size(); ++i) {
        if (cube.in[i] == 2) continue;
        const std::uint64_t bit = 1ULL << (i % 64);
        care[k * inWords + i / 64] |= bit;
        if (cube.in[i] == 1) value[k * inWords + i / 64] |= bit;
      }
      for (std::size_t o = 0; o < cube.out.size(); ++o)
        if (cube.out[o]) out[k * outWords + o / 64] |= 1ULL << (o % 64);
    }
  }

  /// OR of the matching cubes' outputs; `x` holds `inWords` words.
  [[nodiscard]] std::vector<std::uint64_t> eval(
      const std::vector<std::uint64_t>& x) const {
    std::vector<std::uint64_t> r(outWords, 0);
    for (std::size_t k = 0; k < cubes; ++k) {
      bool match = true;
      for (std::size_t w = 0; w < inWords && match; ++w)
        match = ((x[w] ^ value[k * inWords + w]) & care[k * inWords + w]) == 0;
      if (!match) continue;
      for (std::size_t w = 0; w < outWords; ++w) r[w] |= out[k * outWords + w];
    }
    return r;
  }
};

}  // namespace

EncodedFsm encodeController(const Controller& ctrl,
                            const InterconnectResult& ic,
                            const FuBinding& binding,
                            StateEncoding encoding) {
  EncodedFsm out;
  out.encoding = encoding;

  const std::size_t n = ctrl.numStates();
  out.codeOf.resize(n);
  switch (encoding) {
    case StateEncoding::Binary:
      out.stateBits = bitsForStates(n);
      for (std::size_t s = 0; s < n; ++s) out.codeOf[s] = s;
      break;
    case StateEncoding::Gray:
      out.stateBits = bitsForStates(n);
      for (std::size_t s = 0; s < n; ++s) out.codeOf[s] = grayCode(s);
      break;
    case StateEncoding::OneHot:
      if (n > 64) {
        // One-hot codes live in a 64-bit word; a controller with more
        // states than that cannot be one-hot encoded here (and a >64-input
        // SOP cover would be useless anyway), so fall back to binary.
        out.encoding = StateEncoding::Binary;
        out.stateBits = bitsForStates(n);
        for (std::size_t s = 0; s < n; ++s) out.codeOf[s] = s;
        break;
      }
      out.stateBits = (int)n;
      for (std::size_t s = 0; s < n; ++s) out.codeOf[s] = 1ULL << s;
      break;
  }

  SignalLayout L = layoutSignals(ic, binding, out.signalNames);

  SopCover cover;
  cover.numInputs = out.stateBits + 1;  // + branch condition
  cover.numOutputs = out.stateBits + L.total;
  const int condIndex = out.stateBits;

  // Each state's cube: its code on the state inputs, its signals written
  // straight into the output bytes, and its successor's code on the
  // next-state outputs; a conditional state gets one cube per condition.
  auto stateCube = [&](std::size_t state) {
    Cube c;
    c.in.assign((std::size_t)cover.numInputs, 2);
    // out.encoding, not the requested one: one-hot may have fallen back
    // to binary above.
    if (out.encoding == StateEncoding::OneHot) {
      c.in[state] = 1;  // single-literal one-hot decode
    } else {
      for (int b = 0; b < out.stateBits; ++b)
        c.in[(std::size_t)b] = (out.codeOf[state] >> b) & 1 ? 1 : 0;
    }
    c.out.assign((std::size_t)cover.numOutputs, 0);
    writeSignals(ctrl.states[state], L, binding,
                 c.out.data() + out.stateBits);
    return c;
  };
  auto setNext = [&](Cube& c, StateId next) {
    const std::uint64_t code = out.codeOf[next.index()];
    for (int b = 0; b < out.stateBits; ++b)
      c.out[(std::size_t)b] = (code >> b) & 1;
  };

  for (std::size_t s = 0; s < n; ++s) {
    const CtrlState& st = ctrl.states[s];
    Cube c = stateCube(s);
    if (st.conditional) {
      Cube c0 = c;
      c.in[(std::size_t)condIndex] = 1;
      setNext(c, st.nextTaken);
      cover.cubes.push_back(std::move(c));
      c0.in[(std::size_t)condIndex] = 0;
      setNext(c0, st.nextNot);
      cover.cubes.push_back(std::move(c0));
    } else {
      setNext(c, st.halt ? st.id : st.next);
      cover.cubes.push_back(std::move(c));
    }
  }

  out.minimizedLogic = minimizeCover(cover);
  out.logic = std::move(cover);
  return out;
}

std::string validateEncoding(const EncodedFsm& fsm, const Controller& ctrl) {
  std::ostringstream oss;
  const std::size_t n = ctrl.numStates();
  if (n == 0) return {};
  const int bits = fsm.stateBits;
  if (fsm.codeOf.size() != n || bits < 1 || bits > 64 ||
      fsm.logic.numInputs != bits + 1 ||
      fsm.minimizedLogic.numInputs != bits + 1 ||
      fsm.minimizedLogic.numOutputs != fsm.logic.numOutputs ||
      fsm.logic.numOutputs < bits) {
    oss << "encoding shape: " << fsm.codeOf.size() << " codes for " << n
        << " states, " << bits << " state bits, cover inputs "
        << fsm.logic.numInputs << "/" << fsm.minimizedLogic.numInputs;
    return oss.str();
  }
  const std::uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;

  std::vector<std::pair<std::uint64_t, std::size_t>> byCode;
  byCode.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    if ((fsm.codeOf[s] & ~mask) != 0) {
      oss << "state " << s << " code 0x" << std::hex << fsm.codeOf[s]
          << " does not fit in " << std::dec << bits << " state bits";
      return oss.str();
    }
    byCode.emplace_back(fsm.codeOf[s], s);
  }
  std::sort(byCode.begin(), byCode.end());
  for (std::size_t i = 1; i < byCode.size(); ++i)
    if (byCode[i].first == byCode[i - 1].first) {
      oss << "states " << byCode[i - 1].second << " and " << byCode[i].second
          << " share code 0x" << std::hex << byCode[i].first;
      return oss.str();
    }

  const PackedCover raw(fsm.logic), min(fsm.minimizedLogic);
  std::vector<std::uint64_t> x(raw.inWords, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const CtrlState& st = ctrl.states[s];
    for (int cond = 0; cond <= 1; ++cond) {
      // Inputs: the state code in bits [0, stateBits), the branch
      // condition at bit stateBits.
      std::fill(x.begin(), x.end(), 0);
      x[0] = fsm.codeOf[s];
      if (cond) x[(std::size_t)bits / 64] |= 1ULL << (bits % 64);
      const std::vector<std::uint64_t> want = raw.eval(x);
      if (min.eval(x) != want) {
        oss << "state " << s << " cond " << cond
            << ": minimized control logic differs from the raw cover";
        return oss.str();
      }
      const StateId next = st.conditional ? (cond ? st.nextTaken : st.nextNot)
                           : st.halt      ? st.id
                                          : st.next;
      const std::uint64_t got = want[0] & mask;
      if (!next.valid() || next.index() >= n ||
          got != fsm.codeOf[next.index()]) {
        oss << "state " << s << " cond " << cond << ": next-state bits 0x"
            << std::hex << got << " are not the successor's code";
        return oss.str();
      }
    }
  }
  return {};
}

}  // namespace mphls
