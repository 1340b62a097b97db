// Tests for controller synthesis: SOP minimization, FSM construction,
// state encodings, control-logic generation, and microcode.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bitutil.h"

#include "core/designs.h"
#include "core/options.h"
#include "core/synthesizer.h"
#include "ctrl/encode.h"
#include "ctrl/microcode.h"
#include "ctrl/sop.h"
#include "sop_reference.h"

namespace mphls {
namespace {

// -------------------------------------------------------------------- SOP

TEST(Sop, CubeMatching) {
  Cube c;
  c.in = {1, 2, 0};  // x0=1, x1=don't care, x2=0
  c.out = {1};
  EXPECT_TRUE(c.matches(0b001));
  EXPECT_TRUE(c.matches(0b011));
  EXPECT_FALSE(c.matches(0b101));
  EXPECT_FALSE(c.matches(0b000));
  EXPECT_EQ(c.literalCount(), 2);
}

TEST(Sop, MergeDistanceOne) {
  SopCover cover;
  cover.numInputs = 2;
  cover.numOutputs = 1;
  cover.cubes.push_back({{0, 0}, {1}});
  cover.cubes.push_back({{0, 1}, {1}});
  SopCover min = minimizeCover(cover);
  EXPECT_EQ(min.termCount(), 1);
  EXPECT_TRUE(coversEquivalent(cover, min));
}

TEST(Sop, AbsorptionDropsCoveredCube) {
  SopCover cover;
  cover.numInputs = 2;
  cover.numOutputs = 1;
  cover.cubes.push_back({{0, 2}, {1}});  // covers x0=0
  cover.cubes.push_back({{0, 1}, {1}});  // inside the first
  SopCover min = minimizeCover(cover);
  EXPECT_EQ(min.termCount(), 1);
  EXPECT_TRUE(coversEquivalent(cover, min));
}

TEST(Sop, FullMintermTableCollapses) {
  // All four minterms of a 2-input function asserted -> single tautology
  // cube after repeated merging.
  SopCover cover;
  cover.numInputs = 2;
  cover.numOutputs = 1;
  for (int v = 0; v < 4; ++v)
    cover.cubes.push_back(
        {{(std::uint8_t)(v & 1), (std::uint8_t)((v >> 1) & 1)}, {1}});
  SopCover min = minimizeCover(cover);
  EXPECT_EQ(min.termCount(), 1);
  EXPECT_EQ(min.cubes[0].literalCount(), 0);
  EXPECT_TRUE(coversEquivalent(cover, min));
}

TEST(Sop, MultiOutputMergeRequiresIdenticalOutputs) {
  SopCover cover;
  cover.numInputs = 1;
  cover.numOutputs = 2;
  cover.cubes.push_back({{0}, {1, 0}});
  cover.cubes.push_back({{1}, {0, 1}});
  SopCover min = minimizeCover(cover);
  EXPECT_EQ(min.termCount(), 2);  // outputs differ: cannot merge
  EXPECT_TRUE(coversEquivalent(cover, min));
}

/// Seeded synthetic cover in which merges and absorbs both fire: cubes
/// over a few output patterns (so outputs often match), distance-1
/// neighbours of earlier cubes, exact duplicates, and absorb chains (a cube,
/// then copies with literals freed and outputs added, each covering the
/// one before, placed in either order).
SopCover syntheticCover(std::uint64_t seed, int inputs) {
  std::uint64_t st = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto below = [&](std::uint64_t n) {
    st ^= st << 13;
    st ^= st >> 7;
    st ^= st << 17;
    return st % n;
  };
  SopCover c;
  c.numInputs = inputs;
  c.numOutputs = 1 + (int)below(4);
  std::vector<std::vector<std::uint8_t>> patterns;
  for (int k = 0; k < 3; ++k) {
    std::vector<std::uint8_t> o((std::size_t)c.numOutputs);
    for (auto& b : o) b = (std::uint8_t)below(2);
    patterns.push_back(o);
  }
  const int n = 4 + (int)below(40);
  for (int k = 0; k < n; ++k) {
    const std::uint64_t kind = c.cubes.empty() ? 0 : below(10);
    if (kind <= 3) {  // fresh cube
      Cube q;
      q.in.resize((std::size_t)inputs);
      for (auto& l : q.in) l = (std::uint8_t)(below(5) == 0 ? 2 : below(2));
      q.out = patterns[below(patterns.size())];
      c.cubes.push_back(q);
    } else if (kind <= 6) {  // distance-1 neighbour of an earlier cube
      Cube q = c.cubes[below(c.cubes.size())];
      std::size_t i = below((std::size_t)inputs);
      if (q.in[i] == 2) q.in[i] = 0;
      else q.in[i] ^= 1;
      c.cubes.push_back(q);
    } else if (kind == 7) {  // duplicate
      c.cubes.push_back(c.cubes[below(c.cubes.size())]);
    } else {  // absorb chain of two or three links
      Cube q = c.cubes[below(c.cubes.size())];
      std::vector<Cube> chain{q};
      for (int link = 0; link < 1 + (int)below(2); ++link) {
        q.in[below((std::size_t)inputs)] = 2;
        q.out[below(q.out.size())] = 1;
        chain.push_back(q);
      }
      if (below(2) == 0) std::reverse(chain.begin(), chain.end());
      c.cubes.insert(c.cubes.end(), chain.begin(), chain.end());
    }
  }
  return c;
}

TEST(Sop, MinimizerMatchesReferenceOnSyntheticCovers) {
  int merged = 0, absorbed = 0, both = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    // Mostly narrow covers; every tenth one spans two input words.
    const int inputs =
        seed % 10 == 0 ? 66 + (int)(seed % 7) : 2 + (int)(seed % 9);
    const SopCover cover = syntheticCover(seed, inputs);
    int merges = 0, absorbs = 0;
    const SopCover want = minimizeCoverReference(cover, &merges, &absorbs);
    const SopCover got = minimizeCover(cover);
    ASSERT_EQ(got.str(), want.str()) << "seed " << seed;
    ASSERT_EQ(got.numInputs, want.numInputs);
    ASSERT_EQ(got.numOutputs, want.numOutputs);
    const bool didMerge = merges > 0, didAbsorb = absorbs > 0;
    merged += didMerge;
    absorbed += didAbsorb;
    both += didMerge && didAbsorb;
  }
  EXPECT_GT(merged, 100);
  EXPECT_GT(absorbed, 100);
  EXPECT_GT(both, 50);
}

// ----------------------------------------------------------------- FSM

SynthesisResult synthSqrt(StateEncoding enc = StateEncoding::Binary) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  opts.encoding = enc;
  Synthesizer synth(opts);
  return synth.synthesizeSource(designs::sqrtSource());
}

TEST(Fsm, StatesMatchControlSteps) {
  SynthesisResult r = synthSqrt();
  // One state per (block, step) plus the halt state.
  std::size_t steps = 0;
  for (const auto& bs : r.design.sched.blocks)
    steps += (std::size_t)bs.numSteps;
  EXPECT_EQ(r.design.ctrl.numStates(), steps + 1);
}

TEST(Fsm, LoopBlockEndsWithConditional) {
  SynthesisResult r = synthSqrt();
  BlockId body = r.design.fn.findBlock("do_body_0");
  ASSERT_TRUE(body.valid());
  int last = r.design.sched.of(body).numSteps - 1;
  StateId sid = r.design.ctrl.stateAt(body, last);
  ASSERT_TRUE(sid.valid());
  const CtrlState& st = r.design.ctrl.state(sid);
  EXPECT_TRUE(st.conditional);
  // Taken leads out of the loop, not-taken back to the body's first state.
  EXPECT_EQ(st.nextNot, r.design.ctrl.stateAt(body, 0));
}

TEST(Fsm, HaltStateSelfLoops) {
  SynthesisResult r = synthSqrt();
  const CtrlState& halt = r.design.ctrl.state(r.design.ctrl.haltState);
  EXPECT_TRUE(halt.halt);
  EXPECT_EQ(halt.next, halt.id);
}

TEST(Fsm, DescribeMentionsStates) {
  SynthesisResult r = synthSqrt();
  std::string d = r.design.ctrl.describe();
  EXPECT_NE(d.find("S0"), std::string::npos);
  EXPECT_NE(d.find("halt"), std::string::npos);
}

// -------------------------------------------------------------- encodings

TEST(Encode, BinaryGrayOneHotShapes) {
  SynthesisResult r = synthSqrt();
  auto bin = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                              StateEncoding::Binary);
  auto gray = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                               StateEncoding::Gray);
  auto hot = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                              StateEncoding::OneHot);
  int n = (int)r.design.ctrl.numStates();
  EXPECT_EQ(bin.stateBits, bitsForStates((std::uint64_t)n));
  EXPECT_EQ(gray.stateBits, bin.stateBits);
  EXPECT_EQ(hot.stateBits, n);
  // Codes are unique in every encoding.
  for (auto* e : {&bin, &gray, &hot}) {
    std::set<std::uint64_t> seen(e->codeOf.begin(), e->codeOf.end());
    EXPECT_EQ(seen.size(), e->codeOf.size());
  }
  // Gray: successive codes differ in exactly one bit.
  for (std::size_t s = 1; s < gray.codeOf.size(); ++s) {
    std::uint64_t diff = gray.codeOf[s] ^ gray.codeOf[s - 1];
    EXPECT_EQ(__builtin_popcountll(diff), 1);
  }
}

TEST(Encode, MinimizationPreservesFunction) {
  SynthesisResult r = synthSqrt();
  for (auto enc : {StateEncoding::Binary, StateEncoding::Gray}) {
    auto e = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                              enc);
    ASSERT_LE(e.numInputs(), 16);
    EXPECT_TRUE(coversEquivalent(e.logic, e.minimizedLogic))
        << stateEncodingName(enc);
    EXPECT_LE(e.minimizedLogic.termCount(), e.logic.termCount());
  }
}

TEST(Encode, OneHotUsesFewerLiteralsPerTerm) {
  SynthesisResult r = synthSqrt();
  auto bin = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                              StateEncoding::Binary);
  auto hot = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                              StateEncoding::OneHot);
  double binAvg = (double)bin.logic.literalCount() / bin.logic.termCount();
  double hotAvg = (double)hot.logic.literalCount() / hot.logic.termCount();
  EXPECT_LT(hotAvg, binAvg);  // single-literal state decode
}

/// A 64-state controller cycling 0 -> 1 -> ... -> 63 (halt): every even
/// state branches (taken: next state, not taken: the one after) and loads
/// register 0, so the cover has one control signal besides the next state.
Controller sixtyFourStateController(InterconnectResult& ic) {
  ic.regInput.resize(1);
  Controller ctrl;
  const std::size_t n = 64;
  for (std::size_t s = 0; s < n; ++s) {
    CtrlState st;
    st.id = StateId(s);
    if (s + 1 == n) {
      st.halt = true;
    } else if (s % 2 == 0) {
      st.conditional = true;
      st.nextTaken = StateId(s + 1);
      st.nextNot = StateId(std::min(s + 2, n - 1));
      st.regActions.push_back({0, -1});
    } else {
      st.next = StateId(s + 1);
    }
    ctrl.states.push_back(st);
  }
  ctrl.initial = StateId(0);
  ctrl.haltState = StateId(n - 1);
  return ctrl;
}

TEST(Encode, OneHotSixtyFourStatesReadsTheConditionBit) {
  // 64 one-hot states fill all 64 code bits, so the branch condition is
  // cover input 64 and evaluation has to read a second input word (a
  // single-word evaluation shifted by 64, which is undefined behaviour).
  InterconnectResult ic;
  FuBinding binding;
  Controller ctrl = sixtyFourStateController(ic);
  EncodedFsm e = encodeController(ctrl, ic, binding, StateEncoding::OneHot);
  ASSERT_EQ(e.encoding, StateEncoding::OneHot);
  ASSERT_EQ(e.stateBits, 64);
  ASSERT_EQ(e.numInputs(), 65);
  for (std::size_t s = 0; s < ctrl.numStates(); ++s) {
    const CtrlState& st = ctrl.states[s];
    for (std::uint64_t cond : {0ull, 1ull}) {
      const std::uint64_t in[2] = {e.codeOf[s], cond};
      const std::vector<bool> raw = e.logic.eval(in);
      EXPECT_EQ(e.minimizedLogic.eval(in), raw) << s << " cond " << cond;
      StateId next = st.conditional ? (cond ? st.nextTaken : st.nextNot)
                     : st.halt      ? st.id
                                    : st.next;
      std::uint64_t got = 0;
      for (int b = 0; b < 64; ++b)
        if (raw[(std::size_t)b]) got |= 1ULL << b;
      EXPECT_EQ(got, e.codeOf[next.index()]) << s << " cond " << cond;
      EXPECT_EQ(raw[64], st.conditional) << "r0_en in state " << s;
    }
  }
  EXPECT_EQ(validateEncoding(e, ctrl), "");
}

TEST(Encode, ValidateEncodingAcceptsEveryBuiltinEncoding) {
  SynthesisResult r = synthSqrt();
  for (auto enc :
       {StateEncoding::Binary, StateEncoding::Gray, StateEncoding::OneHot}) {
    auto e = encodeController(r.design.ctrl, r.design.ic, r.design.binding,
                              enc);
    EXPECT_EQ(validateEncoding(e, r.design.ctrl), "")
        << stateEncodingName(enc);
  }
}

TEST(Encode, ValidateEncodingRejectsBrokenEncodings) {
  SynthesisResult r = synthSqrt();
  const Controller& ctrl = r.design.ctrl;
  ASSERT_GE(ctrl.numStates(), 3u);
  const EncodedFsm good = encodeController(ctrl, r.design.ic,
                                           r.design.binding,
                                           StateEncoding::Binary);

  EncodedFsm shared = good;
  shared.codeOf[2] = shared.codeOf[1];
  EXPECT_NE(validateEncoding(shared, ctrl).find("share code"),
            std::string::npos);

  // Dropping a raw cube leaves the minimized cover computing more.
  EncodedFsm diverged = good;
  diverged.logic.cubes.erase(diverged.logic.cubes.begin());
  EXPECT_NE(validateEncoding(diverged, ctrl).find("minimized"),
            std::string::npos);

  // Swapping two codes keeps them distinct and the covers equal, but the
  // logic still drives the old codes.
  EncodedFsm misrouted = good;
  std::swap(misrouted.codeOf[0], misrouted.codeOf[1]);
  EXPECT_NE(validateEncoding(misrouted, ctrl).find("successor"),
            std::string::npos);
}

TEST(Encode, SignalsCoverDatapathControls) {
  SynthesisResult r = synthSqrt();
  // At least one register enable and one FU mux select must exist.
  bool regEn = false, fuMux = false;
  for (const auto& name : r.fsm.signalNames) {
    if (name.find("_en") != std::string::npos) regEn = true;
    if (name.find("_m") != std::string::npos) fuMux = true;
  }
  EXPECT_TRUE(regEn);
  EXPECT_TRUE(fuMux);
}

// -------------------------------------------------------------- microcode

TEST(Microcode, HorizontalWiderThanEncoded) {
  SynthesisResult r = synthSqrt();
  EXPECT_GT(r.microHorizontal.wordWidth, r.microEncoded.wordWidth);
  EXPECT_EQ(r.microHorizontal.words.size(), r.design.ctrl.numStates());
  EXPECT_EQ(r.microEncoded.words.size(), r.design.ctrl.numStates());
}

TEST(Microcode, SequencingFieldsPresent) {
  SynthesisResult r = synthSqrt();
  EXPECT_NE(r.microEncoded.field("useq_cond"), nullptr);
  EXPECT_NE(r.microEncoded.field("useq_taken"), nullptr);
  EXPECT_NE(r.microEncoded.field("useq_fallthrough"), nullptr);
  EXPECT_EQ(r.microEncoded.field("useq_taken")->width,
            bitsForStates(r.design.ctrl.numStates()));
}

TEST(Microcode, WordsEncodeTransitions) {
  SynthesisResult r = synthSqrt();
  const Microprogram& mp = r.microEncoded;
  // Find the field indices for the sequencing fields.
  int condIdx = -1, takenIdx = -1, ftIdx = -1;
  for (std::size_t i = 0; i < mp.fields.size(); ++i) {
    if (mp.fields[i].name == "useq_cond") condIdx = (int)i;
    if (mp.fields[i].name == "useq_taken") takenIdx = (int)i;
    if (mp.fields[i].name == "useq_fallthrough") ftIdx = (int)i;
  }
  ASSERT_GE(condIdx, 0);
  for (std::size_t s = 0; s < r.design.ctrl.numStates(); ++s) {
    const CtrlState& st = r.design.ctrl.states[s];
    const auto& w = mp.words[s];
    if (st.conditional) {
      EXPECT_EQ(w[(std::size_t)condIdx], 1u);
      EXPECT_EQ(w[(std::size_t)takenIdx], st.nextTaken.get());
      EXPECT_EQ(w[(std::size_t)ftIdx], st.nextNot.get());
    } else {
      EXPECT_EQ(w[(std::size_t)condIdx], 0u);
      StateId next = st.halt ? st.id : st.next;
      EXPECT_EQ(w[(std::size_t)takenIdx], next.get());
    }
  }
}

TEST(Microcode, StoreBitsReflectStyle) {
  SynthesisResult r = synthSqrt();
  EXPECT_GT(r.microHorizontal.storeBits(), r.microEncoded.storeBits());
  EXPECT_NE(r.microEncoded.dump().find("words"), std::string::npos);
}

}  // namespace
}  // namespace mphls
