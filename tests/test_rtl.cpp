// RTL-level tests: the microprogram-driven simulator (both microword
// styles) against the FSM simulator and the behavioral interpreter, the
// shared source-evaluation helpers, and Verilog emission details.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/designs.h"
#include "core/synthesizer.h"
#include "rtl/microsim.h"
#include "rtl/rtlsim.h"
#include "rtl/source_eval.h"
#include "rtl/verilog.h"

namespace mphls {
namespace {

// ----------------------------------------------------------- source eval

TEST(SourceEval, ApplyXformChains) {
  using rtl::applyXform;
  // zext 8->16 then shl 4: 0xAB -> 0x0AB0.
  std::vector<WireXform> chain = {{OpKind::ZExt, 0, 16},
                                  {OpKind::ShlConst, 4, 16}};
  EXPECT_EQ(applyXform(0xAB, 8, chain), 0xAB0u);
  // sext 4->8 of 0xF (-1) -> 0xFF.
  std::vector<WireXform> se = {{OpKind::SExt, 0, 8}};
  EXPECT_EQ(applyXform(0xF, 4, se), 0xFFu);
  // trunc 16->4.
  std::vector<WireXform> tr = {{OpKind::Trunc, 0, 4}};
  EXPECT_EQ(applyXform(0xABCD, 16, tr), 0xDu);
  // arithmetic shift on signed root.
  std::vector<WireXform> sar = {{OpKind::SarConst, 2, 8}};
  EXPECT_EQ(applyXform(0x80, 8, sar), 0xE0u);
}

TEST(SourceEval, SourceValueKinds) {
  std::vector<std::uint64_t> regs = {42, 7};
  std::vector<std::uint64_t> ports = {3};
  std::vector<std::uint64_t> fuOut = {99};
  std::vector<bool> fuActive = {true};
  Source r{Source::Kind::Reg, 0, 0, {}, 8};
  EXPECT_EQ(rtl::sourceValue(r, regs, ports, fuOut, fuActive), 42u);
  Source p{Source::Kind::Port, 0, 0, {}, 8};
  EXPECT_EQ(rtl::sourceValue(p, regs, ports, fuOut, fuActive), 3u);
  Source c{Source::Kind::Const, 0, 1234, {}, 16};
  EXPECT_EQ(rtl::sourceValue(c, regs, ports, fuOut, fuActive), 1234u);
  Source f{Source::Kind::Fu, 0, 0, {}, 8};
  EXPECT_EQ(rtl::sourceValue(f, regs, ports, fuOut, fuActive), 99u);
  // Register read truncates to the root width.
  Source narrow{Source::Kind::Reg, 0, 0, {}, 4};
  EXPECT_EQ(rtl::sourceValue(narrow, regs, ports, fuOut, fuActive), 10u);
}

// ------------------------------------------------- microcode simulation

class MicrosimMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MicrosimMatrix, MicroprogramMatchesFsmAndBehavior) {
  const auto& design = designs::all()[(std::size_t)std::get<0>(GetParam())];
  const bool horizontal = std::get<1>(GetParam()) == 0;

  SynthesisOptions opts;
  opts.scheduler = SchedulerKind::List;
  opts.resources = ResourceLimits::universalSet(2);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(design.source);

  const Microprogram& mp =
      horizontal ? r.microHorizontal : r.microEncoded;
  MicrocodeSimulator usim(r.design, mp);
  RtlSimulator fsim(r.design);

  std::uint64_t seed = 777;
  for (int trial = 0; trial < 5; ++trial) {
    auto inputs = design.sampleInputs;
    if (trial > 0) {
      for (auto& [k, v] : inputs) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        v = std::max<std::uint64_t>(1, (v + (seed >> 55)) & 0x3FF);
      }
    }
    auto ur = usim.run(inputs);
    auto fr = fsim.run(inputs);
    ASSERT_TRUE(ur.finished) << design.name;
    ASSERT_TRUE(fr.finished) << design.name;
    EXPECT_EQ(ur.outputs, fr.outputs)
        << design.name << " " << microcodeStyleName(mp.style);
    EXPECT_EQ(ur.cycles, fr.cycles)
        << design.name << ": microsequencer cycle count differs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, MicrosimMatrix,
    ::testing::Combine(::testing::Range(0, (int)designs::all().size()),
                       ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::string n =
          designs::all()[(std::size_t)std::get<0>(info.param)].name;
      n += std::get<1>(info.param) == 0 ? "_horizontal" : "_encoded";
      return n;
    });

TEST(Microsim, CondSelectTablePopulated) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::gcdSource());
  // gcd has one loop condition.
  EXPECT_GE(r.microEncoded.condTable.size(), 1u);
  EXPECT_EQ(r.microEncoded.entryAddress, r.design.ctrl.initial.get());
  EXPECT_EQ(r.microEncoded.haltAddress, r.design.ctrl.haltState.get());
}

TEST(Microsim, HorizontalSelectsWiderThan64Legs) {
  // The default configuration gives this 1600-op chain a unit-operand mux
  // with more than 64 legs: its horizontal select field is wider than a
  // 64-bit field value, so it holds the leg index (Microprogram::oneHot).
  std::ifstream in(std::string(MPHLS_FIXTURE_DIR) + "/clique/chain1600.bdl");
  std::stringstream src;
  src << in.rdbuf();
  SynthesisOptions opts;
  opts.check = false;
  SynthesisResult r = Synthesizer(opts).synthesizeSource(src.str());
  int widest = 0;
  for (const auto& ports : r.design.ic.fuInput)
    for (const MuxSpec& m : ports) widest = std::max(widest, m.legs());
  ASSERT_GT(widest, 64);

  MicrocodeSimulator usim(r.design, r.microHorizontal);
  RtlSimulator fsim(r.design);
  for (std::uint64_t v : {1ull, 0x1234ull}) {
    std::map<std::string, std::uint64_t> inputs;
    for (int i = 0; i < 8; ++i) {
      std::string name = "i";  // appended: GCC 12 -O3 -Wrestrict misfires
      name += std::to_string(i);
      inputs[name] = v * (std::uint64_t)(i + 3);
    }
    auto ur = usim.run(inputs);
    auto fr = fsim.run(inputs);
    ASSERT_TRUE(ur.finished);
    ASSERT_TRUE(fr.finished);
    EXPECT_EQ(ur.outputs, fr.outputs);
  }
}

// ------------------------------------------------------------- verilog

TEST(Verilog, EmitsWiringTransforms) {
  // A design whose operand wiring includes shifts and extensions.
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  std::string v = emitVerilog(r.design);
  EXPECT_NE(v.find(">>"), std::string::npos);   // constant right shift
  EXPECT_NE(v.find("'d0, "), std::string::npos);  // zero extension concat
  EXPECT_NE(v.find("localparam S0"), std::string::npos);
  EXPECT_NE(v.find("assign done"), std::string::npos);
}

TEST(Verilog, StateCountMatchesController) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::fir8Source());
  std::string v = emitVerilog(r.design);
  for (std::size_t s = 0; s < r.design.ctrl.numStates(); ++s)
    EXPECT_NE(v.find("localparam S" + std::to_string(s) + " "),
              std::string::npos)
        << s;
}

TEST(Verilog, EveryRegisterDeclared) {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(1);
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::diffeqSource());
  std::string v = emitVerilog(r.design);
  for (int reg = 0; reg < r.design.regs.numRegs; ++reg) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive (see vcd.cpp).
    std::string decl = "r";
    decl += std::to_string(reg);
    decl += ";";
    EXPECT_NE(v.find(decl), std::string::npos) << reg;
  }
}

}  // namespace
}  // namespace mphls
