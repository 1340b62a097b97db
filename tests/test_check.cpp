// Tests for the src/check/ static verification subsystem: every analyzer is
// exercised once on a known-good design (must be clean) and once on a
// hand-corrupted artifact (must fire with the expected check id). The
// Verilog linter negatives read the hand-corrupted fixtures under
// tests/fixtures/.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "check/check.h"
#include "core/designs.h"
#include "core/synthesizer.h"
#include "rtl/verilog.h"

namespace mphls {
namespace {

SynthesisOptions baseOptions() {
  SynthesisOptions opts;
  opts.resources = ResourceLimits::universalSet(2);
  opts.check = false;  // corruption tests run the analyzers themselves
  return opts;
}

SynthesisResult synthesizeDesign(const char* source,
                                 SynthesisOptions opts = baseOptions()) {
  Synthesizer synth(opts);
  return synth.synthesizeSource(source);
}

CheckOptions checkOptionsFor(const SynthesisOptions& opts) {
  CheckOptions copts;
  copts.resources = opts.resources;
  copts.latencies = opts.latencies;
  return copts;
}

std::string fixture(const std::string& name) {
  std::ifstream in(std::string(MPHLS_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- positive: every built-in design is check-clean end to end -------------

TEST(CheckClean, AllDesignsPassEveryAnalyzer) {
  for (const auto& d : designs::all()) {
    SynthesisOptions opts = baseOptions();
    SynthesisResult result = synthesizeDesign(d.source, opts);
    CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
    EXPECT_TRUE(report.clean())
        << d.name << ":\n" << report.render();
  }
}

TEST(CheckClean, MulticycleDesignsPassStageAnalyzers) {
  SynthesisOptions opts = baseOptions();
  opts.latencies = OpLatencyModel::multiCycle();
  for (const auto& d : designs::all()) {
    SynthesisResult result = synthesizeDesign(d.source, opts);
    CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
    EXPECT_TRUE(report.clean())
        << d.name << ":\n" << report.render();
  }
}

// --- schedule legality -----------------------------------------------------

TEST(CheckSchedule, DetectsDependenceViolation) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  // Pull an op scheduled after step 0 down to step 0: with ASAP-style
  // placement an op sits late only because a dependence holds it there.
  bool corrupted = false;
  for (auto& bs : result.design.sched.blocks) {
    for (int& s : bs.step) {
      if (s > 0) {
        s = 0;
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has("sched.dep-order") ||
              report.has("sched.resource-limit"))
      << report.render();
}

TEST(CheckSchedule, DetectsResourceOveruse) {
  // A schedule produced under 2 universal units cannot satisfy a 1-unit
  // limit (sqrt has parallel ops at its widest step).
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  CheckOptions copts = checkOptionsFor(opts);
  copts.resources = ResourceLimits::universalSet(1);
  CheckReport report = checkDesign(result.design, copts);
  EXPECT_TRUE(report.has("sched.resource-limit")) << report.render();
}

// --- binding consistency ---------------------------------------------------

TEST(CheckBinding, DetectsRegisterLifetimeOverlap) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::diffeqSource(), opts);
  // Force two storage items with overlapping lifetimes onto one register.
  auto& lt = result.design.lifetimes;
  auto& regs = result.design.regs;
  bool corrupted = false;
  for (std::size_t i = 0; i < lt.items.size() && !corrupted; ++i) {
    if (lt.items[i].live.empty()) continue;
    for (std::size_t j = i + 1; j < lt.items.size(); ++j) {
      if (lt.items[j].live.empty()) continue;
      if (lt.items[i].live.overlaps(lt.items[j].live) &&
          regs.regOfItem[i] != regs.regOfItem[j]) {
        regs.regOfItem[j] = regs.regOfItem[i];
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("bind.reg-overlap")) << report.render();
}

TEST(CheckBinding, DetectsUnboundOperation) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  // Strip the functional unit off the first bound op.
  bool corrupted = false;
  for (auto& blockFus : result.design.binding.fuOfOp) {
    for (int& f : blockFus) {
      if (f >= 0) {
        f = -1;
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("bind.fu-unbound")) << report.render();
}

// --- controller completeness -----------------------------------------------

TEST(CheckController, DetectsMissingAction) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::sqrtSource(), opts);
  // Drop one register latch the datapath requires.
  bool corrupted = false;
  for (auto& st : result.design.ctrl.states) {
    if (!st.regActions.empty()) {
      st.regActions.pop_back();
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("ctrl.action-missing")) << report.render();
}

TEST(CheckController, DetectsSpuriousAction) {
  SynthesisOptions opts = baseOptions();
  SynthesisResult result = synthesizeDesign(designs::gcdSource(), opts);
  // Duplicate a latch into a state that does not schedule it.
  auto& states = result.design.ctrl.states;
  bool corrupted = false;
  for (std::size_t i = 0; i < states.size() && !corrupted; ++i) {
    if (states[i].regActions.empty()) continue;
    for (std::size_t j = 0; j < states.size(); ++j) {
      if (j == i || states[j].halt) continue;
      states[j].regActions.push_back(states[i].regActions.front());
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  CheckReport report = checkDesign(result.design, checkOptionsFor(opts));
  EXPECT_TRUE(report.has("ctrl.action-extra") ||
              report.has("ctrl.action-missing"))
      << report.render();
}

// --- Verilog netlist lint --------------------------------------------------

TEST(LintVerilog, EmittedNetlistsHaveNoErrors) {
  for (const auto& d : designs::all()) {
    SynthesisResult result = synthesizeDesign(d.source);
    CheckReport report;
    lintVerilog(emitVerilog(result.design), report);
    EXPECT_TRUE(report.clean()) << d.name << ":\n" << report.render();
  }
}

TEST(LintVerilog, DetectsUndrivenNet) {
  CheckReport report;
  lintVerilog(fixture("lint_undriven.v"), report);
  EXPECT_TRUE(report.has("lint.undriven")) << report.render();
}

TEST(LintVerilog, DetectsMultiplyDrivenNet) {
  CheckReport report;
  lintVerilog(fixture("lint_multi_driven.v"), report);
  EXPECT_TRUE(report.has("lint.multi-driven")) << report.render();
}

TEST(LintVerilog, DetectsWidthMismatch) {
  CheckReport report;
  lintVerilog(fixture("lint_width_mismatch.v"), report);
  EXPECT_TRUE(report.has("lint.width-mismatch")) << report.render();
}

TEST(LintVerilog, DetectsCombinationalLoop) {
  CheckReport report;
  lintVerilog(fixture("lint_comb_loop.v"), report);
  EXPECT_TRUE(report.has("lint.comb-loop")) << report.render();
}

TEST(LintVerilog, CombinationalLoopReportOrder) {
  // Every loop is reported once, in discovery order: the unconditional
  // context first, then the case arms by label; a loop an earlier arm
  // already reported (p/q in arm C) is not repeated.
  CheckReport report;
  lintVerilog(fixture("lint_comb_loops_multi.v"), report);
  std::string text;
  for (const CheckDiag& d : report.all()) text += d.str() + "\n";
  EXPECT_EQ(text,
            "error [lint.comb-loop] net s: combinational cycle through s\n"
            "error [lint.comb-loop] net u: combinational cycle through u v\n"
            "error [lint.comb-loop] net p: combinational cycle through p q "
            "(case arm A)\n"
            "error [lint.comb-loop] net m: combinational cycle through m n "
            "(case arm B)\n");
}

TEST(LintVerilog, UnclosedPortListIsAParseError) {
  // A port list missing its ')' must not stall the parser on the ';'.
  CheckReport report;
  lintVerilog("module m(input wire a;\n  wire b;\nendmodule\n", report);
  EXPECT_TRUE(report.has("lint.parse")) << report.render();
  EXPECT_NE(report.render().find("unexpected ';' in the port list"),
            std::string::npos)
      << report.render();
}

TEST(LintVerilog, DetectsUndeclaredIdentifier) {
  CheckReport report;
  lintVerilog(fixture("lint_undeclared.v"), report);
  EXPECT_TRUE(report.has("lint.undeclared")) << report.render();
}

TEST(LintVerilog, DetectsUnusedNet) {
  CheckReport report;
  lintVerilog(fixture("lint_unused.v"), report);
  EXPECT_TRUE(report.has("lint.unused")) << report.render();
}

// --- report rendering ------------------------------------------------------

TEST(CheckReport, RendersSeverityIdAndLocation) {
  CheckReport report;
  report.error("sched.dep-order", "block loop op 3 (add)", "broken");
  report.warning("lint.unused", "net orphan", "never read");
  EXPECT_EQ(report.errorCount(), 1u);
  EXPECT_EQ(report.warningCount(), 1u);
  EXPECT_FALSE(report.clean());
  std::string text = report.render();
  EXPECT_NE(text.find("error [sched.dep-order] block loop op 3 (add)"),
            std::string::npos);
  EXPECT_NE(text.find("warning [lint.unused] net orphan"),
            std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);
}

}  // namespace
}  // namespace mphls
