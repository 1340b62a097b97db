// Tests for the src/check/ static verification subsystem: every analyzer is
// exercised once on a known-good design (must be clean) and once on a
// hand-corrupted artifact (must fire with the expected check id). The
// Verilog linter negatives read the hand-corrupted fixtures under
// tests/fixtures/.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "check/check.h"
#include "core/designs.h"
#include "core/synthesizer.h"
#include "ir/deps.h"
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

// --- every violation of the former always-on validators --------------------

/// (block index, op index) of the first op `pred` accepts.
template <class Pred>
std::optional<std::pair<std::size_t, std::size_t>> findOp(const RtlDesign& d,
                                                          Pred pred) {
  for (const Block& blk : d.fn.blocks())
    for (std::size_t i = 0; i < blk.ops.size(); ++i)
      if (pred(blk, i)) return std::make_pair(blk.id.index(), i);
  return std::nullopt;
}

std::optional<std::pair<std::size_t, std::size_t>> boundOp(
    const RtlDesign& d) {
  return findOp(d, [&](const Block& blk, std::size_t i) {
    return d.binding.fuOfOp[blk.id.index()][i] >= 0;
  });
}

/// The first live storage item, optionally wider than one bit.
std::optional<std::size_t> liveItem(const RtlDesign& d, int minWidth = 1) {
  for (std::size_t i = 0; i < d.lifetimes.items.size(); ++i)
    if (!d.lifetimes.items[i].live.empty() &&
        d.lifetimes.items[i].width >= minWidth && d.regs.regOfItem[i] >= 0)
      return i;
  return std::nullopt;
}

/// The mux a transfer lands on.
MuxSpec& muxOf(InterconnectResult& ic, const Transfer& t) {
  const auto id = (std::size_t)t.destId;
  if (t.destKind == Transfer::DestKind::FuPort)
    return ic.fuInput[id][(std::size_t)t.destPort];
  if (t.destKind == Transfer::DestKind::Reg) return ic.regInput[id];
  return ic.outPortInput[id];
}

/// The first state `pred` accepts.
template <class Pred>
CtrlState* findState(Controller& ctrl, Pred pred) {
  for (CtrlState& st : ctrl.states)
    if (pred(st)) return &st;
  return nullptr;
}

// One hand mutation of a builtin design per error branch of the former
// always-on validators (schedule, registers, units, interconnect,
// controller). The analyzer of the mutated stage must report it under the
// expected id, and so must the stage's validate* adapter.
TEST(Checks, AnalyzersCatchEveryValidatorViolation) {
  enum class Stage { Schedule, Binding, Controller };
  // Applies the mutation; false when the design offers no place for it.
  using Mutate = std::function<bool(RtlDesign&, ResourceLimits&)>;
  struct Case {
    const char* name;
    Stage stage;
    const char* id;
    Mutate mutate;
  };
  const std::vector<Case> cases = {
      // --- schedule
      {"block count", Stage::Schedule, "sched.block-count",
       [](RtlDesign& d, ResourceLimits&) {
         d.sched.blocks.pop_back();
         return true;
       }},
      {"op count", Stage::Schedule, "sched.op-count",
       [](RtlDesign& d, ResourceLimits&) {
         for (BlockSchedule& bs : d.sched.blocks)
           if (!bs.step.empty()) {
             bs.step.pop_back();
             return true;
           }
         return false;
       }},
      {"step range", Stage::Schedule, "sched.step-range",
       [](RtlDesign& d, ResourceLimits&) {
         for (BlockSchedule& bs : d.sched.blocks)
           if (!bs.step.empty()) {
             bs.step.front() = std::max(bs.numSteps, 1);
             return true;
           }
         return false;
       }},
      {"dependence separation", Stage::Schedule, "sched.dep-order",
       [](RtlDesign& d, ResourceLimits&) {
         for (const Block& blk : d.fn.blocks()) {
           BlockDeps deps(d.fn, blk);
           for (const DepEdge& e : deps.edges())
             if (deps.edgeLatency(e) > 0) {
               auto& step = d.sched.blocks[blk.id.index()].step;
               step[e.to] = step[e.from];
               return true;
             }
         }
         return false;
       }},
      {"universal units", Stage::Schedule, "sched.resource-limit",
       [](RtlDesign&, ResourceLimits& limits) {
         limits = ResourceLimits::universalSet(1);
         return true;
       }},
      {"universal moves", Stage::Schedule, "sched.resource-limit",
       [](RtlDesign& d, ResourceLimits& limits) {
         limits.perClass[FuClass::Move] = 0;
         return findOp(d, [&](const Block& blk, std::size_t i) {
                  return scheduleClassOf(d.fn, d.fn.op(blk.ops[i])) ==
                         FuClass::Move;
                }).has_value();
       }},
      {"class units", Stage::Schedule, "sched.resource-limit",
       [](RtlDesign& d, ResourceLimits& limits) {
         auto at = findOp(d, [&](const Block& blk, std::size_t i) {
           const FuClass c = scheduleClassOf(d.fn, d.fn.op(blk.ops[i]));
           return c != FuClass::None && c != FuClass::Move;
         });
         if (!at) return false;
         const Block& blk = d.fn.block(BlockId(at->first));
         limits = ResourceLimits::withClasses(
             {{scheduleClassOf(d.fn, d.fn.op(blk.ops[at->second])), 0}});
         return true;
       }},
      // --- registers
      {"item count", Stage::Binding, "bind.reg-count",
       [](RtlDesign& d, ResourceLimits&) {
         d.regs.regOfItem.pop_back();
         return true;
       }},
      {"item without register", Stage::Binding, "bind.reg-range",
       [](RtlDesign& d, ResourceLimits&) {
         auto i = liveItem(d);
         if (i) d.regs.regOfItem[*i] = -1;
         return i.has_value();
       }},
      {"narrow register", Stage::Binding, "bind.reg-width",
       [](RtlDesign& d, ResourceLimits&) {
         auto i = liveItem(d, 2);
         if (i)
           d.regs.regWidth[(std::size_t)d.regs.regOfItem[*i]] =
               d.lifetimes.items[*i].width - 1;
         return i.has_value();
       }},
      {"short width table", Stage::Binding, "bind.reg-width",
       [](RtlDesign& d, ResourceLimits&) {
         d.regs.regWidth.clear();
         return liveItem(d).has_value();
       }},
      {"overlapping lifetimes", Stage::Binding, "bind.reg-overlap",
       [](RtlDesign& d, ResourceLimits&) {
         const auto& items = d.lifetimes.items;
         for (std::size_t i = 0; i < items.size(); ++i)
           for (std::size_t j = i + 1; j < items.size(); ++j)
             if (items[i].live.overlaps(items[j].live) &&
                 !items[i].live.empty() && !items[j].live.empty() &&
                 d.regs.regOfItem[i] >= 0 &&
                 d.regs.regWidth[(std::size_t)d.regs.regOfItem[i]] >=
                     items[j].width) {
               d.regs.regOfItem[j] = d.regs.regOfItem[i];
               return true;
             }
         return false;
       }},
      // --- functional units
      {"unit on a free op", Stage::Binding, "bind.fu-spurious",
       [](RtlDesign& d, ResourceLimits&) {
         auto at = findOp(d, [&](const Block& blk, std::size_t i) {
           const FuClass c = scheduleClassOf(d.fn, d.fn.op(blk.ops[i]));
           return c == FuClass::None || c == FuClass::Move;
         });
         if (at) d.binding.fuOfOp[at->first][at->second] = 0;
         return at.has_value();
       }},
      {"op without unit", Stage::Binding, "bind.fu-unbound",
       [](RtlDesign& d, ResourceLimits&) {
         auto at = boundOp(d);
         if (at) d.binding.fuOfOp[at->first][at->second] = -1;
         return at.has_value();
       }},
      {"unit out of range", Stage::Binding, "bind.fu-range",
       [](RtlDesign& d, ResourceLimits&) {
         auto at = boundOp(d);
         if (at) d.binding.fuOfOp[at->first][at->second] = d.binding.numFus();
         return at.has_value();
       }},
      {"unit lacks the op", Stage::Binding, "bind.fu-op-support",
       [](RtlDesign& d, ResourceLimits&) {
         auto at = boundOp(d);
         if (at)
           d.binding.fus[(std::size_t)d.binding.fuOfOp[at->first][at->second]]
               .kinds.clear();
         return at.has_value();
       }},
      {"component lacks the op", Stage::Binding, "bind.fu-comp-support",
       [](RtlDesign& d, ResourceLimits&) {
         auto at = boundOp(d);
         if (!at) return false;
         const OpKind kind =
             d.fn.op(d.fn.block(BlockId(at->first)).ops[at->second]).kind;
         for (const Component& comp : d.lib.components())
           if (!comp.supports(kind)) {
             d.binding.fus[(std::size_t)d.binding.fuOfOp[at->first]
                                                        [at->second]]
                 .comp = comp.id;
             return true;
           }
         return false;
       }},
      {"unit double-booked", Stage::Binding, "bind.fu-conflict",
       [](RtlDesign& d, ResourceLimits&) {
         for (const Block& blk : d.fn.blocks()) {
           std::vector<int>& fuOf = d.binding.fuOfOp[blk.id.index()];
           const std::vector<int>& step = d.sched.of(blk.id).step;
           for (std::size_t i = 0; i < fuOf.size(); ++i)
             for (std::size_t j = i + 1; j < fuOf.size(); ++j)
               if (fuOf[i] >= 0 && fuOf[j] >= 0 && fuOf[i] != fuOf[j] &&
                   step[i] == step[j]) {
                 fuOf[j] = fuOf[i];
                 return true;
               }
         }
         return false;
       }},
      // --- interconnect
      {"source missing from mux", Stage::Binding, "bind.mux-missing",
       [](RtlDesign& d, ResourceLimits&) {
         if (d.ic.transfers.empty()) return false;
         const Transfer& t = d.ic.transfers.front();
         auto& legs = muxOf(d.ic, t).sources;
         legs.erase(std::remove(legs.begin(), legs.end(), t.src), legs.end());
         return true;
       }},
      {"transfer without bus", Stage::Binding, "bind.bus-range",
       [](RtlDesign& d, ResourceLimits&) {
         if (d.ic.busOfTransfer.empty()) return false;
         d.ic.busOfTransfer.front() = d.ic.numBuses;
         return true;
       }},
      {"bus carries two values", Stage::Binding, "bind.bus-conflict",
       [](RtlDesign& d, ResourceLimits&) {
         const auto& ts = d.ic.transfers;
         for (std::size_t i = 0; i < ts.size(); ++i)
           for (std::size_t j = i + 1; j < ts.size(); ++j)
             if (ts[i].step == ts[j].step && !(ts[i].src == ts[j].src) &&
                 d.ic.busOfTransfer[i] != d.ic.busOfTransfer[j]) {
               d.ic.busOfTransfer[j] = d.ic.busOfTransfer[i];
               return true;
             }
         return false;
       }},
      // --- controller
      {"initial state", Stage::Controller, "ctrl.transition-range",
       [](RtlDesign& d, ResourceLimits&) {
         d.ctrl.initial = StateId::invalid();
         return true;
       }},
      {"conditional target", Stage::Controller, "ctrl.transition-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return s.conditional; });
         if (st) st->nextNot = StateId::invalid();
         return st != nullptr;
       }},
      {"condition unit", Stage::Controller, "ctrl.cond-source",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return s.conditional; });
         if (!st) return false;
         st->cond.kind = Source::Kind::Fu;
         st->cond.id = d.binding.numFus();
         return true;
       }},
      {"no successor", Stage::Controller, "ctrl.transition-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(d.ctrl, [](const CtrlState& s) {
           return !s.halt && !s.conditional;
         });
         if (st) st->next = StateId::invalid();
         return st != nullptr;
       }},
      {"FU action unit", Stage::Controller, "ctrl.action-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return !s.fuActions.empty(); });
         if (st) st->fuActions.front().fu = d.binding.numFus() + 7;
         return st != nullptr;
       }},
      {"FU mux select", Stage::Controller, "ctrl.action-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return !s.fuActions.empty(); });
         if (!st) return false;
         FuAction& fa = st->fuActions.front();
         fa.muxSel[0] = d.ic.fuInput[(std::size_t)fa.fu][0].legs();
         return true;
       }},
      {"register action register", Stage::Controller, "ctrl.action-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return !s.regActions.empty(); });
         if (st) st->regActions.front().reg = (int)d.ic.regInput.size();
         return st != nullptr;
       }},
      {"register action select", Stage::Controller, "ctrl.action-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return !s.regActions.empty(); });
         if (st) st->regActions.front().muxSel = -1;
         return st != nullptr;
       }},
      {"port action port", Stage::Controller, "ctrl.action-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return !s.portActions.empty(); });
         if (st) st->portActions.front().port = -3;
         return st != nullptr;
       }},
      {"port action select", Stage::Controller, "ctrl.action-range",
       [](RtlDesign& d, ResourceLimits&) {
         CtrlState* st = findState(
             d.ctrl, [](const CtrlState& s) { return !s.portActions.empty(); });
         if (!st) return false;
         PortAction& pa = st->portActions.front();
         pa.muxSel = d.ic.outPortInput[(std::size_t)pa.port].legs();
         return true;
       }},
  };

  const SynthesisOptions opts = baseOptions();
  std::vector<SynthesisResult> builtins;
  for (const auto& b : designs::all())
    builtins.push_back(synthesizeDesign(b.source, opts));
  const OpLatencyModel& lat = opts.latencies;
  for (const Case& c : cases) {
    // The first builtin the mutation applies to.
    std::optional<RtlDesign> hit;
    ResourceLimits limits;
    for (const SynthesisResult& r : builtins) {
      RtlDesign d = r.design;
      limits = opts.resources;
      if (c.mutate(d, limits)) {
        hit = std::move(d);
        break;
      }
    }
    ASSERT_TRUE(hit) << c.name << ": no builtin offers the mutation";
    const RtlDesign& d = *hit;
    CheckReport rep;
    std::string adapter;
    switch (c.stage) {
      case Stage::Schedule:
        checkSchedule(d.fn, d.sched, limits, lat, rep);
        adapter = validateSchedule(d.fn, d.sched, limits, lat);
        break;
      case Stage::Binding:
        checkBinding(d.fn, d.sched, d.lifetimes, d.regs, d.binding, d.ic,
                     d.lib, lat, rep);
        adapter = validateRegAssignment(d.lifetimes, d.regs) +
                  validateFuBinding(d.fn, d.sched, d.binding, d.lib, lat) +
                  validateInterconnect(d.ic);
        break;
      case Stage::Controller:
        checkController(d.fn, d.sched, d.ctrl, d.ic, d.binding, lat, rep);
        adapter = validateController(d.ctrl, d.ic, d.binding);
        break;
    }
    EXPECT_TRUE(rep.has(c.id)) << c.name << ":\n" << rep.render();
    EXPECT_GT(rep.errorCount(), 0u) << c.name;
    EXPECT_NE(adapter, "") << c.name;
  }
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
