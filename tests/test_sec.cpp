// Tests for the symbolic equivalence engine (src/sec/): the CDCL SAT core
// on known sat/unsat instances, expression normalization (idempotence, AC
// canonicalization, constant folding through evalPure), the bit-blaster
// cross-checked against the interpreter's arithmetic, the behavioral-vs-RTL
// sequential prover over every built-in design at every optimization
// level, per-pass translation validation, and — the gate's self-test —
// must-fail proofs for each injected miscompile. Also pins the diagnostics
// engine's deterministic ordering and JSON rendering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/report.h"
#include "common/bitutil.h"
#include "core/designs.h"
#include "core/synthesizer.h"
#include "fuzz/diff_runner.h"
#include "ir/interp.h"
#include "lang/frontend.h"
#include "sec/bitblast.h"
#include "sec/expr.h"
#include "sec/passes.h"
#include "sec/prove.h"
#include "sec/sat.h"

namespace mphls {
namespace {

// ------------------------------------------------------------ SAT solver

TEST(SecSat, UnitPropagationSat) {
  sec::SatSolver s;
  int a = s.newVar(), b = s.newVar();
  s.addClause({sec::SatSolver::lit(a, false), sec::SatSolver::lit(b, false)});
  s.addClause({sec::SatSolver::lit(a, true)});  // ~a
  ASSERT_EQ(s.solve(), sec::SatSolver::Result::Sat);
  EXPECT_FALSE(s.modelValue(a));
  EXPECT_TRUE(s.modelValue(b));
}

TEST(SecSat, TrivialConflictUnsat) {
  sec::SatSolver s;
  int a = s.newVar(), b = s.newVar();
  s.addClause({sec::SatSolver::lit(a, false), sec::SatSolver::lit(b, false)});
  s.addClause({sec::SatSolver::lit(a, true)});
  s.addClause({sec::SatSolver::lit(b, true)});
  EXPECT_EQ(s.solve(), sec::SatSolver::Result::Unsat);
}

TEST(SecSat, EmptyClauseUnsat) {
  sec::SatSolver s;
  s.newVar();
  s.addClause({});
  EXPECT_EQ(s.solve(), sec::SatSolver::Result::Unsat);
}

/// Pigeonhole instance: `pigeons` into `holes`. UNSAT when pigeons > holes;
/// requires genuine conflict-driven search, not just propagation.
sec::SatSolver::Result solvePigeonhole(int pigeons, int holes, long budget) {
  sec::SatSolver s;
  std::vector<std::vector<int>> x((std::size_t)pigeons);
  for (int p = 0; p < pigeons; ++p)
    for (int h = 0; h < holes; ++h)
      x[(std::size_t)p].push_back(s.newVar());
  for (int p = 0; p < pigeons; ++p) {
    std::vector<int> clause;
    for (int h = 0; h < holes; ++h)
      clause.push_back(sec::SatSolver::lit(x[(std::size_t)p][(std::size_t)h],
                                           false));
    s.addClause(std::move(clause));
  }
  for (int h = 0; h < holes; ++h)
    for (int p = 0; p < pigeons; ++p)
      for (int q = p + 1; q < pigeons; ++q)
        s.addClause(
            {sec::SatSolver::lit(x[(std::size_t)p][(std::size_t)h], true),
             sec::SatSolver::lit(x[(std::size_t)q][(std::size_t)h], true)});
  return s.solve(budget);
}

TEST(SecSat, Pigeonhole4Into3Unsat) {
  EXPECT_EQ(solvePigeonhole(4, 3, -1), sec::SatSolver::Result::Unsat);
}

TEST(SecSat, Pigeonhole3Into3Sat) {
  EXPECT_EQ(solvePigeonhole(3, 3, -1), sec::SatSolver::Result::Sat);
}

TEST(SecSat, BudgetExhaustionReportsUnknown) {
  // 7-into-6 needs far more than two conflicts; the budget must surface as
  // an explicit Unknown, never a wrong verdict or a hang.
  EXPECT_EQ(solvePigeonhole(7, 6, 2), sec::SatSolver::Result::Unknown);
}

// ------------------------------------------------ expression normalization

TEST(SecExpr, HashConsingIsIdempotent) {
  sec::ExprContext ctx;
  int a = ctx.mkVar("a", 16);
  int b = ctx.mkVar("b", 16);
  int n1 = ctx.mkOp(OpKind::Add, 16, 0, {a, b});
  int n2 = ctx.mkOp(OpKind::Add, 16, 0, {b, a});  // commuted
  int n3 = ctx.mkOp(OpKind::Add, 16, 0, {a, b});  // repeated
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(n1, n3);
}

TEST(SecExpr, ConstantFoldingMatchesEvalPure) {
  sec::ExprContext ctx;
  int c1 = ctx.mkConst(200, 8);
  int c2 = ctx.mkConst(100, 8);
  int sum = ctx.mkOp(OpKind::Add, 8, 0, {c1, c2});
  std::uint64_t v = 0;
  ASSERT_TRUE(ctx.constValue(sum, v));
  EXPECT_EQ(v, Interpreter::evalPure(OpKind::Add, 8, 0, {200, 100}, {8, 8}));
  EXPECT_EQ(v, 44u);  // (200 + 100) mod 256
}

TEST(SecExpr, AcChainsCanonicalizeAcrossReassociation) {
  sec::ExprContext ctx;
  int a = ctx.mkVar("a", 32);
  int b = ctx.mkVar("b", 32);
  int c = ctx.mkVar("c", 32);
  int d = ctx.mkVar("d", 32);
  auto add = [&](int x, int y) { return ctx.mkOp(OpKind::Add, 32, 0, {x, y}); };
  // Linear chain vs balanced tree vs fully reversed: all one node. This is
  // what keeps the tree-height pass's proof structural.
  int linear = add(add(add(a, b), c), d);
  int tree = add(add(a, b), add(c, d));
  int reversed = add(d, add(c, add(b, a)));
  EXPECT_EQ(linear, tree);
  EXPECT_EQ(linear, reversed);

  auto mul = [&](int x, int y) { return ctx.mkOp(OpKind::Mul, 32, 0, {x, y}); };
  EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
}

TEST(SecExpr, AcChainsFoldConstantLeaves) {
  sec::ExprContext ctx;
  int a = ctx.mkVar("a", 16);
  auto add = [&](int x, int y) { return ctx.mkOp(OpKind::Add, 16, 0, {x, y}); };
  int viaChain = add(add(a, ctx.mkConst(3, 16)), ctx.mkConst(5, 16));
  int direct = add(a, ctx.mkConst(8, 16));
  EXPECT_EQ(viaChain, direct);
  // Identity element drops out entirely.
  EXPECT_EQ(add(a, ctx.mkConst(0, 16)), a);
}

TEST(SecExpr, XorCancellationAndIdempotence) {
  sec::ExprContext ctx;
  int a = ctx.mkVar("a", 8);
  int b = ctx.mkVar("b", 8);
  int axb = ctx.mkOp(OpKind::Xor, 8, 0, {a, b});
  int zero = ctx.mkOp(OpKind::Xor, 8, 0, {axb, axb});
  std::uint64_t v = 1;
  ASSERT_TRUE(ctx.constValue(zero, v));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(ctx.mkOp(OpKind::Xor, 8, 0, {axb, b}), a);
  int aab = ctx.mkOp(OpKind::And, 8, 0, {a, b});
  EXPECT_EQ(ctx.mkOp(OpKind::And, 8, 0, {aab, a}), aab);
}

TEST(SecExpr, ResizeRoundTripCollapses) {
  sec::ExprContext ctx;
  int a = ctx.mkVar("a", 8);
  // zext_16(x_8) truncated back to 8 is x.
  EXPECT_EQ(ctx.resize(ctx.resize(a, 16), 8), a);
}

// ------------------------------------------------------------- bit-blaster

/// Cross-check one op against evalPure: blast `op(vars...) == evalPure
/// result` under assumptions pinning each var to its concrete pattern;
/// the miter must be UNSAT (Equal).
void crossCheck(OpKind op, int width, std::int64_t imm,
                std::vector<std::uint64_t> vals,
                const std::vector<int>& widths) {
  sec::ExprContext ctx;
  std::vector<int> vars;
  std::vector<int> assumptions;
  // Raw patterns always fit their width (the interpreter's invariant).
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = truncBits(vals[i], widths[i]);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive (see vcd.cpp).
    std::string vname = "v";
    vname += std::to_string(i);
    int v = ctx.mkVar(vname, widths[i]);
    vars.push_back(v);
    assumptions.push_back(ctx.mkOp(
        OpKind::Eq, 1, 0, {v, ctx.mkConst(vals[i], widths[i])}));
  }
  int node = ctx.mkOp(op, width, imm, vars);
  std::uint64_t expect = Interpreter::evalPure(op, width, imm, vals, widths);
  sec::ProveResult r = sec::proveEqual(ctx, node,
                                       ctx.mkConst(expect, width),
                                       assumptions);
  EXPECT_TRUE(r.equal()) << opName(op) << " width " << width << " disagrees "
                         << "with evalPure";
}

TEST(SecBlast, MatchesEvalPureOnMixedWidthPatterns) {
  // A sweep over the arithmetic fragment with deliberately awkward
  // patterns: sign bits set, mixed operand widths, div-by-zero.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> pats = {
      {0, 0}, {1, 3}, {0x80, 0x7f}, {0xff, 0xff}, {0xAA, 0x55}, {37, 0}};
  const std::vector<OpKind> kinds = {
      OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div,  OpKind::UDiv,
      OpKind::Mod, OpKind::UMod, OpKind::And, OpKind::Or,  OpKind::Xor,
      OpKind::Shl, OpKind::Shr,  OpKind::Sar, OpKind::Eq,  OpKind::Ne,
      OpKind::Lt,  OpKind::Le,   OpKind::ULt, OpKind::UGe};
  for (OpKind k : kinds) {
    int width = opIsCompare(k) ? 1 : 8;
    for (const auto& [x, y] : pats) {
      crossCheck(k, width, 0, {x, y}, {8, 8});
      crossCheck(k, width, 0, {x, y}, {8, 5});  // mixed operand widths
    }
  }
  crossCheck(OpKind::SExt, 16, 0, {0x80}, {8});
  crossCheck(OpKind::SExt, 16, 0, {0x7f}, {8});
  crossCheck(OpKind::Trunc, 4, 0, {0xff}, {8});
  crossCheck(OpKind::SarConst, 8, 3, {0x90}, {8});
  crossCheck(OpKind::ShlConst, 8, 3, {0x90}, {8});
  crossCheck(OpKind::Select, 8, 0, {1, 0x12, 0x34}, {1, 8, 8});
  crossCheck(OpKind::Select, 8, 0, {0, 0x12, 0x34}, {1, 8, 8});
}

TEST(SecBlast, StructuralDischargeSkipsSat) {
  sec::ExprContext ctx;
  int a = ctx.mkVar("a", 32);
  int b = ctx.mkVar("b", 32);
  int n1 = ctx.mkOp(OpKind::Mul, 32, 0, {a, b});
  int n2 = ctx.mkOp(OpKind::Mul, 32, 0, {b, a});
  sec::ProveResult r = sec::proveEqual(ctx, n1, n2);
  EXPECT_TRUE(r.equal());
  EXPECT_TRUE(r.structural);
}

TEST(SecBlast, InequivalenceYieldsCounterexample) {
  sec::ExprContext ctx;
  int a = ctx.mkVar("a", 8);
  int b = ctx.mkVar("b", 8);
  sec::ProveResult r = sec::proveEqual(ctx, a, b);
  ASSERT_EQ(r.verdict, sec::ProveResult::Verdict::NotEqual);
  // The witness must actually distinguish the nodes.
  std::uint64_t va = 0, vb = 0;
  for (const auto& [name, val] : r.counterexample) {
    if (name == "a") va = val;
    if (name == "b") vb = val;
  }
  EXPECT_NE(va, vb);
}

// --------------------------------------------- behavioral-vs-RTL sequential

SynthesisOptions proveOptions(OptLevel opt, bool narrow) {
  SynthesisOptions opts;
  opts.opt = opt;
  opts.narrow = narrow;
  return opts;
}

TEST(SecProve, BuiltinsProveCleanAtEveryOptLevel) {
  for (const auto& d : designs::all()) {
    for (OptLevel opt :
         {OptLevel::None, OptLevel::Standard, OptLevel::Aggressive}) {
      for (bool narrow : {false, true}) {
        Synthesizer synth(proveOptions(opt, narrow));
        SynthesisResult r = synth.synthesizeSource(d.source);
        CheckReport rep = sec::proveEquivalence(r.design);
        EXPECT_TRUE(rep.clean())
            << d.name << " opt=" << (int)opt << " narrow=" << narrow << "\n"
            << rep.render();
      }
    }
  }
}

TEST(SecProve, SynthesisOptionProveGateAccepts) {
  SynthesisOptions opts = proveOptions(OptLevel::Standard, false);
  opts.prove = true;  // throws on a failed proof
  Synthesizer synth(opts);
  SynthesisResult r = synth.synthesizeSource(designs::all()[0].source);
  EXPECT_GT(r.stages.prove, 0.0);
}

// ------------------------------------------------- per-pass translation TV

TEST(SecPassTv, PipelinesValidateCleanOnBuiltins) {
  for (const auto& d : designs::all()) {
    for (bool aggressive : {false, true}) {
      Function fn = compileBdlOrThrow(d.source);
      PassManager pm = aggressive ? PassManager::aggressivePipeline()
                                  : PassManager::standardPipeline();
      CheckReport rep;
      sec::runPipelineValidated(pm, fn, rep);
      EXPECT_TRUE(rep.clean()) << d.name << (aggressive ? " aggressive" : "")
                               << "\n" << rep.render();
    }
  }
}

TEST(SecPassTv, NarrowWidthsValidatesCleanOnBuiltins) {
  for (const auto& d : designs::all()) {
    Function fn = compileBdlOrThrow(d.source);
    PassManager::standardPipeline().run(fn);
    PassManager pm;
    pm.add(createNarrowWidthsPass());
    CheckReport rep;
    sec::runPipelineValidated(pm, fn, rep);
    EXPECT_TRUE(rep.clean()) << d.name << "\n" << rep.render();
  }
}

TEST(SecPassTv, UnjustifiedNarrowingFails) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<16>, out y: uint<16>) { y = a + 1; }");
  Function bad = fn.clone();
  // Narrow the add result to a single bit: no analysis fact justifies
  // that, so the width-only validator must reject it.
  bool narrowed = false;
  for (const Value& v : bad.values()) {
    if (bad.defOf(v.id).kind == OpKind::Add && v.width > 1) {
      bad.value(v.id).width = 1;
      narrowed = true;
    }
  }
  ASSERT_TRUE(narrowed);
  CheckReport rep;
  sec::PassTvOptions opts;
  opts.assumeFacts = true;
  EXPECT_FALSE(sec::proveFunctionEquivalence(fn, bad, "bad-narrow", rep,
                                             opts));
  EXPECT_TRUE(rep.has("sec.tv.narrow-overflow")) << rep.render();
}

// ----------------------------------------------------- injected miscompiles

TEST(SecInject, MulToAddIsCaught) {
  for (const auto& d : designs::all()) {
    Function fn = compileBdlOrThrow(d.source);
    Function mutated = fn.clone();
    if (injectMulToAdd(mutated) == 0) continue;
    CheckReport rep;
    EXPECT_FALSE(sec::proveFunctionEquivalence(fn, mutated, "inject:mul",
                                               rep));
    EXPECT_TRUE(rep.has("sec.tv.mismatch")) << d.name << "\n" << rep.render();
  }
}

TEST(SecInject, ScheduleShiftIsCaught) {
  int applicable = 0;
  for (const auto& d : designs::all()) {
    Synthesizer synth(proveOptions(OptLevel::None, false));
    SynthesisResult r = synth.synthesizeSource(d.source);
    if (injectScheduleShift(r.design) == 0) continue;
    ++applicable;
    CheckReport rep = sec::proveEquivalence(r.design);
    EXPECT_FALSE(rep.clean()) << d.name << ": shifted schedule proved clean";
  }
  EXPECT_GE(applicable, 1) << "no design offered a schedule-shift site";
}

TEST(SecInject, SwappedBindingIsCaught) {
  int applicable = 0;
  for (const auto& d : designs::all()) {
    Synthesizer synth(proveOptions(OptLevel::None, false));
    SynthesisResult r = synth.synthesizeSource(d.source);
    if (injectSwappedBinding(r.design) == 0) continue;
    ++applicable;
    CheckReport rep = sec::proveEquivalence(r.design);
    EXPECT_FALSE(rep.clean()) << d.name << ": swapped binding proved clean";
  }
  EXPECT_GE(applicable, 1) << "no design offered a swappable binding";
}

TEST(SecInject, FailedProofReplaysWitnessOnVm) {
  // A mismatch proof decodes its first SAT witness by replaying the
  // input-port assignment through the bytecode co-sim and reports the
  // outcome as a note alongside the error findings.
  int replayed = 0;
  for (const auto& d : designs::all()) {
    Synthesizer synth(proveOptions(OptLevel::None, false));
    SynthesisResult r = synth.synthesizeSource(d.source);
    if (injectSwappedBinding(r.design) == 0) continue;
    CheckReport rep = sec::proveEquivalence(r.design);
    if (rep.clean()) continue;
    if (rep.has("sec.cex.replay")) ++replayed;
  }
  EXPECT_GE(replayed, 1) << "no failed proof produced a witness replay note";
}

// ------------------------------------------------- diagnostics determinism

CheckReport scrambledReport() {
  CheckReport rep;
  rep.note("z.note", "where-b", "a note");
  rep.warning("m.warn", "where-a", "a warning");
  rep.error("b.err", "where-2", "second error");
  rep.error("a.err", "where-1", "first error");
  rep.error("a.err", "where-1", "first error");  // exact duplicate
  return rep;
}

TEST(SecReport, SortedIsDeterministicAndDeduped) {
  std::vector<CheckDiag> d = scrambledReport().sorted();
  ASSERT_EQ(d.size(), 4u);  // duplicate collapsed
  EXPECT_EQ(d[0].id, "a.err");  // errors first, id-ordered
  EXPECT_EQ(d[1].id, "b.err");
  EXPECT_EQ(d[2].id, "m.warn");
  EXPECT_EQ(d[3].id, "z.note");
}

TEST(SecReport, FirstErrorKeepsInsertionOrder) {
  // firstError pinpoints the first *reported* failure (the guilty pass in
  // a translation-validation run), independent of presentation order.
  EXPECT_NE(scrambledReport().firstError().find("b.err"), std::string::npos);
}

TEST(SecReport, RenderJsonGolden) {
  CheckReport rep;
  rep.error("sec.tv.mismatch", "pass cse block \"entry\"",
            "variable 'x' differ; counterexample: a=1");
  rep.warning("sec.pass.unsupported", "pass unroll", "CFG changed");
  EXPECT_EQ(
      rep.renderJson(),
      "{\"diagnostics\":["
      "{\"severity\":\"error\",\"code\":\"sec.tv.mismatch\","
      "\"where\":\"pass cse block \\\"entry\\\"\","
      "\"message\":\"variable 'x' differ; counterexample: a=1\"},"
      "{\"severity\":\"warning\",\"code\":\"sec.pass.unsupported\","
      "\"where\":\"pass unroll\",\"message\":\"CFG changed\"}"
      "],\"errors\":1,\"warnings\":1,\"clean\":false}");
}

TEST(SecReport, EmptyReportJson) {
  EXPECT_EQ(CheckReport().renderJson(),
            "{\"diagnostics\":[],\"errors\":0,\"warnings\":0,\"clean\":true}");
}

}  // namespace
}  // namespace mphls
