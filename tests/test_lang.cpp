// Unit tests for the BDL frontend: lexer, parser, lowering, diagnostics,
// and behavioral correctness of compiled programs via the interpreter.
#include <gtest/gtest.h>

#include <cmath>

#include "ir/interp.h"
#include "ir/verify.h"
#include "lang/frontend.h"
#include "lang/lexer.h"
#include "lang/parser.h"

namespace mphls {
namespace {

// ------------------------------------------------------------------- lexer

TEST(Lexer, BasicTokens) {
  DiagEngine d;
  Lexer lx("proc f ( ) { x = 1 + 0x10; }", d);
  auto toks = lx.tokenize();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(toks[0].kind, Tok::KwProc);
  EXPECT_EQ(toks[1].kind, Tok::Ident);
  EXPECT_EQ(toks[1].text, "f");
  EXPECT_EQ(toks.back().kind, Tok::End);
}

TEST(Lexer, NumberBases) {
  DiagEngine d;
  Lexer lx("10 0x1F 0b101", d);
  auto toks = lx.tokenize();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(toks[0].number, 10u);
  EXPECT_EQ(toks[1].number, 0x1Fu);
  EXPECT_EQ(toks[2].number, 5u);
}

TEST(Lexer, CommentsSkipped) {
  DiagEngine d;
  Lexer lx("a # line comment\n b // c++ style\n /* block */ c", d);
  auto toks = lx.tokenize();
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(toks.size(), 4u);  // a b c <eof>
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[2].text, "c");
}

TEST(Lexer, TwoCharOperators) {
  DiagEngine d;
  Lexer lx("<< >> <= >= == != && ||", d);
  auto toks = lx.tokenize();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(toks[0].kind, Tok::Shl);
  EXPECT_EQ(toks[1].kind, Tok::Shr);
  EXPECT_EQ(toks[2].kind, Tok::Le);
  EXPECT_EQ(toks[3].kind, Tok::Ge);
  EXPECT_EQ(toks[4].kind, Tok::Eq);
  EXPECT_EQ(toks[5].kind, Tok::Ne);
  EXPECT_EQ(toks[6].kind, Tok::AmpAmp);
  EXPECT_EQ(toks[7].kind, Tok::PipePipe);
}

TEST(Lexer, ReportsBadCharacter) {
  DiagEngine d;
  Lexer lx("a $ b", d);
  (void)lx.tokenize();
  EXPECT_FALSE(d.ok());
}

// Literals up to 2^64 - 1 lex exactly in every base; one past it is an
// error at the literal, not a silent wrap.
TEST(Lexer, IntegerLiteralOverflowReported) {
  const std::pair<const char*, const char*> cases[] = {
      {"18446744073709551615", "18446744073709551616"},
      {"0xFFFFFFFFFFFFFFFF", "0x10000000000000000"},
      {"0b1111111111111111111111111111111111111111111111111111111111111111",
       "0b10000000000000000000000000000000000000000000000000000000000000000"},
  };
  for (const auto& [max, past] : cases) {
    DiagEngine ok;
    auto toks = Lexer(max, ok).tokenize();
    EXPECT_TRUE(ok.ok()) << max;
    ASSERT_EQ(toks.size(), 2u) << max;
    EXPECT_EQ(toks[0].number, ~0ULL) << max;

    const std::string src = std::string("y = ") + past + ";";
    DiagEngine bad;
    toks = Lexer(src, bad).tokenize();
    ASSERT_EQ(bad.all().size(), 1u) << past;
    EXPECT_EQ(bad.all()[0].message, "integer literal does not fit in 64 bits");
    EXPECT_EQ(bad.all()[0].loc.line, 1);
    EXPECT_EQ(bad.all()[0].loc.column, 5);
    // The literal is still one token: lexing goes on after it.
    ASSERT_EQ(toks.size(), 5u) << past;
    EXPECT_EQ(toks[3].kind, Tok::Semi);
  }
}

TEST(Lexer, TracksLineNumbers) {
  DiagEngine d;
  Lexer lx("a\nbb\n  ccc", d);
  auto toks = lx.tokenize();
  EXPECT_EQ(toks[0].loc.line, 1);
  EXPECT_EQ(toks[1].loc.line, 2);
  EXPECT_EQ(toks[2].loc.line, 3);
  EXPECT_EQ(toks[2].loc.column, 3);
}

// ------------------------------------------------------------------ parser

TEST(Parser, ProcWithParams) {
  DiagEngine d;
  Lexer lx("proc f(in a: uint<8>, out y: int<16>) { y = a; }", d);
  Parser p(lx.tokenize(), d);
  auto design = p.parseDesign();
  ASSERT_TRUE(d.ok()) << d.summary();
  ASSERT_EQ(design.procs.size(), 1u);
  const auto& f = design.procs[0];
  EXPECT_EQ(f.name, "f");
  ASSERT_EQ(f.params.size(), 2u);
  EXPECT_TRUE(f.params[0].isInput);
  EXPECT_EQ(f.params[0].type.width, 8);
  EXPECT_FALSE(f.params[0].type.isSigned);
  EXPECT_FALSE(f.params[1].isInput);
  EXPECT_TRUE(f.params[1].type.isSigned);
}

TEST(Parser, Precedence) {
  DiagEngine d;
  Lexer lx("proc f(out y: int) { y = 1 + 2 * 3; }", d);
  Parser p(lx.tokenize(), d);
  auto design = p.parseDesign();
  ASSERT_TRUE(d.ok());
  const auto& assign = *design.procs[0].body[0];
  ASSERT_EQ(assign.kind, ast::Stmt::Kind::Assign);
  // Root must be '+', with '*' as the right child.
  EXPECT_EQ(assign.rhs->binOp, ast::BinOp::Add);
  EXPECT_EQ(assign.rhs->children[1]->binOp, ast::BinOp::Mul);
}

TEST(Parser, ControlFlowForms) {
  DiagEngine d;
  const char* src = R"(
    proc f(in a: uint<8>, out y: uint<8>) {
      var i: uint<4>;
      i = 0;
      if (a > 4) { y = 1; } else if (a > 2) { y = 2; } else { y = 3; }
      while (i < 4) { i = i + 1; }
      do { i = i - 1; } until (i == 0);
    }
  )";
  Lexer lx(src, d);
  Parser p(lx.tokenize(), d);
  auto design = p.parseDesign();
  ASSERT_TRUE(d.ok()) << d.summary();
  ASSERT_EQ(design.procs[0].body.size(), 5u);
  EXPECT_EQ(design.procs[0].body[2]->kind, ast::Stmt::Kind::If);
  EXPECT_EQ(design.procs[0].body[3]->kind, ast::Stmt::Kind::While);
  EXPECT_EQ(design.procs[0].body[4]->kind, ast::Stmt::Kind::DoUntil);
}

TEST(Parser, ReportsSyntaxError) {
  DiagEngine d;
  Lexer lx("proc f( { }", d);
  Parser p(lx.tokenize(), d);
  (void)p.parseDesign();
  EXPECT_FALSE(d.ok());
}

TEST(Parser, TernaryAndCast) {
  DiagEngine d;
  Lexer lx("proc f(in a: uint<8>, out y: uint<16>) {"
           "  y = a > 4 ? zext<16>(a) : trunc<16>(a * a);"
           "}", d);
  Parser p(lx.tokenize(), d);
  auto design = p.parseDesign();
  ASSERT_TRUE(d.ok()) << d.summary();
  EXPECT_EQ(design.procs[0].body[0]->rhs->kind, ast::Expr::Kind::Ternary);
}

// ---------------------------------------------------------------- lowering

TEST(Lower, SimpleDatapath) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, in b: uint<8>, out y: uint<8>) { y = a * b + 1; }");
  EXPECT_EQ(verifyFunction(fn), "");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 6}, {"b", 7}}).outputs.at("y"), 43u);
}

// 2^64 - 1 keeps all 64 bits: a + (2^64 - 1) wraps to a - 1.
TEST(Lower, MaxLiteralKeepsAllBits) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<64>, out y: uint<64>, out z: uint<64>) {"
      " y = a + 18446744073709551615; z = a + (18446744073709551614 + 1); }");
  Interpreter in(fn);
  const auto out = in.run({{"a", 5}}).outputs;
  EXPECT_EQ(out.at("y"), 4u);
  EXPECT_EQ(out.at("z"), 4u);
}

TEST(Lower, OverflowingLiteralRejected) {
  DiagEngine d;
  EXPECT_FALSE(compileBdl(
      "proc f(in a: uint<8>, out y: uint<8>) { y = a + 99999999999999999999; }",
      d));
  ASSERT_EQ(d.all().size(), 1u);
  EXPECT_EQ(d.all()[0].str(),
            "error at 1:49: integer literal does not fit in 64 bits");
}

TEST(Lower, WidthTruncationOnAssign) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, out y: uint<4>) { y = a + 1; }");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 0xFF}}).outputs.at("y"), 0u);
}

TEST(Lower, SignedArithmetic) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: int<8>, in b: int<8>, out y: int<8>) { y = a / b; }");
  Interpreter in(fn);
  // -8 / 2 == -4 (0xFC as 8-bit).
  EXPECT_EQ(in.run({{"a", 0xF8}, {"b", 2}}).outputs.at("y"), 0xFCu);
}

TEST(Lower, MixedSignednessIsUnsigned) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, in b: int<8>, out y: bool) { y = a > b; }");
  Interpreter in(fn);
  // 200 > (-1 as unsigned 255)? unsigned compare: 200 > 255 is false.
  EXPECT_EQ(in.run({{"a", 200}, {"b", 0xFF}}).outputs.at("y"), 0u);
}

TEST(Lower, SignedComparisonUsesSign) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: int<8>, in b: int<8>, out y: bool) { y = a > b; }");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 200}, {"b", 0xFF}}).outputs.at("y"), 0u);  // -56 > -1 ? no
  EXPECT_EQ(in.run({{"a", 1}, {"b", 0xFF}}).outputs.at("y"), 1u);    // 1 > -1
}

TEST(Lower, ShiftByConstantIsFree) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, out y: uint<8>) { y = a >> 1; }");
  bool sawConstShift = false;
  for (const auto& blk : fn.blocks())
    for (OpId oid : blk.ops)
      if (fn.op(oid).kind == OpKind::ShrConst) sawConstShift = true;
  EXPECT_TRUE(sawConstShift);
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 8}}).outputs.at("y"), 4u);
}

TEST(Lower, ArithmeticShiftForSigned) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: int<8>, out y: int<8>) { y = a >> 2; }");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 0x80}}).outputs.at("y"), 0xE0u);  // -128>>2 = -32
}

TEST(Lower, IfElseJoins) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, out y: uint<8>) {"
      "  if (a > 10) { y = 1; } else { y = 2; }"
      "}");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 11}}).outputs.at("y"), 1u);
  EXPECT_EQ(in.run({{"a", 10}}).outputs.at("y"), 2u);
}

TEST(Lower, WhileLoop) {
  Function fn = compileBdlOrThrow(
      "proc f(in n: uint<8>, out y: uint<16>) {"
      "  var acc: uint<16>; var i: uint<8>;"
      "  acc = 0; i = 0;"
      "  while (i < n) { acc = acc + zext<16>(i); i = i + 1; }"
      "  y = acc;"
      "}");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"n", 5}}).outputs.at("y"), 10u);  // 0+1+2+3+4
  EXPECT_EQ(in.run({{"n", 0}}).outputs.at("y"), 0u);
}

TEST(Lower, DoUntilRunsAtLeastOnce) {
  Function fn = compileBdlOrThrow(
      "proc f(out y: uint<8>) {"
      "  var i: uint<8>; i = 9;"
      "  do { i = i + 1; } until (true);"
      "  y = i;"
      "}");
  Interpreter in(fn);
  EXPECT_EQ(in.run({}).outputs.at("y"), 10u);
}

TEST(Lower, OutParamReadable) {
  Function fn = compileBdlOrThrow(
      "proc f(out y: uint<8>) { y = 3; y = y + y; }");
  Interpreter in(fn);
  EXPECT_EQ(in.run({}).outputs.at("y"), 6u);
}

TEST(Lower, ProcedureInlining) {
  Function fn = compileBdlOrThrow(
      "proc square(in v: uint<8>, out r: uint<16>) { r = zext<16>(v) * zext<16>(v); }"
      "proc main(in a: uint<8>, out y: uint<16>) {"
      "  var t: uint<16>;"
      "  square(a, t);"
      "  y = t + 1;"
      "}");
  EXPECT_EQ(fn.name(), "main");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 9}}).outputs.at("y"), 82u);
}

TEST(Lower, NestedCallsInline) {
  Function fn = compileBdlOrThrow(
      "proc add1(in v: uint<8>, out r: uint<8>) { r = v + 1; }"
      "proc add2(in v: uint<8>, out r: uint<8>) {"
      "  var t: uint<8>; add1(v, t); add1(t, r);"
      "}"
      "proc main(in a: uint<8>, out y: uint<8>) { add2(a, y); }");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 5}}).outputs.at("y"), 7u);
}

TEST(Lower, RecursionRejected) {
  DiagEngine d;
  auto fn = compileBdl(
      "proc f(in a: uint<8>, out y: uint<8>) { f(a, y); }", d);
  EXPECT_FALSE(fn.has_value());
  EXPECT_FALSE(d.ok());
}

TEST(Lower, UndeclaredNameRejected) {
  DiagEngine d;
  auto fn = compileBdl("proc f(out y: uint<8>) { y = nope; }", d);
  EXPECT_FALSE(fn.has_value());
}

TEST(Lower, AssignToInputRejected) {
  DiagEngine d;
  auto fn = compileBdl("proc f(in a: uint<8>) { a = 1; }", d);
  EXPECT_FALSE(fn.has_value());
}

TEST(Lower, CallArityChecked) {
  DiagEngine d;
  auto fn = compileBdl(
      "proc g(in a: uint<8>, out r: uint<8>) { r = a; }"
      "proc main(in a: uint<8>, out y: uint<8>) { g(a); }", d);
  EXPECT_FALSE(fn.has_value());
}

TEST(Lower, OutArgMustBeVariable) {
  DiagEngine d;
  auto fn = compileBdl(
      "proc g(out r: uint<8>) { r = 1; }"
      "proc main(out y: uint<8>) { g(y + 1); }", d);
  EXPECT_FALSE(fn.has_value());
}

TEST(Lower, TernarySelect) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, in b: uint<8>, out y: uint<8>) {"
      "  y = a < b ? a : b;"
      "}");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 3}, {"b", 9}}).outputs.at("y"), 3u);
  EXPECT_EQ(in.run({{"a", 9}, {"b", 3}}).outputs.at("y"), 3u);
}

TEST(Lower, LogicalOps) {
  Function fn = compileBdlOrThrow(
      "proc f(in a: uint<8>, in b: uint<8>, out y: bool) {"
      "  y = (a > 1 && b > 1) || !(a == b);"
      "}");
  Interpreter in(fn);
  EXPECT_EQ(in.run({{"a", 2}, {"b", 2}}).outputs.at("y"), 1u);
  EXPECT_EQ(in.run({{"a", 1}, {"b", 1}}).outputs.at("y"), 0u);
  EXPECT_EQ(in.run({{"a", 0}, {"b", 1}}).outputs.at("y"), 1u);
}

TEST(Lower, TopSelection) {
  DiagEngine d;
  auto fn = compileBdl(
      "proc first(out y: uint<8>) { y = 1; }"
      "proc second(out y: uint<8>) { y = 2; }", d, "first");
  ASSERT_TRUE(fn.has_value());
  EXPECT_EQ(fn->name(), "first");
  // Default: last proc.
  DiagEngine d2;
  auto fn2 = compileBdl(
      "proc first(out y: uint<8>) { y = 1; }"
      "proc second(out y: uint<8>) { y = 2; }", d2);
  ASSERT_TRUE(fn2.has_value());
  EXPECT_EQ(fn2->name(), "second");
}

// The paper's Fig. 1 square-root program, as BDL. Fixed point with 12
// fraction bits; X in <1/16, 1>. Checks Newton's method convergence.
TEST(Lower, SqrtNewtonBehaves) {
  const char* src = R"(
    # Y := 0.222222 + 0.888889 * X; 4 Newton iterations (paper Fig. 1)
    proc sqrt(in x: uint<16>, out y: uint<16>) {
      var i: uint<3>;
      var t: uint<32>;
      t = zext<32>(x) * 3641;          # 0.888889 * 2^12
      y = trunc<16>(t >> 12) + 910;    # + 0.222222 * 2^12
      i = 0;
      do {
        y = (y + trunc<16>((zext<32>(x) << 12) / zext<32>(y))) >> 1;
        i = i + 1;
      } until (i > 3);
    }
  )";
  Function fn = compileBdlOrThrow(src);
  Interpreter in(fn);
  for (double xv : {0.0625, 0.1, 0.25, 0.5, 0.9, 1.0}) {
    std::uint64_t raw = static_cast<std::uint64_t>(xv * 4096.0);
    auto res = in.run({{"x", raw}});
    ASSERT_TRUE(res.finished);
    double got = static_cast<double>(res.outputs.at("y")) / 4096.0;
    EXPECT_NEAR(got, std::sqrt(xv), 0.01) << "x=" << xv;
  }
}

}  // namespace
}  // namespace mphls
