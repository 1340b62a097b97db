#include "lang/parser.h"

#include <sstream>

namespace mphls {

using namespace ast;

std::string Type::str() const {
  std::ostringstream oss;
  if (width == 1 && !isSigned) return "bool";
  oss << (isSigned ? "int" : "uint") << "<" << width << ">";
  return oss.str();
}

const Token& Parser::peek(int ahead) const {
  std::size_t p = pos_ + static_cast<std::size_t>(ahead);
  return p < toks_.size() ? toks_[p] : toks_.back();
}

const Token& Parser::advance() {
  const Token& t = toks_[pos_];
  if (pos_ + 1 < toks_.size()) ++pos_;
  return t;
}

bool Parser::accept(Tok k) {
  if (at(k)) {
    advance();
    return true;
  }
  return false;
}

bool Parser::expect(Tok k, const char* where) {
  if (accept(k)) return true;
  std::ostringstream oss;
  oss << "expected " << tokName(k) << " " << where << ", found "
      << tokName(cur().kind);
  diags_.error(cur().loc, oss.str());
  return false;
}

void Parser::syncToStmt() {
  while (!at(Tok::End) && !at(Tok::Semi) && !at(Tok::RBrace)) advance();
  accept(Tok::Semi);
}

Design Parser::parseDesign() {
  Design d;
  while (!at(Tok::End)) {
    if (at(Tok::KwProc)) {
      d.procs.push_back(parseProc());
    } else {
      diags_.error(cur().loc, "expected 'proc' at top level");
      advance();
    }
  }
  return d;
}

Proc Parser::parseProc() {
  Proc p;
  p.loc = cur().loc;
  expect(Tok::KwProc, "to begin procedure");
  if (at(Tok::Ident)) {
    p.name = cur().text;
    advance();
  } else {
    diags_.error(cur().loc, "expected procedure name");
  }
  expect(Tok::LParen, "after procedure name");
  if (!at(Tok::RParen)) {
    p.params.push_back(parseParam());
    while (accept(Tok::Comma)) p.params.push_back(parseParam());
  }
  expect(Tok::RParen, "after parameters");
  p.body = parseBlock();
  return p;
}

Param Parser::parseParam() {
  Param prm;
  prm.loc = cur().loc;
  if (accept(Tok::KwIn)) {
    prm.isInput = true;
  } else if (accept(Tok::KwOut)) {
    prm.isInput = false;
  } else {
    diags_.error(cur().loc, "parameter must start with 'in' or 'out'");
  }
  if (at(Tok::Ident)) {
    prm.name = cur().text;
    advance();
  } else {
    diags_.error(cur().loc, "expected parameter name");
  }
  expect(Tok::Colon, "after parameter name");
  prm.type = parseType();
  return prm;
}

Type Parser::parseType() {
  Type t;
  if (accept(Tok::KwBool)) {
    t.width = 1;
    t.isSigned = false;
    return t;
  }
  if (accept(Tok::KwInt)) {
    t.isSigned = true;
  } else if (accept(Tok::KwUint)) {
    t.isSigned = false;
  } else {
    diags_.error(cur().loc, "expected a type");
    return t;
  }
  t.width = 32;
  if (accept(Tok::Lt)) {
    if (at(Tok::Number)) {
      t.width = static_cast<int>(cur().number);
      advance();
      if (t.width < 1 || t.width > 64) {
        diags_.error(cur().loc, "type width must be in [1, 64]");
        t.width = 32;
      }
    } else {
      diags_.error(cur().loc, "expected width after '<'");
    }
    expect(Tok::Gt, "to close type width");
  }
  return t;
}

std::vector<StmtPtr> Parser::parseBlock() {
  std::vector<StmtPtr> stmts;
  expect(Tok::LBrace, "to open block");
  while (!at(Tok::RBrace) && !at(Tok::End)) {
    auto s = parseStmt();
    if (s) stmts.push_back(std::move(s));
  }
  expect(Tok::RBrace, "to close block");
  return stmts;
}

StmtPtr Parser::parseStmt() {
  auto stmt = std::make_unique<Stmt>();
  stmt->loc = cur().loc;

  if (accept(Tok::KwVar)) {
    stmt->kind = Stmt::Kind::VarDecl;
    if (at(Tok::Ident)) {
      stmt->name = cur().text;
      advance();
    } else {
      diags_.error(cur().loc, "expected variable name after 'var'");
      syncToStmt();
      return nullptr;
    }
    expect(Tok::Colon, "after variable name");
    stmt->declType = parseType();
    if (accept(Tok::Assign)) stmt->init = parseExpr();
    expect(Tok::Semi, "after variable declaration");
    return stmt;
  }

  if (accept(Tok::KwIf)) {
    stmt->kind = Stmt::Kind::If;
    expect(Tok::LParen, "after 'if'");
    stmt->cond = parseExpr();
    expect(Tok::RParen, "after if condition");
    stmt->body = parseBlock();
    if (accept(Tok::KwElse)) {
      if (at(Tok::KwIf)) {
        auto nested = parseStmt();
        if (nested) stmt->elseBody.push_back(std::move(nested));
      } else {
        stmt->elseBody = parseBlock();
      }
    }
    return stmt;
  }

  if (accept(Tok::KwWhile)) {
    stmt->kind = Stmt::Kind::While;
    expect(Tok::LParen, "after 'while'");
    stmt->cond = parseExpr();
    expect(Tok::RParen, "after while condition");
    stmt->body = parseBlock();
    return stmt;
  }

  if (accept(Tok::KwDo)) {
    stmt->kind = Stmt::Kind::DoUntil;
    stmt->body = parseBlock();
    expect(Tok::KwUntil, "after do-body");
    expect(Tok::LParen, "after 'until'");
    stmt->cond = parseExpr();
    expect(Tok::RParen, "after until condition");
    expect(Tok::Semi, "after do-until");
    return stmt;
  }

  if (at(Tok::Ident)) {
    // Either assignment `name = expr ;` or a call `name(args) ;`.
    if (peek().kind == Tok::LParen) {
      stmt->kind = Stmt::Kind::Call;
      stmt->callee = cur().text;
      advance();
      advance();  // '('
      if (!at(Tok::RParen)) {
        stmt->callArgs.push_back(parseExpr());
        while (accept(Tok::Comma)) stmt->callArgs.push_back(parseExpr());
      }
      expect(Tok::RParen, "after call arguments");
      expect(Tok::Semi, "after call");
      return stmt;
    }
    stmt->kind = Stmt::Kind::Assign;
    stmt->name = cur().text;
    advance();
    if (!expect(Tok::Assign, "in assignment")) {
      syncToStmt();
      return nullptr;
    }
    stmt->rhs = parseExpr();
    expect(Tok::Semi, "after assignment");
    return stmt;
  }

  diags_.error(cur().loc, "expected a statement");
  syncToStmt();
  return nullptr;
}

// --------------------------------------------------------------- expressions

namespace {

ExprPtr makeBinary(BinOp op, ExprPtr a, ExprPtr b, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::Binary;
  e->binOp = op;
  e->loc = loc;
  e->children.reserve(2);
  e->children.push_back(std::move(a));
  e->children.push_back(std::move(b));
  return e;
}

}  // namespace

ExprPtr Parser::parseExpr() { return parseTernary(); }

ExprPtr Parser::parseTernary() {
  auto c = parseLogicalOr();
  if (accept(Tok::Question)) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Ternary;
    e->loc = c ? c->loc : cur().loc;
    auto t = parseTernary();
    expect(Tok::Colon, "in ternary expression");
    auto f = parseTernary();
    e->children.reserve(3);
    e->children.push_back(std::move(c));
    e->children.push_back(std::move(t));
    e->children.push_back(std::move(f));
    return e;
  }
  return c;
}

ExprPtr Parser::parseLogicalOr() {
  auto lhs = parseLogicalAnd();
  while (at(Tok::PipePipe)) {
    SourceLoc loc = cur().loc;
    advance();
    lhs = makeBinary(BinOp::LogicalOr, std::move(lhs), parseLogicalAnd(), loc);
  }
  return lhs;
}

ExprPtr Parser::parseLogicalAnd() {
  auto lhs = parseBitOr();
  while (at(Tok::AmpAmp)) {
    SourceLoc loc = cur().loc;
    advance();
    lhs = makeBinary(BinOp::LogicalAnd, std::move(lhs), parseBitOr(), loc);
  }
  return lhs;
}

ExprPtr Parser::parseBitOr() {
  auto lhs = parseBitXor();
  while (at(Tok::Pipe)) {
    SourceLoc loc = cur().loc;
    advance();
    lhs = makeBinary(BinOp::Or, std::move(lhs), parseBitXor(), loc);
  }
  return lhs;
}

ExprPtr Parser::parseBitXor() {
  auto lhs = parseBitAnd();
  while (at(Tok::Caret)) {
    SourceLoc loc = cur().loc;
    advance();
    lhs = makeBinary(BinOp::Xor, std::move(lhs), parseBitAnd(), loc);
  }
  return lhs;
}

ExprPtr Parser::parseBitAnd() {
  auto lhs = parseEquality();
  while (at(Tok::Amp)) {
    SourceLoc loc = cur().loc;
    advance();
    lhs = makeBinary(BinOp::And, std::move(lhs), parseEquality(), loc);
  }
  return lhs;
}

ExprPtr Parser::parseEquality() {
  auto lhs = parseRelational();
  for (;;) {
    if (at(Tok::Eq)) {
      SourceLoc loc = cur().loc;
      advance();
      lhs = makeBinary(BinOp::Eq, std::move(lhs), parseRelational(), loc);
    } else if (at(Tok::Ne)) {
      SourceLoc loc = cur().loc;
      advance();
      lhs = makeBinary(BinOp::Ne, std::move(lhs), parseRelational(), loc);
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::parseRelational() {
  auto lhs = parseShift();
  for (;;) {
    BinOp op;
    if (at(Tok::Lt)) {
      op = BinOp::Lt;
    } else if (at(Tok::Le)) {
      op = BinOp::Le;
    } else if (at(Tok::Gt)) {
      op = BinOp::Gt;
    } else if (at(Tok::Ge)) {
      op = BinOp::Ge;
    } else {
      return lhs;
    }
    SourceLoc loc = cur().loc;
    advance();
    lhs = makeBinary(op, std::move(lhs), parseShift(), loc);
  }
}

ExprPtr Parser::parseShift() {
  auto lhs = parseAdditive();
  for (;;) {
    if (at(Tok::Shl)) {
      SourceLoc loc = cur().loc;
      advance();
      lhs = makeBinary(BinOp::Shl, std::move(lhs), parseAdditive(), loc);
    } else if (at(Tok::Shr)) {
      SourceLoc loc = cur().loc;
      advance();
      lhs = makeBinary(BinOp::Shr, std::move(lhs), parseAdditive(), loc);
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::parseAdditive() {
  auto lhs = parseMultiplicative();
  for (;;) {
    if (at(Tok::Plus)) {
      SourceLoc loc = cur().loc;
      advance();
      lhs = makeBinary(BinOp::Add, std::move(lhs), parseMultiplicative(), loc);
    } else if (at(Tok::Minus)) {
      SourceLoc loc = cur().loc;
      advance();
      lhs = makeBinary(BinOp::Sub, std::move(lhs), parseMultiplicative(), loc);
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::parseMultiplicative() {
  auto lhs = parseUnary();
  for (;;) {
    BinOp op;
    if (at(Tok::Star)) {
      op = BinOp::Mul;
    } else if (at(Tok::Slash)) {
      op = BinOp::Div;
    } else if (at(Tok::Percent)) {
      op = BinOp::Mod;
    } else {
      return lhs;
    }
    SourceLoc loc = cur().loc;
    advance();
    lhs = makeBinary(op, std::move(lhs), parseUnary(), loc);
  }
}

ExprPtr Parser::parseUnary() {
  UnOp op;
  if (at(Tok::Minus)) {
    op = UnOp::Neg;
  } else if (at(Tok::Tilde)) {
    op = UnOp::Not;
  } else if (at(Tok::Bang)) {
    op = UnOp::LogicalNot;
  } else {
    return parsePrimary();
  }
  auto e = std::make_unique<Expr>();
  e->loc = cur().loc;
  advance();
  e->kind = Expr::Kind::Unary;
  e->unOp = op;
  e->children.push_back(parseUnary());
  return e;
}

ExprPtr Parser::parsePrimary() {
  if (accept(Tok::LParen)) {
    auto inner = parseExpr();
    expect(Tok::RParen, "to close parenthesized expression");
    return inner;
  }
  auto e = std::make_unique<Expr>();
  e->loc = cur().loc;

  if (at(Tok::Number)) {
    e->kind = Expr::Kind::Number;
    e->number = cur().number;
    advance();
    return e;
  }
  if (at(Tok::KwTrue) || at(Tok::KwFalse)) {
    e->kind = Expr::Kind::Bool;
    e->number = at(Tok::KwTrue) ? 1 : 0;
    advance();
    return e;
  }
  if (at(Tok::KwTrunc) || at(Tok::KwZext) || at(Tok::KwSext)) {
    e->kind = Expr::Kind::Cast;
    e->castKind = at(Tok::KwTrunc)  ? CastKind::Trunc
                  : at(Tok::KwZext) ? CastKind::ZExt
                                    : CastKind::SExt;
    advance();
    expect(Tok::Lt, "after cast keyword");
    if (at(Tok::Number)) {
      e->castWidth = static_cast<int>(cur().number);
      advance();
      if (e->castWidth < 1 || e->castWidth > 64) {
        diags_.error(e->loc, "cast width must be in [1, 64]");
        e->castWidth = 32;
      }
    } else {
      diags_.error(cur().loc, "expected cast width");
      e->castWidth = 32;
    }
    expect(Tok::Gt, "to close cast width");
    expect(Tok::LParen, "after cast");
    e->children.push_back(parseExpr());
    expect(Tok::RParen, "to close cast");
    return e;
  }
  if (at(Tok::Ident)) {
    e->kind = Expr::Kind::VarRef;
    e->name = cur().text;
    advance();
    return e;
  }
  diags_.error(cur().loc, "expected an expression");
  advance();
  e->kind = Expr::Kind::Number;
  e->number = 0;
  return e;
}

}  // namespace mphls
