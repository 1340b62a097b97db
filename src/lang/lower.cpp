#include "lang/lower.h"

#include <bit>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitutil.h"
#include "ir/verify.h"

namespace mphls {

namespace {

using ast::BinOp;
using ast::CastKind;
using ast::Expr;
using ast::Stmt;
using ast::Type;
using ast::UnOp;

/// What a name refers to in the current scope.
struct Symbol {
  enum class Kind { InPort, OutPort, Var };
  Kind kind = Kind::Var;
  PortId port;   ///< for ports
  VarId var;     ///< storage (OutPort symbols use a shadow variable)
  Type type;
};

/// A typed value during expression lowering.
struct TypedValue {
  ValueId value;
  Type type;
};

class Lowerer {
 public:
  Lowerer(const ast::Design& design, DiagEngine& diags)
      : design_(design), diags_(diags) {}

  std::optional<Function> lower(const std::string& topName) {
    const ast::Proc* top = design_.findProc(topName);
    if (!top) {
      diags_.error({}, "top procedure '" + topName + "' not found");
      return std::nullopt;
    }
    fn_.emplace(top->name);
    cur_ = fn_->addBlock("entry");

    pushScope();
    for (const auto& prm : top->params) {
      if (lookupLocal(prm.name)) {
        diags_.error(prm.loc, "duplicate parameter '" + prm.name + "'");
        continue;
      }
      Symbol sym;
      sym.type = prm.type;
      if (prm.isInput) {
        sym.kind = Symbol::Kind::InPort;
        sym.port = fn_->addInput(prm.name, prm.type.width, prm.type.isSigned);
      } else {
        sym.kind = Symbol::Kind::OutPort;
        sym.port = fn_->addOutput(prm.name, prm.type.width, prm.type.isSigned);
        // Out ports are readable in BDL; back them with a shadow variable.
        sym.var = addVar(prm.name, prm.type);
      }
      scopes_.back().emplace(prm.name, sym);
    }
    callStack_.insert(top->name);
    lowerStmts(top->body);
    callStack_.erase(top->name);
    popScope();

    fn_->setReturn(cur_);
    if (!diags_.ok()) return std::nullopt;
    verifyOrThrow(*fn_);
    return std::move(*fn_);
  }

 private:
  const ast::Design& design_;
  DiagEngine& diags_;
  std::optional<Function> fn_;
  BlockId cur_;
  std::vector<std::unordered_map<std::string, Symbol>> scopes_;
  std::unordered_set<std::string> callStack_;
  /// Names of every variable added to fn_ (all distinct).
  std::unordered_set<std::string> varNames_;
  int blockCounter_ = 0;
  int tempCounter_ = 0;

  // ------------------------------------------------------------- scoping
  void pushScope() { scopes_.emplace_back(); }
  void popScope() { scopes_.pop_back(); }

  const Symbol* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->find(name);
      if (f != it->end()) return &f->second;
    }
    return nullptr;
  }
  const Symbol* lookupLocal(const std::string& name) const {
    auto f = scopes_.back().find(name);
    return f == scopes_.back().end() ? nullptr : &f->second;
  }

  BlockId newBlock(const std::string& hint) {
    return fn_->addBlock(hint + "_" + std::to_string(blockCounter_++));
  }

  // ----------------------------------------------------------- type rules

  /// Width/signedness of an arithmetic combination (max width; signed only
  /// when both operands are signed).
  static Type arithType(Type a, Type b) {
    return {std::max(a.width, b.width), a.isSigned && b.isSigned};
  }

  /// Adjust `v` to exactly `width` bits, extending by its own signedness.
  ValueId resize(TypedValue v, int width) {
    if (fn_->value(v.value).width == width) return v.value;
    if (fn_->value(v.value).width > width)
      return fn_->emitUnary(cur_, OpKind::Trunc, v.value, width);
    return fn_->emitUnary(cur_,
                          v.type.isSigned ? OpKind::SExt : OpKind::ZExt,
                          v.value, width);
  }

  /// Coerce to a bool (width-1) condition; non-bool values compare != 0.
  ValueId toBool(TypedValue v) {
    if (v.type.width == 1 && !v.type.isSigned) return v.value;
    ValueId zero = fn_->emitConst(cur_, 0, fn_->value(v.value).width);
    return fn_->emitBinary(cur_, OpKind::Ne, v.value, zero);
  }

  // ----------------------------------------------------------- expressions

  /// Bits of an unsigned literal: its bit width, at least 1 (all 64 for
  /// 2^64 - 1).
  static int literalWidth(std::uint64_t v) {
    return std::max(static_cast<int>(std::bit_width(v)), 1);
  }

  /// Compile-time evaluation of literal-only subexpressions, done before
  /// widths are assigned so `3 * 4 + 2` is 14, not a 3-bit wraparound.
  /// Only non-negative results are folded; anything else falls through to
  /// normal lowering.
  static std::optional<std::uint64_t> tryConstEval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Number:
      case Expr::Kind::Bool:
        return e.number;
      case Expr::Kind::Unary: {
        auto a = tryConstEval(*e.children[0]);
        if (!a) return std::nullopt;
        if (e.unOp == UnOp::LogicalNot) return *a == 0 ? 1 : 0;
        return std::nullopt;  // ~ and - are width-dependent
      }
      case Expr::Kind::Binary: {
        auto a = tryConstEval(*e.children[0]);
        auto b = tryConstEval(*e.children[1]);
        if (!a || !b) return std::nullopt;
        switch (e.binOp) {
          case BinOp::Add: {
            std::uint64_t r = *a + *b;
            return r >= *a ? std::optional(r) : std::nullopt;  // overflow
          }
          case BinOp::Sub:
            return *a >= *b ? std::optional(*a - *b) : std::nullopt;
          case BinOp::Mul: {
            if (*a != 0 && *b > ~0ULL / *a) return std::nullopt;
            return *a * *b;
          }
          case BinOp::Div:
            return *b != 0 ? std::optional(*a / *b) : std::nullopt;
          case BinOp::Mod:
            return *b != 0 ? std::optional(*a % *b) : std::nullopt;
          case BinOp::And: return *a & *b;
          case BinOp::Or: return *a | *b;
          case BinOp::Xor: return *a ^ *b;
          case BinOp::Shl:
            return *b < 64 && (*a << *b) >> *b == *a
                       ? std::optional(*a << *b)
                       : std::nullopt;
          case BinOp::Shr:
            return *b < 64 ? std::optional(*a >> *b) : std::nullopt;
          case BinOp::LogicalAnd: return (*a && *b) ? 1 : 0;
          case BinOp::LogicalOr: return (*a || *b) ? 1 : 0;
          case BinOp::Eq: return *a == *b ? 1 : 0;
          case BinOp::Ne: return *a != *b ? 1 : 0;
          case BinOp::Lt: return *a < *b ? 1 : 0;
          case BinOp::Le: return *a <= *b ? 1 : 0;
          case BinOp::Gt: return *a > *b ? 1 : 0;
          case BinOp::Ge: return *a >= *b ? 1 : 0;
        }
        return std::nullopt;
      }
      case Expr::Kind::Ternary: {
        auto c = tryConstEval(*e.children[0]);
        if (!c) return std::nullopt;
        return tryConstEval(*e.children[*c ? 1 : 2]);
      }
      default:
        return std::nullopt;
    }
  }

  TypedValue lowerExpr(const Expr& e) {
    if (e.kind == Expr::Kind::Binary || e.kind == Expr::Kind::Ternary) {
      if (auto folded = tryConstEval(e)) {
        int width = literalWidth(*folded);
        ValueId v =
            fn_->emitConst(cur_, static_cast<std::int64_t>(*folded), width);
        return {v, Type{width, /*isSigned=*/false}};
      }
    }
    switch (e.kind) {
      case Expr::Kind::Number: {
        int width = literalWidth(e.number);
        ValueId v = fn_->emitConst(cur_, static_cast<std::int64_t>(e.number),
                                   width);
        return {v, Type{width, /*isSigned=*/false}};
      }
      case Expr::Kind::Bool: {
        ValueId v =
            fn_->emitConst(cur_, static_cast<std::int64_t>(e.number), 1);
        return {v, Type{1, false}};
      }
      case Expr::Kind::VarRef:
        return lowerVarRef(e);
      case Expr::Kind::Unary:
        return lowerUnary(e);
      case Expr::Kind::Binary:
        return lowerBinary(e);
      case Expr::Kind::Cast:
        return lowerCast(e);
      case Expr::Kind::Ternary:
        return lowerTernary(e);
    }
    MPHLS_CHECK(false, "unhandled expr kind");
    return {};
  }

  TypedValue lowerVarRef(const Expr& e) {
    const Symbol* sym = lookup(e.name);
    if (!sym) {
      diags_.error(e.loc, "use of undeclared name '" + e.name + "'");
      return {fn_->emitConst(cur_, 0, 1), Type{1, false}};
    }
    switch (sym->kind) {
      case Symbol::Kind::InPort:
        return {fn_->emitRead(cur_, sym->port), sym->type};
      case Symbol::Kind::OutPort:
      case Symbol::Kind::Var:
        return {fn_->emitLoad(cur_, sym->var), sym->type};
    }
    return {};
  }

  TypedValue lowerUnary(const Expr& e) {
    TypedValue a = lowerExpr(*e.children[0]);
    switch (e.unOp) {
      case UnOp::Neg: {
        // Negation yields a signed value one bit wider (so -literal fits).
        Type rt{std::min(a.type.width + 1, kMaxWidth), true};
        ValueId widened = resize(a, rt.width);
        return {fn_->emitUnary(cur_, OpKind::Neg, widened, rt.width), rt};
      }
      case UnOp::Not:
        return {fn_->emitUnary(cur_, OpKind::Not, a.value, a.type.width),
                a.type};
      case UnOp::LogicalNot: {
        ValueId b = toBool(a);
        ValueId one = fn_->emitConst(cur_, 1, 1);
        return {fn_->emitBinary(cur_, OpKind::Xor, b, one), Type{1, false}};
      }
    }
    return {};
  }

  TypedValue lowerBinary(const Expr& e) {
    // Logical connectives operate on bools.
    if (e.binOp == BinOp::LogicalAnd || e.binOp == BinOp::LogicalOr) {
      ValueId a = toBool(lowerExpr(*e.children[0]));
      ValueId b = toBool(lowerExpr(*e.children[1]));
      OpKind k = e.binOp == BinOp::LogicalAnd ? OpKind::And : OpKind::Or;
      return {fn_->emitBinary(cur_, k, a, b), Type{1, false}};
    }

    TypedValue a = lowerExpr(*e.children[0]);

    // Shifts: a constant amount lowers to the free constant-shift ops —
    // the compiler-visible half of the paper's "multiplication times 0.5
    // can be replaced by a right shift" family of local transformations.
    if (e.binOp == BinOp::Shl || e.binOp == BinOp::Shr) {
      const Expr& amt = *e.children[1];
      if (amt.kind == Expr::Kind::Number) {
        auto sh = static_cast<std::int64_t>(amt.number);
        if (sh < 0 || sh >= a.type.width) {
          diags_.error(e.loc, "shift amount out of range");
          sh = 0;
        }
        OpKind k = e.binOp == BinOp::Shl ? OpKind::ShlConst
                   : a.type.isSigned     ? OpKind::SarConst
                                         : OpKind::ShrConst;
        return {fn_->emitUnary(cur_, k, a.value, a.type.width, sh), a.type};
      }
      TypedValue b = lowerExpr(amt);
      OpKind k = e.binOp == BinOp::Shl ? OpKind::Shl
                 : a.type.isSigned     ? OpKind::Sar
                                       : OpKind::Shr;
      OpId op = fn_->makeOp(cur_, k, {a.value, b.value}, a.type.width);
      return {fn_->op(op).result, a.type};
    }

    TypedValue b = lowerExpr(*e.children[1]);
    Type common = arithType(a.type, b.type);
    ValueId av = resize(a, common.width);
    ValueId bv = resize(b, common.width);

    auto cmp = [&](OpKind sk, OpKind uk) -> TypedValue {
      OpKind k = common.isSigned ? sk : uk;
      return {fn_->emitBinary(cur_, k, av, bv), Type{1, false}};
    };

    switch (e.binOp) {
      case BinOp::Add:
        return {fn_->emitBinary(cur_, OpKind::Add, av, bv, common.width),
                common};
      case BinOp::Sub: {
        Type rt{common.width, true};  // subtraction can go negative
        return {fn_->emitBinary(cur_, OpKind::Sub, av, bv, common.width), rt};
      }
      case BinOp::Mul:
        return {fn_->emitBinary(cur_, OpKind::Mul, av, bv, common.width),
                common};
      case BinOp::Div:
        return {fn_->emitBinary(cur_,
                                common.isSigned ? OpKind::Div : OpKind::UDiv,
                                av, bv, common.width),
                common};
      case BinOp::Mod:
        return {fn_->emitBinary(cur_,
                                common.isSigned ? OpKind::Mod : OpKind::UMod,
                                av, bv, common.width),
                common};
      case BinOp::And:
        return {fn_->emitBinary(cur_, OpKind::And, av, bv, common.width),
                common};
      case BinOp::Or:
        return {fn_->emitBinary(cur_, OpKind::Or, av, bv, common.width),
                common};
      case BinOp::Xor:
        return {fn_->emitBinary(cur_, OpKind::Xor, av, bv, common.width),
                common};
      case BinOp::Eq: return cmp(OpKind::Eq, OpKind::Eq);
      case BinOp::Ne: return cmp(OpKind::Ne, OpKind::Ne);
      case BinOp::Lt: return cmp(OpKind::Lt, OpKind::ULt);
      case BinOp::Le: return cmp(OpKind::Le, OpKind::ULe);
      case BinOp::Gt: return cmp(OpKind::Gt, OpKind::UGt);
      case BinOp::Ge: return cmp(OpKind::Ge, OpKind::UGe);
      default:
        MPHLS_CHECK(false, "unhandled binop");
        return {};
    }
  }

  TypedValue lowerCast(const Expr& e) {
    TypedValue a = lowerExpr(*e.children[0]);
    int w = e.castWidth;
    switch (e.castKind) {
      case CastKind::Trunc: {
        ValueId v = fn_->value(a.value).width == w
                        ? a.value
                        : fn_->emitUnary(cur_, OpKind::Trunc, a.value,
                                         std::min(w, fn_->value(a.value).width));
        // Truncating to a wider width is an extension by original sign.
        if (fn_->value(v).width < w) v = resize({v, a.type}, w);
        return {v, Type{w, a.type.isSigned}};
      }
      case CastKind::ZExt: {
        if (w < a.type.width) {
          diags_.error(e.loc, "zext target narrower than operand");
          w = a.type.width;
        }
        ValueId v = w == fn_->value(a.value).width
                        ? a.value
                        : fn_->emitUnary(cur_, OpKind::ZExt, a.value, w);
        return {v, Type{w, false}};
      }
      case CastKind::SExt: {
        if (w < a.type.width) {
          diags_.error(e.loc, "sext target narrower than operand");
          w = a.type.width;
        }
        ValueId v = w == fn_->value(a.value).width
                        ? a.value
                        : fn_->emitUnary(cur_, OpKind::SExt, a.value, w);
        return {v, Type{w, true}};
      }
    }
    return {};
  }

  TypedValue lowerTernary(const Expr& e) {
    ValueId cond = toBool(lowerExpr(*e.children[0]));
    TypedValue t = lowerExpr(*e.children[1]);
    TypedValue f = lowerExpr(*e.children[2]);
    Type common = arithType(t.type, f.type);
    ValueId tv = resize(t, common.width);
    ValueId fv = resize(f, common.width);
    return {fn_->emitSelect(cur_, cond, tv, fv), common};
  }

  // ------------------------------------------------------------ statements

  void lowerStmts(const std::vector<ast::StmtPtr>& stmts) {
    for (const auto& s : stmts)
      if (s) lowerStmt(*s);
  }

  void lowerStmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::VarDecl: return lowerVarDecl(s);
      case Stmt::Kind::Assign: return lowerAssign(s);
      case Stmt::Kind::If: return lowerIf(s);
      case Stmt::Kind::While: return lowerWhile(s);
      case Stmt::Kind::DoUntil: return lowerDoUntil(s);
      case Stmt::Kind::Call: return lowerCall(s);
      case Stmt::Kind::Block:
        pushScope();
        lowerStmts(s.body);
        popScope();
        return;
    }
  }

  void lowerVarDecl(const Stmt& s) {
    if (lookupLocal(s.name)) {
      diags_.error(s.loc, "redeclaration of '" + s.name + "'");
      return;
    }
    Symbol sym;
    sym.kind = Symbol::Kind::Var;
    sym.type = s.declType;
    sym.var = addVar(uniqueVarName(s.name), s.declType);
    scopes_.back().emplace(s.name, sym);
    if (s.init) {
      TypedValue v = lowerExpr(*s.init);
      fn_->emitStore(cur_, sym.var, resize(v, s.declType.width));
    }
  }

  void lowerAssign(const Stmt& s) {
    const Symbol* sym = lookup(s.name);
    if (!sym) {
      diags_.error(s.loc, "assignment to undeclared name '" + s.name + "'");
      return;
    }
    if (sym->kind == Symbol::Kind::InPort) {
      diags_.error(s.loc, "cannot assign to input '" + s.name + "'");
      return;
    }
    TypedValue v = lowerExpr(*s.rhs);
    ValueId rv = resize(v, sym->type.width);
    fn_->emitStore(cur_, sym->var, rv);
    if (sym->kind == Symbol::Kind::OutPort) fn_->emitWrite(cur_, sym->port, rv);
  }

  void lowerIf(const Stmt& s) {
    ValueId cond = toBool(lowerExpr(*s.cond));
    BlockId thenB = newBlock("then");
    BlockId joinB = newBlock("join");
    BlockId elseB = s.elseBody.empty() ? joinB : newBlock("else");
    fn_->setBranch(cur_, cond, thenB, elseB);

    cur_ = thenB;
    pushScope();
    lowerStmts(s.body);
    popScope();
    fn_->setJump(cur_, joinB);

    if (!s.elseBody.empty()) {
      cur_ = elseB;
      pushScope();
      lowerStmts(s.elseBody);
      popScope();
      fn_->setJump(cur_, joinB);
    }
    cur_ = joinB;
  }

  void lowerWhile(const Stmt& s) {
    BlockId header = newBlock("while_head");
    BlockId body = newBlock("while_body");
    BlockId exit = newBlock("while_exit");
    fn_->setJump(cur_, header);

    cur_ = header;
    ValueId cond = toBool(lowerExpr(*s.cond));
    fn_->setBranch(cur_, cond, body, exit);

    cur_ = body;
    pushScope();
    lowerStmts(s.body);
    popScope();
    fn_->setJump(cur_, header);

    cur_ = exit;
  }

  void lowerDoUntil(const Stmt& s) {
    BlockId body = newBlock("do_body");
    BlockId exit = newBlock("do_exit");
    fn_->setJump(cur_, body);

    cur_ = body;
    pushScope();
    lowerStmts(s.body);
    // The until-condition is evaluated in the loop body's final block.
    ValueId cond = toBool(lowerExpr(*s.cond));
    popScope();
    fn_->setBranch(cur_, cond, exit, body);

    cur_ = exit;
  }

  void lowerCall(const Stmt& s) {
    const ast::Proc* callee = design_.findProc(s.callee);
    if (!callee) {
      diags_.error(s.loc, "call to undeclared procedure '" + s.callee + "'");
      return;
    }
    if (callStack_.count(s.callee)) {
      diags_.error(s.loc, "recursive call to '" + s.callee +
                              "' cannot be synthesized");
      return;
    }
    if (s.callArgs.size() != callee->params.size()) {
      diags_.error(s.loc, "call to '" + s.callee + "' has " +
                              std::to_string(s.callArgs.size()) +
                              " arguments, expected " +
                              std::to_string(callee->params.size()));
      return;
    }

    // Inline expansion: bind each in-param to a fresh variable initialized
    // with the argument; each out-param to a fresh variable copied back to
    // the caller's target after the body.
    struct OutBinding {
      VarId calleeVar;
      Symbol target;
      SourceLoc loc;
      Type paramType;
    };
    std::vector<OutBinding> outs;
    std::unordered_map<std::string, Symbol> bound;

    for (std::size_t i = 0; i < callee->params.size(); ++i) {
      const ast::Param& prm = callee->params[i];
      const Expr& arg = *s.callArgs[i];
      Symbol sym;
      sym.kind = Symbol::Kind::Var;
      sym.type = prm.type;
      sym.var = addVar(uniqueVarName(s.callee + "." + prm.name), prm.type);
      if (prm.isInput) {
        TypedValue v = lowerExpr(arg);
        fn_->emitStore(cur_, sym.var, resize(v, prm.type.width));
      } else {
        if (arg.kind != Expr::Kind::VarRef) {
          diags_.error(arg.loc, "out argument must be a variable name");
          continue;
        }
        const Symbol* target = lookup(arg.name);
        if (!target || target->kind == Symbol::Kind::InPort) {
          diags_.error(arg.loc, "out argument '" + arg.name +
                                    "' is not an assignable variable");
          continue;
        }
        outs.push_back({sym.var, *target, arg.loc, prm.type});
      }
      bound.emplace(prm.name, sym);
    }
    if (!diags_.ok()) return;

    // Callee body sees only its own parameters (fresh scope stack).
    std::vector<std::unordered_map<std::string, Symbol>> savedScopes;
    savedScopes.swap(scopes_);
    pushScope();
    scopes_.back() = std::move(bound);
    pushScope();
    callStack_.insert(s.callee);
    lowerStmts(callee->body);
    callStack_.erase(s.callee);
    popScope();
    popScope();
    scopes_.swap(savedScopes);

    // Copy back out-params.
    for (const auto& ob : outs) {
      ValueId v = fn_->emitLoad(cur_, ob.calleeVar);
      ValueId rv = resize({v, ob.paramType}, ob.target.type.width);
      fn_->emitStore(cur_, ob.target.var, rv);
      if (ob.target.kind == Symbol::Kind::OutPort)
        fn_->emitWrite(cur_, ob.target.port, rv);
    }
  }

  /// Add a storage variable, indexing its name for uniqueVarName.
  VarId addVar(const std::string& name, Type type) {
    varNames_.insert(name);
    return fn_->addVar(name, type.width, type.isSigned);
  }

  /// `base`, or `base.N` with a fresh N when a variable is already named
  /// `base`.
  std::string uniqueVarName(const std::string& base) {
    if (!varNames_.count(base)) return base;
    return base + "." + std::to_string(tempCounter_++);
  }
};

}  // namespace

std::optional<Function> lowerDesign(const ast::Design& design,
                                    const std::string& top,
                                    DiagEngine& diags) {
  Lowerer lw(design, diags);
  return lw.lower(top);
}

}  // namespace mphls
