// Hash-consed, width-typed expression DAGs for symbolic equivalence.
//
// Both the behavioral CDFG evaluator and the symbolic RTL executor lower
// into this representation; structural equality of node ids then discharges
// most proof obligations without touching the SAT solver. Nodes are
// normalized on construction (constant folding through Interpreter::evalPure,
// commutative-operand ordering, identity and strength rewrites), so two
// different but locally-equivalent computations tend to share one node.
//
// Width discipline mirrors the interpreter: every node denotes a value in
// [0, 2^width), i.e. the raw bit pattern the hardware would hold. Where the
// interpreter truncates (evalPure's `t()`), node construction truncates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ir/opcode.h"

namespace mphls::sec {

/// One DAG node. `Var` is a free symbolic input, `Const` a literal bit
/// pattern (stored in `imm`), `Op` an application of a pure OpKind.
struct Expr {
  enum class Kind { Var, Const, Op };
  Kind kind = Kind::Const;
  OpKind op = OpKind::Const;    ///< meaningful for Kind::Op
  int width = 1;                ///< result width in bits, [1, 64]
  std::int64_t imm = 0;         ///< const value, or *Const shift amount
  std::vector<int> args;        ///< operand node ids
  std::string name;             ///< meaningful for Kind::Var
};

/// Arena + hash-consing context. Node ids are indices into the arena and
/// are only meaningful relative to one context.
class ExprContext {
 public:
  /// Fresh symbolic input (never hash-consed: each call is a new symbol).
  int mkVar(std::string name, int width);

  /// Constant node; `value` is truncated to `width` bits.
  int mkConst(std::uint64_t value, int width);

  /// Operation node, normalized. `imm` matches the OpKind's use of Op::imm
  /// (shift amounts for *Const). Arguments must be valid node ids.
  int mkOp(OpKind op, int width, std::int64_t imm, std::vector<int> args);

  /// Reinterpret `node` at `width`: identity, Trunc, or ZExt. Matches
  /// truncBits() on raw patterns, which is how every narrowing/widening in
  /// the interpreter and the datapath behaves.
  int resize(int node, int width);

  [[nodiscard]] const Expr& node(int id) const { return nodes_[(std::size_t)id]; }

  /// True when `id` is a Const node; `value` receives its pattern.
  [[nodiscard]] bool constValue(int id, std::uint64_t& value) const;

 private:
  int intern(Expr e);

  std::vector<Expr> nodes_;
  // Structural key -> node id. std::map keeps this std-only and simple;
  // obligation DAGs are small.
  std::map<std::tuple<int, int, int, std::int64_t, std::vector<int>>, int>
      consed_;
};

}  // namespace mphls::sec
