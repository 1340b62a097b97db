// The control/data-flow graph (CDFG) intermediate representation.
//
// Mirrors the tutorial's internal form (Section 2, Fig. 1): the data-flow
// graph "shows the essential ordering of operations ... imposed by the data
// relations", while the control-flow graph captures the sequencing given in
// the program. Here data flow is carried by SSA-like temporary values inside
// basic blocks; control flow by block terminators; state that crosses
// control steps or blocks by named variables (which the allocator later maps
// to registers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/diag.h"
#include "common/ids.h"
#include "ir/opcode.h"

namespace mphls {

/// A top-level input or output port of the design.
struct Port {
  PortId id;
  std::string name;
  int width = 0;
  bool isInput = true;
  bool isSigned = false;
};

/// A named storage location. Variables carry state across control steps and
/// across basic blocks; data-path allocation assigns them to registers.
struct Variable {
  VarId id;
  std::string name;
  int width = 0;
  bool isSigned = false;
};

/// An SSA-like temporary: produced by exactly one operation and only
/// consumed inside the same basic block. (Cross-block communication goes
/// through variables.) Each value corresponds to one arc bundle in the
/// paper's data-flow graph: "each value produced by one operation and
/// consumed by another is represented uniquely by an arc".
struct Value {
  ValueId id;
  int width = 0;
  OpId def;          ///< producing operation
  std::string name;  ///< optional debug name
};

/// One data-flow operation.
struct Op {
  OpId id;
  OpKind kind = OpKind::Nop;
  std::vector<ValueId> args;
  ValueId result;            ///< invalid for sinks / nop
  std::int64_t imm = 0;      ///< Const payload or constant shift amount
  VarId var;                 ///< LoadVar / StoreVar target
  PortId port;               ///< ReadPort / WritePort target
  SourceLoc loc;
  bool dead = false;         ///< set by passes; removed by Function::compact

  [[nodiscard]] bool isSink() const { return opIsSink(kind); }
  [[nodiscard]] bool isFree() const { return opIsFree(kind); }
};

/// How a basic block transfers control.
struct Terminator {
  enum class Kind { Return, Jump, Branch };
  Kind kind = Kind::Return;
  BlockId target;      ///< Jump target, or Branch taken-target
  BlockId elseTarget;  ///< Branch fall-through target
  ValueId cond;        ///< Branch condition (width 1), defined in this block
};

/// A basic block: a straight-line list of operations plus a terminator.
struct Block {
  BlockId id;
  std::string name;
  std::vector<OpId> ops;  ///< program order (defines sequential semantics)
  Terminator term;
};

/// A complete behavioral design: ports, variables, values, ops, blocks.
///
/// Functions own all IR entities in flat tables indexed by the strong ids;
/// blocks reference operations by OpId. The class doubles as the builder:
/// the frontend and the tests construct IR through the make*/add* methods.
class Function {
 public:
  explicit Function(std::string name) : name_(std::move(name)) {}

  // --- construction -----------------------------------------------------
  PortId addInput(const std::string& name, int width, bool isSigned = false);
  PortId addOutput(const std::string& name, int width, bool isSigned = false);
  VarId addVar(const std::string& name, int width, bool isSigned = false);
  BlockId addBlock(const std::string& name);

  /// Create an operation (appended to `block`) and, when the kind produces
  /// a result, a fresh value of width `resultWidth`.
  OpId makeOp(BlockId block, OpKind kind, std::vector<ValueId> args,
              int resultWidth, std::int64_t imm = 0,
              VarId var = VarId::invalid(), PortId port = PortId::invalid(),
              SourceLoc loc = {});

  // Convenience builders used heavily by tests and built-in designs.
  ValueId emitConst(BlockId b, std::int64_t value, int width);
  ValueId emitRead(BlockId b, PortId port);
  ValueId emitLoad(BlockId b, VarId var);
  ValueId emitUnary(BlockId b, OpKind k, ValueId a, int width = -1,
                    std::int64_t imm = 0);
  ValueId emitBinary(BlockId b, OpKind k, ValueId a, ValueId c,
                     int width = -1);
  ValueId emitSelect(BlockId b, ValueId cond, ValueId t, ValueId f);
  void emitStore(BlockId b, VarId var, ValueId v);
  void emitWrite(BlockId b, PortId port, ValueId v);
  void emitNop(BlockId b);

  void setReturn(BlockId b);
  void setJump(BlockId b, BlockId target);
  void setBranch(BlockId b, ValueId cond, BlockId taken, BlockId fallthrough);

  void setEntry(BlockId b) { entry_ = b; }

  // --- access -------------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] BlockId entry() const { return entry_; }

  [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }
  [[nodiscard]] const std::vector<Variable>& vars() const { return vars_; }
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  [[nodiscard]] const Port& port(PortId id) const {
    return ports_.at(id.index());
  }
  [[nodiscard]] const Variable& var(VarId id) const {
    return vars_.at(id.index());
  }
  [[nodiscard]] Variable& var(VarId id) { return vars_.at(id.index()); }
  [[nodiscard]] const Value& value(ValueId id) const {
    return values_.at(id.index());
  }
  [[nodiscard]] Value& value(ValueId id) { return values_.at(id.index()); }
  [[nodiscard]] const Op& op(OpId id) const { return ops_.at(id.index()); }
  [[nodiscard]] Op& op(OpId id) { return ops_.at(id.index()); }
  [[nodiscard]] const Block& block(BlockId id) const {
    return blocks_.at(id.index());
  }
  [[nodiscard]] Block& block(BlockId id) { return blocks_.at(id.index()); }

  [[nodiscard]] std::size_t numOps() const { return ops_.size(); }
  [[nodiscard]] std::size_t numValues() const { return values_.size(); }
  [[nodiscard]] std::size_t numBlocks() const { return blocks_.size(); }

  /// Number of non-dead, non-free operations across all blocks — the count
  /// the paper's schedules charge control steps for.
  [[nodiscard]] std::size_t numRealOps() const;

  /// Count of live (non-dead) ops in all blocks.
  [[nodiscard]] std::size_t numLiveOps() const;

  [[nodiscard]] PortId findPort(const std::string& name) const;
  [[nodiscard]] VarId findVar(const std::string& name) const;
  [[nodiscard]] BlockId findBlock(const std::string& name) const;

  /// Producing op of a value.
  [[nodiscard]] const Op& defOf(ValueId v) const { return op(value(v).def); }

  // --- mutation by passes ---------------------------------------------------
  /// Mark an op dead and detach it from its block. Searches the blocks: for
  /// one-off callers; a pass detaches its ops with removeOps.
  void removeOp(OpId id);

  /// Mark every op in `ids` dead and detach them from `block` in one sweep
  /// that keeps the order of the remaining ops. Same result as calling
  /// removeOp on each id when every id is attached to `block`.
  void removeOps(BlockId block, const std::vector<OpId>& ids);

  /// Replace every use of value `from` with `to` (all blocks). Scans every
  /// op: for one-off callers; a pass rewrites through UseIndex (opt/pass.h).
  void replaceAllUses(ValueId from, ValueId to);

  /// Drop dead ops and unused values, renumbering all ids. Invalidates any
  /// ids held outside the function.
  void compact();

  /// Deep copy (ids are indices, so this is a member-wise copy).
  [[nodiscard]] Function clone() const { return *this; }

  /// Human-readable listing of the whole function.
  [[nodiscard]] std::string dump() const;

 private:
  std::string name_;
  std::vector<Port> ports_;
  std::vector<Variable> vars_;
  std::vector<Value> values_;
  std::vector<Op> ops_;
  std::vector<Block> blocks_;
  BlockId entry_;

  ValueId newValue(int width, OpId def, std::string name = {});
};

}  // namespace mphls
