#include "ir/cdfg.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/bitutil.h"

namespace mphls {

PortId Function::addInput(const std::string& name, int width, bool isSigned) {
  PortId id(ports_.size());
  ports_.push_back({id, name, width, /*isInput=*/true, isSigned});
  return id;
}

PortId Function::addOutput(const std::string& name, int width, bool isSigned) {
  PortId id(ports_.size());
  ports_.push_back({id, name, width, /*isInput=*/false, isSigned});
  return id;
}

VarId Function::addVar(const std::string& name, int width, bool isSigned) {
  VarId id(vars_.size());
  vars_.push_back({id, name, width, isSigned});
  return id;
}

BlockId Function::addBlock(const std::string& name) {
  BlockId id(blocks_.size());
  Block b;
  b.id = id;
  b.name = name;
  blocks_.push_back(std::move(b));
  if (!entry_.valid()) entry_ = id;
  return id;
}

ValueId Function::newValue(int width, OpId def, std::string name) {
  MPHLS_CHECK(width >= 1 && width <= kMaxWidth, "bad value width " << width);
  ValueId id(values_.size());
  values_.push_back({id, width, def, std::move(name)});
  return id;
}

OpId Function::makeOp(BlockId block, OpKind kind, std::vector<ValueId> args,
                      int resultWidth, std::int64_t imm, VarId var,
                      PortId port, SourceLoc loc) {
  MPHLS_CHECK(block.valid() && block.index() < blocks_.size(),
              "makeOp on invalid block");
  MPHLS_CHECK(static_cast<int>(args.size()) == opArity(kind),
              "arity mismatch for " << opName(kind) << ": got "
                                    << args.size());
  OpId id(ops_.size());
  Op op;
  op.id = id;
  op.kind = kind;
  op.args = std::move(args);
  op.imm = imm;
  op.var = var;
  op.port = port;
  op.loc = loc;
  if (opHasResult(kind)) {
    MPHLS_CHECK(resultWidth >= 1, "op " << opName(kind) << " needs width");
    op.result = newValue(resultWidth, id);
  }
  ops_.push_back(std::move(op));
  blocks_[block.index()].ops.push_back(id);
  return id;
}

ValueId Function::emitConst(BlockId b, std::int64_t value, int width) {
  OpId id = makeOp(b, OpKind::Const, {}, width, value);
  return op(id).result;
}

ValueId Function::emitRead(BlockId b, PortId p) {
  OpId id = makeOp(b, OpKind::ReadPort, {}, port(p).width, 0,
                   VarId::invalid(), p);
  return op(id).result;
}

ValueId Function::emitLoad(BlockId b, VarId v) {
  OpId id = makeOp(b, OpKind::LoadVar, {}, var(v).width, 0, v);
  return op(id).result;
}

ValueId Function::emitUnary(BlockId b, OpKind k, ValueId a, int width,
                            std::int64_t imm) {
  if (width < 0) width = value(a).width;
  OpId id = makeOp(b, k, {a}, width, imm);
  return op(id).result;
}

ValueId Function::emitBinary(BlockId b, OpKind k, ValueId a, ValueId c,
                             int width) {
  if (width < 0) {
    width = opIsCompare(k) ? 1
                           : std::max(value(a).width, value(c).width);
  }
  OpId id = makeOp(b, k, {a, c}, width);
  return op(id).result;
}

ValueId Function::emitSelect(BlockId b, ValueId cond, ValueId t, ValueId f) {
  int width = std::max(value(t).width, value(f).width);
  OpId id = makeOp(b, OpKind::Select, {cond, t, f}, width);
  return op(id).result;
}

void Function::emitStore(BlockId b, VarId v, ValueId val) {
  makeOp(b, OpKind::StoreVar, {val}, 0, 0, v);
}

void Function::emitWrite(BlockId b, PortId p, ValueId val) {
  MPHLS_CHECK(!port(p).isInput, "write to input port " << port(p).name);
  makeOp(b, OpKind::WritePort, {val}, 0, 0, VarId::invalid(), p);
}

void Function::emitNop(BlockId b) { makeOp(b, OpKind::Nop, {}, 0); }

void Function::setReturn(BlockId b) {
  block(b).term = Terminator{Terminator::Kind::Return, {}, {}, {}};
}

void Function::setJump(BlockId b, BlockId target) {
  block(b).term = Terminator{Terminator::Kind::Jump, target, {}, {}};
}

void Function::setBranch(BlockId b, ValueId cond, BlockId taken,
                         BlockId fallthrough) {
  MPHLS_CHECK(value(cond).width == 1, "branch condition must be 1 bit");
  block(b).term =
      Terminator{Terminator::Kind::Branch, taken, fallthrough, cond};
}

std::size_t Function::numRealOps() const {
  std::size_t n = 0;
  for (const auto& blk : blocks_)
    for (OpId oid : blk.ops) {
      const Op& o = op(oid);
      if (!o.dead && !o.isFree()) ++n;
    }
  return n;
}

std::size_t Function::numLiveOps() const {
  std::size_t n = 0;
  for (const auto& blk : blocks_)
    for (OpId oid : blk.ops)
      if (!op(oid).dead) ++n;
  return n;
}

PortId Function::findPort(const std::string& name) const {
  for (const auto& p : ports_)
    if (p.name == name) return p.id;
  return PortId::invalid();
}

BlockId Function::findBlock(const std::string& name) const {
  for (const auto& b : blocks_)
    if (b.name == name) return b.id;
  return BlockId::invalid();
}

void Function::removeOp(OpId id) {
  Op& o = op(id);
  o.dead = true;
  for (auto& blk : blocks_) {
    auto it = std::find(blk.ops.begin(), blk.ops.end(), id);
    if (it != blk.ops.end()) {
      blk.ops.erase(it);
      break;
    }
  }
}

void Function::removeOps(BlockId block, const std::vector<OpId>& ids) {
  if (ids.empty()) return;
  std::vector<OpId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (OpId id : sorted) op(id).dead = true;
  auto& list = this->block(block).ops;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](OpId id) {
                              return std::binary_search(sorted.begin(),
                                                        sorted.end(), id);
                            }),
             list.end());
}

void Function::replaceAllUses(ValueId from, ValueId to) {
  for (auto& o : ops_) {
    if (o.dead) continue;
    for (auto& a : o.args)
      if (a == from) a = to;
  }
  for (auto& blk : blocks_) {
    if (blk.term.kind == Terminator::Kind::Branch && blk.term.cond == from)
      blk.term.cond = to;
  }
}

void Function::compact() {
  // Renumber live ops and the values they define; rewrite all references.
  std::vector<Op> newOps;
  std::vector<Value> newValues;
  std::unordered_map<std::uint32_t, OpId> opMap;
  std::unordered_map<std::uint32_t, ValueId> valMap;

  for (auto& blk : blocks_) {
    for (OpId oid : blk.ops) {
      const Op& o = op(oid);
      MPHLS_CHECK(!o.dead, "dead op still attached to block");
      OpId nid(newOps.size());
      opMap.emplace(oid.get(), nid);
      newOps.push_back(o);
      newOps.back().id = nid;
      if (o.result.valid()) {
        ValueId nv(newValues.size());
        valMap.emplace(o.result.get(), nv);
        Value v = value(o.result);
        v.id = nv;
        v.def = nid;
        newValues.push_back(std::move(v));
        newOps.back().result = nv;
      }
    }
  }
  for (auto& o : newOps)
    for (auto& a : o.args) {
      auto it = valMap.find(a.get());
      MPHLS_CHECK(it != valMap.end(), "use of value defined by dead op");
      a = it->second;
    }
  for (auto& blk : blocks_) {
    for (auto& oid : blk.ops) oid = opMap.at(oid.get());
    if (blk.term.kind == Terminator::Kind::Branch) {
      auto it = valMap.find(blk.term.cond.get());
      MPHLS_CHECK(it != valMap.end(), "branch cond defined by dead op");
      blk.term.cond = it->second;
    }
  }
  ops_ = std::move(newOps);
  values_ = std::move(newValues);
}

std::string Function::dump() const {
  std::ostringstream oss;
  oss << "function " << name_ << "\n";
  for (const auto& p : ports_)
    oss << "  " << (p.isInput ? "in " : "out ") << p.name << " : "
        << (p.isSigned ? "int" : "uint") << "<" << p.width << ">\n";
  for (const auto& v : vars_)
    oss << "  var " << v.name << " : " << (v.isSigned ? "int" : "uint") << "<"
        << v.width << ">\n";
  for (const auto& blk : blocks_) {
    oss << blk.name << ":\n";
    for (OpId oid : blk.ops) {
      const Op& o = op(oid);
      oss << "    ";
      if (o.result.valid()) oss << "v" << o.result.get() << " = ";
      oss << opName(o.kind);
      if (o.kind == OpKind::Const || o.kind == OpKind::ShlConst ||
          o.kind == OpKind::ShrConst || o.kind == OpKind::SarConst)
        oss << " " << o.imm;
      if (o.var.valid()) oss << " " << var(o.var).name;
      if (o.port.valid()) oss << " " << port(o.port).name;
      for (ValueId a : o.args) oss << " v" << a.get();
      if (o.result.valid()) oss << "  ; w" << value(o.result).width;
      oss << "\n";
    }
    switch (blk.term.kind) {
      case Terminator::Kind::Return:
        oss << "    return\n";
        break;
      case Terminator::Kind::Jump:
        oss << "    jump " << block(blk.term.target).name << "\n";
        break;
      case Terminator::Kind::Branch:
        oss << "    branch v" << blk.term.cond.get() << " ? "
            << block(blk.term.target).name << " : "
            << block(blk.term.elseTarget).name << "\n";
        break;
    }
  }
  return oss.str();
}

}  // namespace mphls
