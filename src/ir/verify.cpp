#include "ir/verify.h"

#include <sstream>
#include <vector>

#include "common/bitutil.h"

namespace mphls {

namespace {

std::string check(const Function& fn) {
  std::ostringstream err;
  // Dense flags by op / value id. `defined` describes the current block
  // only: it is cleared through the block's own results after each block.
  std::vector<char> attachedOps(fn.numOps(), 0);
  std::vector<char> defined(fn.numValues(), 0);

  if (!fn.entry().valid()) return "function has no entry block";
  if (fn.entry().index() >= fn.numBlocks()) return "entry block out of range";

  for (const auto& blk : fn.blocks()) {
    for (OpId oid : blk.ops) {
      if (oid.index() >= fn.numOps()) {
        err << "block " << blk.name << " references op out of range";
        return err.str();
      }
      if (attachedOps[oid.index()]) {
        err << "op " << oid << " attached to more than one block";
        return err.str();
      }
      attachedOps[oid.index()] = 1;
      const Op& o = fn.op(oid);
      if (o.dead) {
        err << "dead op " << oid << " still attached to block " << blk.name;
        return err.str();
      }
      if (static_cast<int>(o.args.size()) != opArity(o.kind)) {
        err << "op " << oid << " (" << opName(o.kind) << ") has "
            << o.args.size() << " args, expected " << opArity(o.kind);
        return err.str();
      }
      for (ValueId a : o.args) {
        if (a.index() >= fn.numValues()) {
          err << "op " << oid << " uses value out of range";
          return err.str();
        }
        const Value& av = fn.value(a);
        if (av.def.valid() && av.def.index() < fn.numOps() &&
            fn.op(av.def).dead) {
          err << "op " << oid << " uses value v" << a.get()
              << " produced by deleted op " << av.def;
          return err.str();
        }
        if (!defined[a.index()]) {
          err << "op " << oid << " in block " << blk.name
              << " uses value v" << a.get()
              << " not defined earlier in the block";
          return err.str();
        }
      }
      if (opHasResult(o.kind)) {
        if (!o.result.valid() || o.result.index() >= fn.numValues()) {
          err << "op " << oid << " missing result value";
          return err.str();
        }
        const Value& v = fn.value(o.result);
        if (v.def != oid) {
          err << "value v" << o.result.get() << " def link broken";
          return err.str();
        }
        if (v.width < 1 || v.width > kMaxWidth) {
          err << "value v" << o.result.get() << " has bad width " << v.width;
          return err.str();
        }
        defined[o.result.index()] = 1;
      } else if (o.result.valid()) {
        err << "sink op " << oid << " has a result";
        return err.str();
      }
      // Kind-specific payloads.
      if ((o.kind == OpKind::LoadVar || o.kind == OpKind::StoreVar) &&
          (!o.var.valid() || o.var.index() >= fn.vars().size())) {
        err << "op " << oid << " has invalid variable";
        return err.str();
      }
      if (o.kind == OpKind::ReadPort || o.kind == OpKind::WritePort) {
        if (!o.port.valid() || o.port.index() >= fn.ports().size()) {
          err << "op " << oid << " has invalid port";
          return err.str();
        }
        if (o.kind == OpKind::ReadPort && !fn.port(o.port).isInput) {
          err << "op " << oid << " reads an output port";
          return err.str();
        }
        if (o.kind == OpKind::WritePort && fn.port(o.port).isInput) {
          err << "op " << oid << " writes an input port";
          return err.str();
        }
      }
      if (opIsCompare(o.kind) && fn.value(o.result).width != 1) {
        err << "compare op " << oid << " result is not 1 bit";
        return err.str();
      }
      if ((o.kind == OpKind::ShlConst || o.kind == OpKind::ShrConst ||
           o.kind == OpKind::SarConst) &&
          (o.imm < 0 || o.imm >= kMaxWidth)) {
        err << "op " << oid << " has bad shift amount " << o.imm;
        return err.str();
      }
    }
    const Terminator& t = blk.term;
    switch (t.kind) {
      case Terminator::Kind::Return:
        break;
      case Terminator::Kind::Jump:
        if (!t.target.valid() || t.target.index() >= fn.numBlocks()) {
          err << "block " << blk.name << " jumps out of range";
          return err.str();
        }
        break;
      case Terminator::Kind::Branch: {
        if (!t.target.valid() || t.target.index() >= fn.numBlocks() ||
            !t.elseTarget.valid() || t.elseTarget.index() >= fn.numBlocks()) {
          err << "block " << blk.name << " branches out of range";
          return err.str();
        }
        if (!t.cond.valid() || t.cond.index() >= fn.numValues() ||
            !defined[t.cond.index()]) {
          err << "block " << blk.name
              << " branch condition not defined in block";
          return err.str();
        }
        if (fn.value(t.cond).width != 1) {
          err << "block " << blk.name << " branch condition is not 1 bit";
          return err.str();
        }
        break;
      }
    }
    for (OpId oid : blk.ops) {
      const ValueId r = fn.op(oid).result;
      if (r.valid() && r.index() < defined.size()) defined[r.index()] = 0;
    }
  }

  // Every live op must belong to exactly one block: a pass that detaches an
  // op without marking it dead (or vice versa) leaves later stages with a
  // schedulable op no block will ever execute.
  for (std::size_t i = 0; i < fn.numOps(); ++i) {
    OpId oid{i};
    const Op& o = fn.op(oid);
    if (!o.dead && !attachedOps[oid.index()]) {
      err << "live op " << oid << " (" << opName(o.kind)
          << ") is not attached to any block";
      return err.str();
    }
  }
  return {};
}

}  // namespace

std::string verifyFunction(const Function& fn) { return check(fn); }

void verifyOrThrow(const Function& fn) {
  std::string msg = check(fn);
  MPHLS_CHECK(msg.empty(), "IR verification failed for '" << fn.name()
                                                          << "': " << msg);
}

}  // namespace mphls
