#include "check/check_semantics.h"

#include <sstream>

#include "analysis/dataflow.h"
#include "common/bitutil.h"

namespace mphls {

namespace {

std::string opWhere(const Function& fn, const Block& blk, std::size_t i) {
  std::ostringstream oss;
  oss << "block " << blk.name << " op " << i << " ("
      << opName(fn.op(blk.ops[i]).kind) << ")";
  return oss.str();
}

bool isDivision(OpKind k) {
  return k == OpKind::Div || k == OpKind::UDiv || k == OpKind::Mod ||
         k == OpKind::UMod;
}

/// The value whose fact the store-truncation lint judges. The frontend
/// lowers `dest = expr` as an explicit Trunc of the expression value down
/// to the destination width, so the store argument itself always fits;
/// walking back through the conversion chain recovers the expression whose
/// bits the assignment discards.
ValueId storedExpression(const Function& fn, ValueId v) {
  while (fn.defOf(v).kind == OpKind::Trunc) v = fn.defOf(v).args[0];
  return v;
}

}  // namespace

void checkSemantics(const Function& fn, CheckReport& report) {
  checkSemantics(fn, analyzeFunction(fn), report);
}

void checkSemantics(const Function& fn, const AnalysisResult& res,
                    CheckReport& report) {
  for (const Block& blk : fn.blocks()) {
    if (!res.blockReachable[blk.id.index()]) {
      if (!blk.ops.empty()) {
        std::ostringstream oss;
        oss << "no execution path reaches this block; its " << blk.ops.size()
            << " operation(s) are dead";
        report.warning("analysis.unreachable-block", "block " + blk.name,
                       oss.str());
      }
      continue;
    }

    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const Op& o = fn.op(blk.ops[i]);
      if (o.kind == OpKind::StoreVar || o.kind == OpKind::WritePort) {
        const AbsVal& v = res.fact(storedExpression(fn, o.args[0]));
        const int destW = o.kind == OpKind::StoreVar
                              ? fn.var(o.var).width
                              : fn.port(o.port).width;
        if (!v.isBottom && v.ulo > maskBits(destW)) {
          const std::string dest =
              o.kind == OpKind::StoreVar
                  ? "variable '" + fn.var(o.var).name + "'"
                  : "port '" + fn.port(o.port).name + "'";
          std::ostringstream oss;
          oss << "assigned value is provably " << v.str() << ", which never "
              << "fits the " << destW << "-bit " << dest
              << "; high bits are always lost";
          report.warning("analysis.store-truncates", opWhere(fn, blk, i),
                         oss.str());
        }
      }
      if (isDivision(o.kind)) {
        const AbsVal& d = res.fact(o.args[1]);
        if (d.isConstant() && d.constValue() == 0) {
          report.warning("analysis.div-by-zero", opWhere(fn, blk, i),
                         "divisor is always zero; the result is the "
                         "defined division-by-zero value, not a quotient");
        } else if (d.contains(0)) {
          std::ostringstream oss;
          oss << "divisor range " << d.str()
              << " contains zero; guard the division or tighten the range";
          report.warning("analysis.div-by-zero", opWhere(fn, blk, i),
                         oss.str());
        }
      }
    }

    if (blk.term.kind == Terminator::Kind::Branch) {
      for (const auto& db : res.deadBranches) {
        if (db.block != blk.id) continue;
        const BlockId dead = db.condValue ? blk.term.elseTarget
                                          : blk.term.target;
        std::ostringstream oss;
        oss << "branch condition is always "
            << (db.condValue ? "true" : "false") << "; the edge to block '"
            << fn.block(dead).name << "' is never taken";
        report.warning("analysis.dead-branch", "block " + blk.name,
                       oss.str());
      }
    }
  }

  for (OpId oid : res.readsBeforeWrite) {
    const Op& o = fn.op(oid);
    // Locate the op for the diagnostic (ops carry no block backreference).
    for (const Block& blk : fn.blocks()) {
      for (std::size_t i = 0; i < blk.ops.size(); ++i) {
        if (blk.ops[i] != oid) continue;
        std::ostringstream oss;
        oss << "variable '" << fn.var(o.var).name
            << "' is read before any store on every path reaching this "
            << "load; the read yields its initial zero";
        report.warning("analysis.read-before-write", opWhere(fn, blk, i),
                       oss.str());
      }
    }
  }
}

}  // namespace mphls
