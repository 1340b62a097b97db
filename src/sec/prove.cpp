#include "sec/prove.h"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>

#include "common/diag.h"
#include "ir/analysis.h"
#include "ir/interp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/rtlsim.h"
#include "sec/rtlsym.h"
#include "sec/symexec.h"

namespace mphls::sec {

namespace {

/// Mirror of the controller builder's firstStateOf: where a control
/// transfer into `b` lands, skipping zero-step blocks.
StateId entryStateOf(const RtlDesign& d, BlockId b, int depth, bool& ok) {
  if (depth >= (int)d.fn.numBlocks() + 2) {
    ok = false;
    return d.ctrl.haltState;
  }
  if (d.sched.of(b).numSteps > 0) return d.ctrl.stateAt(b, 0);
  const Terminator& t = d.fn.block(b).term;
  switch (t.kind) {
    case Terminator::Kind::Return:
      return d.ctrl.haltState;
    case Terminator::Kind::Jump:
      return entryStateOf(d, t.target, depth + 1, ok);
    case Terminator::Kind::Branch:
      ok = false;
      return d.ctrl.haltState;
  }
  return d.ctrl.haltState;
}

void checkControlStructure(const RtlDesign& d, CheckReport& rep) {
  auto entryOf = [&](BlockId b) {
    bool ok = true;
    StateId s = entryStateOf(d, b, 0, ok);
    if (!ok)
      rep.error("sec.rtl.control", "block " + d.fn.block(b).name,
                "cannot resolve entry state (empty-block cycle or branch "
                "in zero-step block)");
    return s;
  };

  if (d.ctrl.initial != entryOf(d.fn.entry()))
    rep.error("sec.rtl.control", "initial state",
              "controller does not start at the entry block's first state");

  for (const Block& blk : d.fn.blocks()) {
    int numSteps = d.sched.of(blk.id).numSteps;
    for (int s = 0; s < numSteps; ++s) {
      const CtrlState& st = d.ctrl.state(d.ctrl.stateAt(blk.id, s));
      std::string where =
          "block " + blk.name + " step " + std::to_string(s);
      if (s + 1 < numSteps) {
        if (st.conditional || st.next != d.ctrl.stateAt(blk.id, s + 1))
          rep.error("sec.rtl.control", where,
                    "intermediate state does not fall through to the next "
                    "step");
        continue;
      }
      switch (blk.term.kind) {
        case Terminator::Kind::Return:
          if (st.conditional || st.next != d.ctrl.haltState)
            rep.error("sec.rtl.control", where,
                      "Return block does not transition to halt");
          break;
        case Terminator::Kind::Jump:
          if (st.conditional || st.next != entryOf(blk.term.target))
            rep.error("sec.rtl.control", where,
                      "Jump does not transition to the target block's "
                      "first state");
          break;
        case Terminator::Kind::Branch:
          if (!st.conditional || st.nextTaken != entryOf(blk.term.target) ||
              st.nextNot != entryOf(blk.term.elseTarget))
            rep.error("sec.rtl.control", where,
                      "Branch transition targets do not match the CFG");
          break;
      }
    }
  }
}

std::string renderCounterexample(const ProveResult& res) {
  std::ostringstream oss;
  oss << "counterexample:";
  std::size_t shown = 0;
  for (const auto& [name, val] : res.counterexample) {
    if (shown++ == 8) {
      oss << " ...";
      break;
    }
    oss << " " << name << "=" << val;
  }
  return oss.str();
}

void proveBlock(const RtlDesign& d, const Block& blk, const VarLiveness& lv,
                const ProveOptions& opts, CheckReport& rep,
                std::vector<std::pair<std::string, std::uint64_t>>* cex) {
  obs::TraceSpan span("sec.prove.block", blk.name);
  const Function& fn = d.fn;
  std::size_t bi = blk.id.index();
  std::string where = "block " + blk.name;

  ExprContext ctx;
  std::vector<int> portIn(fn.ports().size(), -1);
  for (const Port& p : fn.ports())
    if (p.isInput) portIn[p.id.index()] = ctx.mkVar(p.name, p.width);
  std::vector<int> regIn((std::size_t)d.regs.numRegs);
  for (int r = 0; r < d.regs.numRegs; ++r) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive on the
    // temporary chain (same story as obs/vcd.cpp).
    std::string name = "r";
    name += std::to_string(r);
    regIn[(std::size_t)r] = ctx.mkVar(name, 64);
  }

  // Behavioral entry state under the correspondence invariant.
  SymState entry;
  entry.portIn = portIn;
  entry.var.resize(fn.vars().size());
  for (const Variable& v : fn.vars()) {
    int item = d.lifetimes.itemOfVar[v.id.index()];
    if (item >= 0 && lv.liveIn[bi][v.id.index()]) {
      int r = d.regs.regOfItem[(std::size_t)item];
      entry.var[v.id.index()] = ctx.resize(regIn[(std::size_t)r], v.width);
    } else {
      entry.var[v.id.index()] = ctx.mkVar(v.name, v.width);
    }
  }

  SymBlockOut beh = evalBlock(ctx, fn, blk.id, entry);
  if (!beh.ok) {
    rep.error("sec.unsupported", where, beh.why);
    return;
  }
  RtlSymOut rtl = evalRtlBlock(ctx, d, blk.id, regIn, portIn);
  if (!rtl.ok) {
    rep.error("sec.rtl.unsupported", where, rtl.why);
    return;
  }

  // 1. Live-out variables agree with their registers.
  for (const Variable& v : fn.vars()) {
    if (!lv.liveOut[bi][v.id.index()]) continue;
    int item = d.lifetimes.itemOfVar[v.id.index()];
    if (item < 0) continue;  // never stored: interpreter value is always 0
    int r = d.regs.regOfItem[(std::size_t)item];
    int lhs = ctx.resize(rtl.regOut[(std::size_t)r], v.width);
    dischargeEqual(ctx, lhs, beh.varOut[v.id.index()], {},
                   opts.conflictBudget, "sec.rtl.mismatch", where,
                   "live-out variable '" + v.name + "' vs register r" +
                       std::to_string(r),
                   rep, cex);
  }

  // 2. Output-port writes agree (same ports, same last values).
  if (beh.portWrites.size() != rtl.portWrites.size()) {
    rep.error("sec.rtl.mismatch", where,
              "output-port write sets differ between behavior and RTL");
  } else {
    for (std::size_t i = 0; i < beh.portWrites.size(); ++i) {
      if (beh.portWrites[i].first != rtl.portWrites[i].first) {
        rep.error("sec.rtl.mismatch", where,
                  "output-port write sets differ between behavior and RTL");
        break;
      }
      const Port& p =
          fn.ports()[(std::size_t)beh.portWrites[i].first];
      dischargeEqual(ctx, rtl.portWrites[i].second,
                     beh.portWrites[i].second, {}, opts.conflictBudget,
                     "sec.rtl.mismatch", where,
                     "output port '" + p.name + "'", rep, cex);
    }
  }

  // 3. Branch steering agrees.
  if (blk.term.kind == Terminator::Kind::Branch) {
    if (rtl.branchCond < 0) {
      rep.error("sec.rtl.mismatch", where,
                "RTL block has no branch condition");
    } else {
      dischargeEqual(ctx, rtl.branchCond, beh.branchCond, {},
                     opts.conflictBudget, "sec.rtl.mismatch", where,
                     "branch condition", rep, cex);
    }
  }
}

}  // namespace

bool dischargeEqual(ExprContext& ctx, int a, int b,
                    const std::vector<int>& assumptions, long conflictBudget,
                    const std::string& id, const std::string& where,
                    const std::string& what, CheckReport& rep,
                    std::vector<std::pair<std::string, std::uint64_t>>*
                        cexOut) {
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("sec.obligations").add(1);
  const bool dbg = std::getenv("MPHLS_SEC_DEBUG") != nullptr;
  if (dbg)
    std::cerr << "[sec] begin " << where << ": " << what << "\n";
  auto t0 = std::chrono::steady_clock::now();
  ProveResult res = proveEqual(ctx, a, b, assumptions, conflictBudget);
  auto t1 = std::chrono::steady_clock::now();
  if (dbg)
    std::cerr << "[sec] end   " << where << ": " << what << " t="
              << std::chrono::duration<double>(t1 - t0).count()
              << "s structural=" << res.structural
              << " conflicts=" << res.conflicts << "\n";
  metrics.histogram("sec.obligation_seconds")
      .observe(std::chrono::duration<double>(t1 - t0).count());
  if (res.structural) {
    metrics.counter("sec.structural").add(1);
  } else {
    metrics.counter("sec.sat.calls").add(1);
    metrics.histogram("sec.sat.conflicts").observe((double)res.conflicts);
  }
  switch (res.verdict) {
    case ProveResult::Verdict::Equal:
      return true;
    case ProveResult::Verdict::NotEqual:
      if (cexOut && cexOut->empty()) *cexOut = res.counterexample;
      rep.error(id, where, what + " differ; " + renderCounterexample(res));
      return false;
    case ProveResult::Verdict::Unknown:
      rep.error("sec.budget-exhausted", where,
                what + ": SAT conflict budget exhausted after " +
                    std::to_string(res.conflicts) +
                    " conflicts (obligation undecided)");
      return false;
  }
  return false;
}

CheckReport proveEquivalence(const RtlDesign& d, const ProveOptions& opts) {
  CheckReport rep;
  obs::TraceSpan span("sec.prove", d.fn.name());
  obs::MetricsRegistry::global().counter("sec.proofs").add(1);

  checkControlStructure(d, rep);

  VarLiveness lv = computeVarLiveness(d.fn);
  std::vector<std::pair<std::string, std::uint64_t>> cex;
  for (const Block& blk : d.fn.blocks()) {
    if (d.sched.of(blk.id).numSteps == 0) {
      // Zero-step blocks are skipped by the controller; they must have no
      // observable effects.
      for (OpId oid : blk.ops)
        if (d.fn.op(oid).isSink())
          rep.error("sec.rtl.unsupported", "block " + blk.name,
                    "zero-step block contains a store/write");
      continue;
    }
    proveBlock(d, blk, lv, opts, rep, &cex);
  }

  // Decode the first SAT witness concretely: replay its input-port
  // assignment end-to-end on the interpreter and the RTL simulator.
  // Witness symbols that are not design inputs (the arbitrary register
  // file, free variables) default to zero, so the note distinguishes a
  // counterexample that reproduces from whole-design inputs from one that
  // needs the block's particular register state.
  if (!cex.empty()) {
    std::map<std::string, std::uint64_t> inputs;
    for (const Port& p : d.fn.ports())
      if (p.isInput) inputs[p.name] = 0;
    // Raw witness patterns are fine here: the interpreter and the RTL
    // simulator truncate every input to its port width at load.
    for (const auto& [name, val] : cex) {
      auto it = inputs.find(name);
      if (it != inputs.end()) it->second = val;
    }
    std::ostringstream oss;
    // The CLI goldens pin this wording.
    oss << "replayed witness on vm co-sim:";
    for (const auto& [name, val] : inputs) oss << " " << name << "=" << val;
    try {
      ExecResult want = Interpreter(d.fn).run(inputs);
      RtlExecResult got = RtlSimulator(d).run(inputs);
      if (!want.finished || !got.finished) {
        oss << " -> execution did not finish";
      } else if (want.outputs != got.outputs) {
        oss << " -> behavioral and RTL outputs differ end-to-end";
        for (const auto& [name, val] : want.outputs)
          oss << "; " << name << ": behav=" << val
              << " rtl=" << got.outputs[name];
      } else {
        oss << " -> outputs agree end-to-end (divergence requires the "
               "witness register state, not reachable from these inputs "
               "alone)";
      }
    } catch (const std::exception& e) {
      oss << " -> replay failed: " << e.what();
    }
    rep.note("sec.cex.replay", "design " + d.fn.name(), oss.str());
  }
  return rep;
}

}  // namespace mphls::sec
