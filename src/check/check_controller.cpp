#include "check/check_controller.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

namespace mphls {

namespace {

std::string stateWhere(const Controller& ctrl, std::size_t s) {
  std::ostringstream oss;
  oss << "state S" << s;
  if (s < ctrl.numStates() && !ctrl.states[s].halt)
    oss << " (b" << ctrl.states[s].block.get() << " step "
        << ctrl.states[s].step << ")";
  return oss.str();
}

std::string stepWhere(const Block& blk, int step) {
  std::ostringstream oss;
  oss << "block " << blk.name << " step " << step;
  return oss.str();
}

bool inRange(const Controller& ctrl, StateId s) {
  return s.valid() && s.index() < ctrl.numStates();
}

/// The state a control transfer to `b` lands in, skipping zero-step blocks
/// (mirrors buildController's firstStateOf). Invalid on malformed chains.
StateId firstStateOf(const Function& fn, const Schedule& sched,
                     const Controller& ctrl, BlockId b, int depth) {
  if (depth > (int)fn.numBlocks() + 1) return StateId::invalid();
  if (!b.valid() || b.index() >= fn.numBlocks()) return StateId::invalid();
  const BlockSchedule& bs = sched.of(b);
  if (bs.numSteps > 0) return ctrl.stateAt(b, 0);
  const Terminator& t = fn.block(b).term;
  switch (t.kind) {
    case Terminator::Kind::Return:
      return ctrl.haltState;
    case Terminator::Kind::Jump:
      return firstStateOf(fn, sched, ctrl, t.target, depth + 1);
    case Terminator::Kind::Branch:
      return StateId::invalid();  // branch in an empty block is malformed
  }
  return ctrl.haltState;
}

// Printable keys for the three action families, rendered from the typed
// keys below only for a state whose actions disagree.

std::string fuActionKey(const std::array<int, 7>& k) {
  std::ostringstream oss;
  oss << "fu" << k[0] << " " << opName((OpKind)k[1]) << " sel(" << k[2]
      << "," << k[3] << "," << k[4] << ") width " << k[5] << " cycles "
      << k[6];
  return oss.str();
}

std::string regActionKey(const std::array<int, 2>& k) {
  std::ostringstream oss;
  oss << "r" << k[0] << " <= leg " << k[1];
  return oss.str();
}

std::string portActionKey(const std::array<int, 2>& k) {
  std::ostringstream oss;
  oss << "port " << k[0] << " <= leg " << k[1];
  return oss.str();
}

/// Diff two multisets of rendered actions; report one finding per missing
/// and per extra element.
void diffActions(const Controller& ctrl, std::size_t stateIdx,
                 std::vector<std::string> expected,
                 std::vector<std::string> actual, std::string_view what,
                 CheckReport& report) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  for (const std::string& m : missing) {
    std::ostringstream oss;
    oss << "binding requires " << what << " [" << m
        << "] but the state does not assert it";
    report.error("ctrl.action-missing", stateWhere(ctrl, stateIdx),
                 oss.str());
  }
  for (const std::string& e : extra) {
    std::ostringstream oss;
    oss << "state asserts " << what << " [" << e
        << "] the binding does not require";
    report.error("ctrl.action-extra", stateWhere(ctrl, stateIdx), oss.str());
  }
}

// Typed keys for the same action fields the rendered keys print.

using FuKey = std::array<int, 7>;  ///< fu, kind, sel[3], width, cycles
using LegKey = std::array<int, 2>;  ///< reg or port, mux leg

FuKey fuKey(const FuAction& a) {
  return {a.fu,        (int)a.kind, a.muxSel[0], a.muxSel[1],
          a.muxSel[2], a.width,     a.cycles};
}
LegKey regKey(const RegAction& a) { return {a.reg, a.muxSel}; }
LegKey portKey(const PortAction& a) { return {a.port, a.muxSel}; }

template <class Key>
using StateKey = std::pair<std::size_t, Key>;  ///< (state index, action)

/// Walks the required actions of one family, sorted by (state, key), state
/// by state alongside the controller.
template <class Key>
class ActionCursor {
 public:
  explicit ActionCursor(const std::vector<StateKey<Key>>& want)
      : want_(want) {}

  /// Compare state `s`'s asserted `actions` with the required ones as
  /// sorted typed keys; on a difference, diff the rendered keys to report
  /// each missing and extra action.
  template <class Action, class TypedKey, class RenderedKey>
  void check(const Controller& ctrl, std::size_t s,
             const std::vector<Action>& actions, TypedKey typed,
             RenderedKey rendered, std::string_view what,
             CheckReport& report) {
    const std::size_t begin = at_;
    while (at_ < want_.size() && want_[at_].first == s) ++at_;
    bool same = at_ - begin == actions.size();
    if (same && !actions.empty()) {
      have_.clear();
      for (const Action& a : actions) have_.push_back(typed(a));
      std::sort(have_.begin(), have_.end());
      for (std::size_t k = 0; k < have_.size() && same; ++k)
        same = have_[k] == want_[begin + k].second;
    }
    if (same) return;
    std::vector<std::string> expected, actual;
    for (std::size_t k = begin; k < at_; ++k)
      expected.push_back(rendered(want_[k].second));
    for (const Action& a : actions) actual.push_back(rendered(typed(a)));
    diffActions(ctrl, s, std::move(expected), std::move(actual), what,
                report);
  }

 private:
  const std::vector<StateKey<Key>>& want_;
  std::size_t at_ = 0;
  std::vector<Key> have_;
};

}  // namespace

void checkController(const Function& fn, const Schedule& sched,
                     const Controller& ctrl, const InterconnectResult& ic,
                     const FuBinding& binding,
                     const OpLatencyModel& latencies, CheckReport& report) {
  const std::size_t n = ctrl.numStates();
  if (!inRange(ctrl, ctrl.initial)) {
    report.error("ctrl.transition-range", "controller",
                 "initial state is out of range");
    return;
  }
  if (!inRange(ctrl, ctrl.haltState) ||
      !ctrl.states[ctrl.haltState.index()].halt) {
    report.error("ctrl.transition-range", "controller",
                 "halt state is missing or not marked halting");
    return;
  }

  // --- coverage and transitions ----------------------------------------
  for (const auto& blk : fn.blocks()) {
    const BlockSchedule& bs = sched.of(blk.id);
    for (int s = 0; s < bs.numSteps; ++s) {
      StateId sid = ctrl.stateAt(blk.id, s);
      if (!inRange(ctrl, sid)) {
        report.error("ctrl.step-uncovered", stepWhere(blk, s),
                     "scheduled control step has no FSM state");
        continue;
      }
      const CtrlState& st = ctrl.states[sid.index()];
      if (st.halt || st.block != blk.id || st.step != s) {
        report.error("ctrl.state-binding", stateWhere(ctrl, sid.index()),
                     "state does not belong to " + stepWhere(blk, s));
        continue;
      }
      // Expected successor(s).
      if (s + 1 < bs.numSteps) {
        StateId want = ctrl.stateAt(blk.id, s + 1);
        if (st.conditional || !(st.next == want)) {
          report.error("ctrl.transition-target",
                       stateWhere(ctrl, sid.index()),
                       "mid-block state must fall through to the next step");
        }
        continue;
      }
      const Terminator& t = blk.term;
      switch (t.kind) {
        case Terminator::Kind::Return:
          if (st.conditional || !(st.next == ctrl.haltState))
            report.error("ctrl.transition-target",
                         stateWhere(ctrl, sid.index()),
                         "returning block must transition to the halt state");
          break;
        case Terminator::Kind::Jump: {
          StateId want = firstStateOf(fn, sched, ctrl, t.target, 0);
          if (st.conditional || !inRange(ctrl, want) || !(st.next == want))
            report.error("ctrl.transition-target",
                         stateWhere(ctrl, sid.index()),
                         "jump does not land on the target block's first "
                         "state");
          break;
        }
        case Terminator::Kind::Branch: {
          StateId wantTaken = firstStateOf(fn, sched, ctrl, t.target, 0);
          StateId wantNot = firstStateOf(fn, sched, ctrl, t.elseTarget, 0);
          if (!st.conditional || !inRange(ctrl, wantTaken) ||
              !inRange(ctrl, wantNot) || !(st.nextTaken == wantTaken) ||
              !(st.nextNot == wantNot)) {
            report.error("ctrl.transition-target",
                         stateWhere(ctrl, sid.index()),
                         "branch targets do not match the terminator");
          }
          if (st.conditional) {
            if (st.cond.finalWidth() != 1) {
              std::ostringstream oss;
              oss << "branch condition is " << st.cond.finalWidth()
                  << " bits wide";
              report.error("ctrl.cond-width", stateWhere(ctrl, sid.index()),
                           oss.str());
            }
            if (st.cond.kind == Source::Kind::Fu &&
                (st.cond.id < 0 || st.cond.id >= binding.numFus())) {
              report.error("ctrl.cond-source", stateWhere(ctrl, sid.index()),
                           "branch condition names a nonexistent unit");
            }
          }
          break;
        }
      }
    }
  }

  // Successor ranges for every state (including unmapped ones).
  for (std::size_t s = 0; s < n; ++s) {
    const CtrlState& st = ctrl.states[s];
    if (st.halt) continue;
    if (st.conditional) {
      if (!inRange(ctrl, st.nextTaken) || !inRange(ctrl, st.nextNot))
        report.error("ctrl.transition-range", stateWhere(ctrl, s),
                     "conditional successor out of range");
    } else if (!inRange(ctrl, st.next)) {
      report.error("ctrl.transition-range", stateWhere(ctrl, s),
                   "successor out of range");
    }
  }

  // --- reachability ------------------------------------------------------
  // Successors per state (at most two), then predecessors in CSR form.
  std::vector<std::array<std::size_t, 2>> succ(n);
  std::vector<std::uint8_t> numSucc(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    const CtrlState& st = ctrl.states[s];
    if (st.halt) continue;
    auto add = [&](StateId t) {
      if (inRange(ctrl, t)) succ[s][numSucc[s]++] = t.index();
    };
    if (st.conditional) {
      add(st.nextTaken);
      add(st.nextNot);
    } else {
      add(st.next);
    }
  }

  std::vector<char> reach(n, 0);
  std::vector<std::size_t> work{ctrl.initial.index()};
  reach[ctrl.initial.index()] = 1;
  for (std::size_t head = 0; head < work.size(); ++head) {
    const std::size_t s = work[head];
    for (std::uint8_t k = 0; k < numSucc[s]; ++k)
      if (const std::size_t t = succ[s][k]; !reach[t]) {
        reach[t] = 1;
        work.push_back(t);
      }
  }
  for (std::size_t s = 0; s < n; ++s)
    if (!reach[s])
      report.error("ctrl.unreachable-state", stateWhere(ctrl, s),
                   "state is unreachable from the initial state");

  // Reverse reachability to halt.
  std::vector<std::size_t> predStart(n + 1, 0), preds;
  for (std::size_t s = 0; s < n; ++s)
    for (std::uint8_t k = 0; k < numSucc[s]; ++k) ++predStart[succ[s][k] + 1];
  for (std::size_t s = 0; s < n; ++s) predStart[s + 1] += predStart[s];
  preds.resize(predStart[n]);
  {
    std::vector<std::size_t> fill(predStart.begin(), predStart.end() - 1);
    for (std::size_t s = 0; s < n; ++s)
      for (std::uint8_t k = 0; k < numSucc[s]; ++k)
        preds[fill[succ[s][k]]++] = s;
  }
  std::vector<char> live(n, 0);
  work.assign(1, ctrl.haltState.index());
  live[ctrl.haltState.index()] = 1;
  for (std::size_t head = 0; head < work.size(); ++head) {
    const std::size_t s = work[head];
    for (std::size_t k = predStart[s]; k < predStart[s + 1]; ++k)
      if (const std::size_t p = preds[k]; !live[p]) {
        live[p] = 1;
        work.push_back(p);
      }
  }
  for (std::size_t s = 0; s < n; ++s)
    if (!live[s])
      report.error("ctrl.dead-state", stateWhere(ctrl, s),
                   "state cannot reach the halt state");

  // --- datapath actions --------------------------------------------------
  // Reconstruct the action set each state must assert from the schedule and
  // the interconnect's per-op wiring (the same recipe buildController uses),
  // then require the controller to match it exactly. The sets are compared
  // as sorted typed keys; a state whose sets differ is re-diffed on the
  // rendered keys, which names each missing and extra action.
  std::vector<StateKey<FuKey>> wantFu;
  std::vector<StateKey<LegKey>> wantReg, wantPort;
  bool wiringUsable = ic.opWiring.size() == fn.numBlocks();
  for (const auto& blk : fn.blocks()) {
    if (!wiringUsable) break;
    const BlockSchedule& bs = sched.of(blk.id);
    if (ic.opWiring[blk.id.index()].size() != blk.ops.size() ||
        bs.step.size() != blk.ops.size()) {
      wiringUsable = false;  // other analyzers report the size mismatch
      break;
    }
    for (std::size_t i = 0; i < blk.ops.size(); ++i) {
      const OpWiring& ow = ic.opWiring[blk.id.index()][i];
      if (ow.fu < 0 && ow.destReg < 0 && ow.destPort < 0) continue;
      StateId sid = ctrl.stateAt(blk.id, bs.step[i]);
      if (!inRange(ctrl, sid)) continue;  // reported as step-uncovered
      const Op& o = fn.op(blk.ops[i]);
      int doneStep = bs.step[i];
      if (ow.fu >= 0) {
        FuAction fa;
        fa.fu = ow.fu;
        fa.kind = o.kind;
        fa.width = o.result.valid() ? fn.value(o.result).width : 1;
        fa.cycles = latencies.of(o.kind);
        for (int p = 0; p < 3; ++p) fa.muxSel[p] = ow.fuMuxSel[p];
        wantFu.push_back({sid.index(), fuKey(fa)});
        doneStep = bs.step[i] + fa.cycles - 1;
      }
      if (ow.destReg >= 0 || ow.destPort >= 0) {
        StateId did = ctrl.stateAt(blk.id, doneStep);
        if (!inRange(ctrl, did)) {
          report.error("ctrl.step-uncovered", stepWhere(blk, doneStep),
                       "operation completes in a step with no FSM state");
          continue;
        }
        if (ow.destReg >= 0)
          wantReg.push_back({did.index(), {ow.destReg, ow.destRegMuxSel}});
        if (ow.destPort >= 0)
          wantPort.push_back({did.index(), {ow.destPort, ow.destPortMuxSel}});
      }
    }
  }
  if (wiringUsable) {
    std::sort(wantFu.begin(), wantFu.end());
    std::sort(wantReg.begin(), wantReg.end());
    std::sort(wantPort.begin(), wantPort.end());
    ActionCursor<FuKey> fuCur(wantFu);
    ActionCursor<LegKey> regCur(wantReg), portCur(wantPort);
    for (std::size_t s = 0; s < n; ++s) {
      const CtrlState& st = ctrl.states[s];
      fuCur.check(ctrl, s, st.fuActions, fuKey, fuActionKey, "FU operation",
                  report);
      regCur.check(ctrl, s, st.regActions, regKey, regActionKey,
                   "register load", report);
      portCur.check(ctrl, s, st.portActions, portKey, portActionKey,
                    "port write", report);
    }
  }
}

}  // namespace mphls
