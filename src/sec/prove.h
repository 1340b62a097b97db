// Sequential behavioral-vs-RTL equivalence proof.
//
// Decomposition: the controller executes one basic block as a fixed run of
// states, so whole-run equivalence follows inductively from three per-block
// facts, each decidable on expression DAGs:
//   1. control structure: the state graph mirrors the CFG (first state of
//      each transfer target, fall-through chains, halt on Return);
//   2. data: starting from an arbitrary register file constrained only by
//      the correspondence invariant "for every live-in variable v stored in
//      register r: varVal == trunc(regVal[r], width(v))", the block's RTL
//      execution re-establishes the invariant for every live-out variable
//      and drives identical values on every written output port;
//   3. steering: the RTL branch condition equals the behavioral one.
// Loops need no extra induction: their bodies are blocks, and the entry
// symbols quantify over every iteration's register file at once.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/report.h"
#include "rtl/design.h"
#include "sec/bitblast.h"
#include "sec/expr.h"

namespace mphls::sec {

struct ProveOptions {
  long conflictBudget = kDefaultConflictBudget;
};

/// Prove the design's datapath+controller equivalent to its behavioral
/// function. Error findings (ids sec.rtl.*, sec.budget-exhausted) mean the
/// proof failed; an empty/clean report is a proof.
[[nodiscard]] CheckReport proveEquivalence(const RtlDesign& d,
                                           const ProveOptions& opts = {});

/// Discharge one obligation `a == b` (under optional 1-bit assumptions):
/// structural identity first, SAT miter second. On failure appends an
/// error finding (`id`, `where`, message built from `what` plus the
/// counterexample). Updates the sec.* metrics. Returns true on success.
/// When `cexOut` is given and still empty, a NotEqual verdict stores its
/// witness assignment there (used by proveEquivalence to replay the first
/// counterexample on the interpreter and the RTL simulator).
bool dischargeEqual(ExprContext& ctx, int a, int b,
                    const std::vector<int>& assumptions, long conflictBudget,
                    const std::string& id, const std::string& where,
                    const std::string& what, CheckReport& rep,
                    std::vector<std::pair<std::string, std::uint64_t>>*
                        cexOut = nullptr);

}  // namespace mphls::sec
