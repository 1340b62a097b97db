// Semantic lints driven by the abstract-interpretation engine
// (analysis/dataflow.h): findings about the *behavior* itself, as opposed to
// the structural stage contracts the other checkers enforce. All findings
// are warning severity — they describe designs that synthesize and simulate
// fine but almost certainly do not mean what the author wrote.
//
// Check ids:
//   analysis.read-before-write   variable read before any store on every
//                                path (the read sees the implicit zero)
//   analysis.dead-branch         branch condition provably constant
//   analysis.unreachable-block   block no execution can reach
//   analysis.store-truncates     assigned value provably exceeds the
//                                destination width (bits are always lost)
//   analysis.div-by-zero         divisor whose value range contains zero
#pragma once

#include "check/report.h"
#include "ir/cdfg.h"

namespace mphls {

struct AnalysisResult;

/// Analyze `fn` and lint the facts.
void checkSemantics(const Function& fn, CheckReport& report);

/// Lint facts already computed for `fn` by analyzeFunction.
void checkSemantics(const Function& fn, const AnalysisResult& res,
                    CheckReport& report);

}  // namespace mphls
