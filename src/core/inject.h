// Deliberate miscompiles: the self-test of the verification oracles. The
// fuzz runner injects them to prove co-simulation and the static checkers
// catch divergence (and to exercise the reducer); `mphls prove --inject`
// injects them to prove the equivalence engine does.
#pragma once

#include <string>

#include "ir/cdfg.h"
#include "ir/latency.h"
#include "rtl/design.h"

namespace mphls {

/// Which miscompile to inject, if any:
///
///   - MulToAdd mutates the IR handed to the backend: every multiply
///     becomes an add, so any program whose output depends on a product
///     mismatches.
///   - ScheduleShift mutates the finished design: one eligible operation
///     is issued a control step early, so it latches a stale register
///     value (a classic off-by-one scheduler bug).
///   - SwappedBinding mutates the finished design: one non-commutative
///     operation gets its operand wiring swapped (a classic binding bug).
enum class InjectedBug { None, MulToAdd, ScheduleShift, SwappedBinding };

/// Parse "mul" | "sched" | "bind"; returns false on anything else.
bool parseInjectedBug(const std::string& name, InjectedBug& out);

/// Rewrite every Mul op into Add; returns the number of ops rewritten.
int injectMulToAdd(Function& fn);

/// Move one operation one control step earlier and rebuild the controller.
/// The site is chosen so the mutated design still executes (its unit is
/// idle in the destination step, no same-step unit-output wiring breaks)
/// but reads at least one operand register before its producer's write
/// commits. Returns 1 when a site was mutated, 0 when none qualifies.
int injectScheduleShift(RtlDesign& d,
                        const OpLatencyModel& lat = OpLatencyModel::unit());

/// Flip the operand wiring of one non-commutative two-operand operation
/// and rebuild the interconnect and controller. Returns 1 when a site was
/// mutated, 0 when none qualifies.
int injectSwappedBinding(RtlDesign& d,
                         const OpLatencyModel& lat = OpLatencyModel::unit());

}  // namespace mphls
