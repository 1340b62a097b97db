// Output checks shared by the workloads: golden outputs from the
// behavioral interpreter on the *unoptimized* compile, and co-simulation of
// a synthesized design against them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "gen.h"

namespace perfbench {

using Stimulus = std::map<std::string, std::uint64_t>;

struct Reference {
  std::vector<Stimulus> inputs;
  std::vector<Stimulus> outputs;  ///< interpreter outputs per input
  std::string error;              ///< non-empty: no reference could be made
};

/// Interpret the unoptimized compile of `d` on `trials` seeded stimuli.
[[nodiscard]] Reference makeReference(const Design& d, std::uint64_t seed,
                                      int trials);

/// Co-simulate `r` on every reference stimulus: verifyAgainstBehavior must
/// agree, and the RTL outputs must equal the reference outputs. Returns ""
/// on agreement, else what differed.
[[nodiscard]] std::string coSimulate(const mphls::SynthesisResult& r,
                                     const Reference& ref);

/// Operations left after the standard optimization pipeline.
[[nodiscard]] std::size_t opsAfterOpt(const std::string& source);

}  // namespace perfbench
