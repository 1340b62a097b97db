// Seeded design generator for the benchmark workloads.
//
// Four templates cover the shapes a designer hands to a high-level
// synthesis tool, each scaled to a nominal operation count:
//   - chain: a straight-line data-flow graph; every value feeds the next
//     one plus a random recent value, input or constant (long dependence
//     chains with bounded lifetimes);
//   - tree:  independent leaf operations reduced pairwise to one result
//     (wide parallelism, many simultaneously live values);
//   - loop:  a do-until loop whose body is a chain over loop-carried state
//     (control flow, loop-carried register lifetimes);
//   - gen:   the fuzzer's random program generator (fuzz/bdl_gen.h) with
//     its statement and expression budgets scaled up (nested if/else and
//     loops, mixed widths, the full operator mix).
// The same (template, size, seed) always yields byte-identical source.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Template { Chain, Tree, Loop, Gen };

struct Design {
  std::string name;    ///< "<template>_<ops>_<seed>", also the proc name
  std::string source;  ///< BDL text
  std::vector<std::string> inputs;
  int nominalOps = 0;
};

[[nodiscard]] Design makeDesign(Template t, int nominalOps,
                                std::uint64_t seed);

/// Deterministic stimulus for co-simulation trial `trial` of a design.
[[nodiscard]] std::map<std::string, std::uint64_t> stimulus(
    const Design& d, std::uint64_t seed, int trial);

/// splitmix64 step, for deriving independent sub-seeds from one seed.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench
