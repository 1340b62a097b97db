// Two-level (sum-of-products) logic representation and minimization, used
// to synthesize the hardwired controller's next-state and output logic
// (Section 2: "the FSM can be synthesized using known methods, including
// state encoding and optimization of the combinational logic").
//
// The minimizer is a cube-merging pass (adjacent cubes differing in one
// input literal with identical outputs combine; covered cubes are
// absorbed) — a light Quine–McCluskey adequate for controller-sized
// functions, with an exhaustive equivalence checker for auditing. Merge
// partners are found through hashed buckets rather than by rescanning
// every pair, so controllers of thousands of states minimize in
// near-linear time.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mphls {

/// One product term over `n` inputs with `m` outputs. Input literal values:
/// 0, 1, or 2 (don't care). An input vector matches the cube when every
/// non-don't-care literal agrees; then every output with a 1 is asserted.
struct Cube {
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;

  /// Input i is bit i % 64 of word i / 64; words past the end read as 0,
  /// so covers with more than 64 inputs (a 64-state one-hot controller
  /// plus its branch condition) evaluate without truncation.
  [[nodiscard]] bool matches(std::span<const std::uint64_t> inputWords) const;
  /// Single-word convenience: inputs 64 and up read as 0.
  [[nodiscard]] bool matches(std::uint64_t inputBits) const {
    return matches(std::span<const std::uint64_t>(&inputBits, 1));
  }
  [[nodiscard]] int literalCount() const;
  /// True when this cube's input space contains `o`'s entirely.
  [[nodiscard]] bool covers(const Cube& o) const;
};

struct SopCover {
  int numInputs = 0;
  int numOutputs = 0;
  std::vector<Cube> cubes;

  /// Evaluate: OR of all matching cubes' outputs (input layout as in
  /// Cube::matches).
  [[nodiscard]] std::vector<bool> eval(
      std::span<const std::uint64_t> inputWords) const;
  [[nodiscard]] std::vector<bool> eval(std::uint64_t inputBits) const {
    return eval(std::span<const std::uint64_t>(&inputBits, 1));
  }

  [[nodiscard]] int termCount() const { return (int)cubes.size(); }
  [[nodiscard]] int literalCount() const;
  /// Classic PLA area model: (2*inputs + outputs) * terms.
  [[nodiscard]] double plaArea() const {
    return static_cast<double>(2 * numInputs + numOutputs) * termCount();
  }
  [[nodiscard]] std::string str() const;
};

/// Merge/absorb minimization; result computes the same function. Order
/// contract: repeatedly merge the first distance-1 pair with identical
/// outputs in (i, j) order (cube i frees the literal, cube j goes) until
/// none is left, then let each live cube, in index order, drop every other
/// live cube it covers whose outputs its own include — exactly the cover
/// of the restart-scan loop kept as the test oracle
/// minimizeCoverReference. Cost: near-linear in cubes x literals (hashed
/// partner lookups), plus cubes x distinct care sets for the absorb probe.
[[nodiscard]] SopCover minimizeCover(const SopCover& cover);

/// Exhaustive functional equivalence (numInputs <= 20).
[[nodiscard]] bool coversEquivalent(const SopCover& a, const SopCover& b);

}  // namespace mphls
