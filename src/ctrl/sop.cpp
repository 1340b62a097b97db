#include "ctrl/sop.h"

#include <algorithm>
#include <sstream>

#include "common/diag.h"

namespace mphls {

bool Cube::matches(std::span<const std::uint64_t> inputWords) const {
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == 2) continue;
    const std::size_t w = i / 64;
    bool bit = w < inputWords.size() && ((inputWords[w] >> (i % 64)) & 1);
    if (bit != (in[i] == 1)) return false;
  }
  return true;
}

int Cube::literalCount() const {
  int n = 0;
  for (std::uint8_t v : in)
    if (v != 2) ++n;
  return n;
}

bool Cube::covers(const Cube& o) const {
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == 2) continue;
    if (o.in[i] != in[i]) return false;
  }
  return true;
}

std::vector<bool> SopCover::eval(
    std::span<const std::uint64_t> inputWords) const {
  std::vector<bool> out(static_cast<std::size_t>(numOutputs), false);
  for (const Cube& c : cubes) {
    if (!c.matches(inputWords)) continue;
    for (std::size_t o = 0; o < out.size(); ++o)
      if (c.out[o]) out[o] = true;
  }
  return out;
}

int SopCover::literalCount() const {
  int n = 0;
  for (const Cube& c : cubes) n += c.literalCount();
  return n;
}

std::string SopCover::str() const {
  std::ostringstream oss;
  for (const Cube& c : cubes) {
    for (std::uint8_t v : c.in) oss << (v == 2 ? '-' : char('0' + v));
    oss << " | ";
    for (std::uint8_t v : c.out) oss << char('0' + v);
    oss << "\n";
  }
  return oss.str();
}

SopCover minimizeCover(const SopCover& cover) {
  SopCover out = cover;
  bool changed = true;
  while (changed) {
    changed = false;

    // Merge: two cubes with identical outputs differing in exactly one
    // non-don't-care input literal combine into one with that literal
    // freed (the distance-1 Quine–McCluskey step).
    for (std::size_t i = 0; i < out.cubes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < out.cubes.size() && !changed; ++j) {
        Cube& a = out.cubes[i];
        Cube& b = out.cubes[j];
        if (a.out != b.out) continue;
        int diffAt = -1;
        bool mergeable = true;
        for (std::size_t k = 0; k < a.in.size(); ++k) {
          if (a.in[k] == b.in[k]) continue;
          if (a.in[k] == 2 || b.in[k] == 2) {
            mergeable = false;  // unequal don't-care structure
            break;
          }
          if (diffAt >= 0) {
            mergeable = false;
            break;
          }
          diffAt = (int)k;
        }
        if (!mergeable || diffAt < 0) continue;
        a.in[static_cast<std::size_t>(diffAt)] = 2;
        out.cubes.erase(out.cubes.begin() + (std::ptrdiff_t)j);
        changed = true;
      }
    }
    if (changed) continue;

    // Absorb: drop any cube whose inputs are covered by another cube with
    // an output superset.
    for (std::size_t i = 0; i < out.cubes.size() && !changed; ++i) {
      for (std::size_t j = 0; j < out.cubes.size() && !changed; ++j) {
        if (i == j) continue;
        const Cube& big = out.cubes[i];
        const Cube& small = out.cubes[j];
        if (!big.covers(small)) continue;
        bool outSuperset = true;
        for (std::size_t o = 0; o < big.out.size(); ++o)
          if (small.out[o] && !big.out[o]) {
            outSuperset = false;
            break;
          }
        if (!outSuperset) continue;
        out.cubes.erase(out.cubes.begin() + (std::ptrdiff_t)j);
        changed = true;
      }
    }
  }
  return out;
}

bool coversEquivalent(const SopCover& a, const SopCover& b) {
  MPHLS_CHECK(a.numInputs == b.numInputs && a.numOutputs == b.numOutputs,
              "cover shape mismatch");
  MPHLS_CHECK(a.numInputs <= 20, "exhaustive check too large");
  const std::uint64_t limit = 1ULL << a.numInputs;
  for (std::uint64_t v = 0; v < limit; ++v)
    if (a.eval(v) != b.eval(v)) return false;
  return true;
}

}  // namespace mphls
