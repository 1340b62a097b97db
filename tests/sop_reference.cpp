#include "sop_reference.h"

namespace mphls {

SopCover minimizeCoverReference(const SopCover& cover, int* merges,
                                int* absorbs) {
  int merged = 0, absorbed = 0;
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
        ++merged;
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
        ++absorbed;
      }
    }
  }
  if (merges) *merges = merged;
  if (absorbs) *absorbs = absorbed;
  return out;
}

}  // namespace mphls
