#include "ctrl/sop.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>

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

namespace {

/// The minimizer's working view of a cover: every cube's care and value
/// literals and its outputs packed into 64-bit words (value bits only where
/// the cube cares), its output class (cubes with equal outputs share one)
/// and a liveness flag, so a cube keeps its index while merged-away and
/// absorbed cubes drop out.
struct PackedCubes {
  std::size_t n = 0, inWords = 0, outWords = 0;
  std::vector<std::uint64_t> care, value, out;
  std::vector<int> outClass;
  std::vector<int> classSize;  ///< live cubes per output class
  std::vector<char> live;

  explicit PackedCubes(const std::vector<Cube>& cubes) : n(cubes.size()) {
    std::size_t inBits = 0, outBits = 0;
    for (const Cube& c : cubes) {
      inBits = std::max(inBits, c.in.size());
      outBits = std::max(outBits, c.out.size());
    }
    inWords = (inBits + 63) / 64;
    outWords = (outBits + 63) / 64;
    care.assign(n * inWords, 0);
    value.assign(n * inWords, 0);
    out.assign(n * outWords, 0);
    live.assign(n, 1);
    // Word by word with local accumulators: stores through the word
    // arrays would otherwise force a reload per literal byte.
    for (std::size_t k = 0; k < n; ++k) {
      const Cube& c = cubes[k];
      const std::uint8_t* in = c.in.data();
      for (std::size_t w = 0; w * 64 < c.in.size(); ++w) {
        std::uint64_t cw = 0, vw = 0;
        const std::size_t end = std::min(c.in.size(), w * 64 + 64);
        for (std::size_t i = w * 64; i < end; ++i) {
          cw |= (std::uint64_t)(in[i] != 2) << (i % 64);
          vw |= (std::uint64_t)(in[i] == 1) << (i % 64);
        }
        care[k * inWords + w] = cw;
        value[k * inWords + w] = vw;
      }
      const std::uint8_t* o = c.out.data();
      for (std::size_t w = 0; w * 64 < c.out.size(); ++w) {
        std::uint64_t ow = 0;
        const std::size_t end = std::min(c.out.size(), w * 64 + 64);
        for (std::size_t i = w * 64; i < end; ++i)
          ow |= (std::uint64_t)(o[i] != 0) << (i % 64);
        out[k * outWords + w] = ow;
      }
    }
    // Output classes: cubes sorted by a hash of (output count, output
    // words); equal outputs have equal hashes, so each class lies within
    // one run, where representatives are compared exactly.
    std::vector<std::pair<std::uint64_t, std::size_t>> byHash(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::uint64_t h = mix(kBasis, cubes[k].out.size());
      for (std::size_t w = 0; w < outWords; ++w) h = mix(h, outOf(k)[w]);
      byHash[k] = {h, k};
    }
    std::sort(byHash.begin(), byHash.end());
    outClass.assign(n, -1);
    int classes = 0;
    for (std::size_t a = 0; a < n;) {
      std::size_t b = a;
      while (b < n && byHash[b].first == byHash[a].first) ++b;
      for (std::size_t i = a; i < b; ++i) {
        const std::size_t k = byHash[i].second;
        for (std::size_t j = a; j < i && outClass[k] < 0; ++j) {
          const std::size_t rep = byHash[j].second;
          if (cubes[rep].out.size() == cubes[k].out.size() &&
              std::equal(outOf(k), outOf(k) + outWords, outOf(rep)))
            outClass[k] = outClass[rep];
        }
        if (outClass[k] < 0) outClass[k] = classes++;
      }
      a = b;
    }
    classSize.assign((std::size_t)classes, 0);
    for (std::size_t k = 0; k < n; ++k) ++classSize[(std::size_t)outClass[k]];
  }

  [[nodiscard]] const std::uint64_t* careOf(std::size_t k) const {
    return &care[k * inWords];
  }
  [[nodiscard]] const std::uint64_t* valueOf(std::size_t k) const {
    return &value[k * inWords];
  }
  [[nodiscard]] const std::uint64_t* outOf(std::size_t k) const {
    return &out[k * outWords];
  }
  /// True when cube k has another live cube with the same outputs.
  [[nodiscard]] bool mayMerge(std::size_t k) const {
    return classSize[(std::size_t)outClass[k]] > 1;
  }

  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  static std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
    return h ^ (h >> 29);
  }
  /// Hash of a care set and values (`iw` words each).
  [[nodiscard]] std::uint64_t inputKey(const std::uint64_t* careW,
                                       const std::uint64_t* valueW) const {
    std::uint64_t h = kBasis;
    for (std::size_t w = 0; w < inWords; ++w)
      h = mix(mix(h, careW[w]), valueW[w]);
    return h;
  }
  /// Hash of (output class, care words, value words with bit `flip` of
  /// word `flipWord` toggled); flipWord == inWords toggles nothing.
  [[nodiscard]] std::uint64_t mergeKey(std::size_t k, std::size_t flipWord,
                                       std::uint64_t flip) const {
    std::uint64_t h = mix(kBasis, (std::uint64_t)outClass[k]);
    for (std::size_t w = 0; w < inWords; ++w) {
      h = mix(h, care[k * inWords + w]);
      h = mix(h, value[k * inWords + w] ^ (w == flipWord ? flip : 0));
    }
    return h;
  }
  /// True when cube j has cube k's outputs and care set and k's values
  /// with bit `flip` of word `flipWord` toggled: the pair is distance 1.
  [[nodiscard]] bool isFlipOf(std::size_t j, std::size_t k,
                              std::size_t flipWord, std::uint64_t flip) const {
    if (outClass[j] != outClass[k]) return false;
    for (std::size_t w = 0; w < inWords; ++w)
      if (care[j * inWords + w] != care[k * inWords + w] ||
          value[j * inWords + w] !=
              (value[k * inWords + w] ^ (w == flipWord ? flip : 0)))
        return false;
    return true;
  }
};

/// Merge to a fixpoint in the reference's order. The scan keeps a row r
/// such that no pair whose first cube precedes r merges. A merge at (r, j)
/// changes only cube r, so the next first pair is (a, r) for the smallest
/// mergeable a < r (then a becomes r and its column is checked in turn),
/// else the first partner in row r again. Distance-1 partners come from
/// buckets keyed by (outputs, care set, values), one lookup per literal of
/// r with that literal flipped; a cube whose outputs no other live cube
/// shares is skipped without a lookup.
void mergeToFixpoint(PackedCubes& p) {
  const std::size_t n = p.n, iw = p.inWords;
  std::unordered_map<std::uint64_t, std::vector<int>> buckets;
  std::vector<std::uint64_t> keyOf(n);
  for (std::size_t k = 0; k < n; ++k)
    if (p.mayMerge(k)) {
      keyOf[k] = p.mergeKey(k, iw, 0);
      buckets[keyOf[k]].push_back((int)k);
    }
  auto unbucket = [&](std::size_t k) {
    std::vector<int>& b = buckets[keyOf[k]];
    b.erase(std::find(b.begin(), b.end(), (int)k));
  };

  // The live cube mergeable with `r` that comes first after it (`after`)
  // or first before it; -1 when none. Sets `bitAt` to the differing
  // literal's input index.
  auto partner = [&](std::size_t r, bool after, std::size_t& bitAt) {
    int best = -1;
    if (!p.mayMerge(r)) return best;
    for (std::size_t w = 0; w < iw; ++w) {
      for (std::uint64_t m = p.careOf(r)[w]; m != 0; m &= m - 1) {
        const std::uint64_t flip = m & (~m + 1);
        auto it = buckets.find(p.mergeKey(r, w, flip));
        if (it == buckets.end()) continue;
        for (int j : it->second) {
          if (after ? j <= (int)r : j >= (int)r) continue;
          if (best >= 0 && j >= best) continue;
          if (!p.isFlipOf((std::size_t)j, r, w, flip)) continue;
          best = j;
          bitAt = w * 64 + (std::size_t)std::countr_zero(flip);
        }
      }
    }
    return best;
  };
  // Merge `gone` into `keep`: free literal `bitAt` of `keep`.
  auto merge = [&](std::size_t keep, std::size_t gone, std::size_t bitAt) {
    unbucket(keep);
    unbucket(gone);
    p.live[gone] = 0;
    --p.classSize[(std::size_t)p.outClass[gone]];
    const std::uint64_t bit = 1ULL << (bitAt % 64);
    p.care[keep * iw + bitAt / 64] &= ~bit;
    p.value[keep * iw + bitAt / 64] &= ~bit;
    keyOf[keep] = p.mergeKey(keep, iw, 0);
    buckets[keyOf[keep]].push_back((int)keep);
  };

  for (std::size_t r = 0; r < n;) {
    std::size_t bitAt = 0;
    const int j = p.live[r] ? partner(r, true, bitAt) : -1;
    if (j < 0) {
      ++r;
      continue;
    }
    merge(r, (std::size_t)j, bitAt);
    for (int a; (a = partner(r, false, bitAt)) >= 0;) {
      merge((std::size_t)a, r, bitAt);
      r = (std::size_t)a;
    }
  }
}

/// Absorb in the reference's order. Absorbs only remove cubes, so they
/// never enable a merge or another absorb: each big cube in index order
/// drops every live cube it covers with an output superset, in index order.
/// Covering pairs: each small cube looks up, for every distinct care set
/// inside its own, the live cubes with that care set and its values masked
/// to it, in a table sorted by a hash of (care set, values).
void absorbCovered(PackedCubes& p) {
  const std::size_t n = p.n, iw = p.inWords;
  auto equalWords = [iw](const std::uint64_t* a, const std::uint64_t* b) {
    return std::equal(a, a + iw, b);
  };
  std::vector<std::size_t> careSets;  ///< a representative cube per set
  std::vector<std::pair<std::uint64_t, std::size_t>> byInput;
  for (std::size_t k = 0; k < n; ++k) {
    if (!p.live[k]) continue;
    byInput.emplace_back(p.inputKey(p.careOf(k), p.valueOf(k)), k);
    if (std::none_of(careSets.begin(), careSets.end(), [&](std::size_t rep) {
          return equalWords(p.careOf(rep), p.careOf(k));
        }))
      careSets.push_back(k);
  }
  std::sort(byInput.begin(), byInput.end());

  std::vector<std::vector<int>> absorbs(n);  ///< per big, ascending smalls
  std::vector<std::uint64_t> masked(iw);
  for (std::size_t s = 0; s < n; ++s) {
    if (!p.live[s]) continue;
    for (std::size_t rep : careSets) {
      const std::uint64_t* m = p.careOf(rep);
      bool subset = true;
      for (std::size_t w = 0; w < iw && subset; ++w) {
        subset = (m[w] & ~p.careOf(s)[w]) == 0;
        masked[w] = p.valueOf(s)[w] & m[w];
      }
      if (!subset) continue;
      const std::uint64_t key = p.inputKey(m, masked.data());
      for (auto it = std::lower_bound(byInput.begin(), byInput.end(),
                                      std::make_pair(key, std::size_t{0}));
           it != byInput.end() && it->first == key; ++it) {
        const std::size_t b = it->second;
        if (b == s || !equalWords(p.careOf(b), m) ||
            !equalWords(p.valueOf(b), masked.data()))
          continue;
        bool outSuperset = true;
        for (std::size_t w = 0; w < p.outWords && outSuperset; ++w)
          outSuperset = (p.outOf(s)[w] & ~p.outOf(b)[w]) == 0;
        if (outSuperset) absorbs[b].push_back((int)s);
      }
    }
  }
  for (std::size_t b = 0; b < n; ++b)
    if (p.live[b])
      for (int s : absorbs[b]) p.live[(std::size_t)s] = 0;
}

}  // namespace

// Same cover as the restart-scan loop (tests/sop_reference.cpp), found
// incrementally: merges to a fixpoint, then absorbs.
SopCover minimizeCover(const SopCover& cover) {
  PackedCubes p(cover.cubes);
  mergeToFixpoint(p);
  absorbCovered(p);

  SopCover result;
  result.numInputs = cover.numInputs;
  result.numOutputs = cover.numOutputs;
  for (std::size_t k = 0; k < p.n; ++k) {
    if (!p.live[k]) continue;
    Cube c = cover.cubes[k];
    // Free the literals merges dropped from this cube's care set.
    for (std::size_t i = 0; i < c.in.size(); ++i)
      if (c.in[i] != 2 && !((p.careOf(k)[i / 64] >> (i % 64)) & 1))
        c.in[i] = 2;
    result.cubes.push_back(std::move(c));
  }
  return result;
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
