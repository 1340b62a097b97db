#include "alloc/clique.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/diag.h"

namespace mphls {

std::size_t CompatGraph::edgeCount() const {
  std::size_t ends = 0;
  for (std::uint64_t w : bits_) ends += (std::size_t)std::popcount(w);
  return ends / 2;
}

std::string compatSizeArg(const CompatGraph& g) {
  return "n=" + std::to_string(g.size()) +
         " e=" + std::to_string(g.edgeCount());
}

std::vector<std::vector<std::size_t>> CliqueCover::cliques() const {
  std::vector<std::vector<std::size_t>> out(count);
  for (std::size_t i = 0; i < group.size(); ++i) out[group[i]].push_back(i);
  return out;
}

bool coverIsValid(const CompatGraph& g, const CliqueCover& c) {
  if (c.group.size() != g.size()) return false;
  for (std::size_t i = 0; i < g.size(); ++i)
    if (c.group[i] >= c.count) return false;
  for (std::size_t i = 0; i < g.size(); ++i)
    for (std::size_t j = i + 1; j < g.size(); ++j)
      if (c.group[i] == c.group[j] && !g.compatible(i, j)) return false;
  return true;
}

namespace {

/// Calls fn(i) for every set bit i >= from of the bitset whose word w is
/// word(w), over `words` words, in ascending order.
template <class Word, class Fn>
void forEachBit(std::size_t words, std::size_t from, Word word, Fn fn) {
  for (std::size_t w = from >> 6; w < words; ++w) {
    std::uint64_t bits = word(w);
    if (w == from >> 6) bits &= ~std::uint64_t{0} << (from & 63);
    while (bits) {
      fn(w * 64 + (std::size_t)std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
}

std::uint32_t popcountAnd(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
  std::uint32_t c = 0;
  for (std::size_t w = 0; w < words; ++w)
    c += (std::uint32_t)std::popcount(a[w] & b[w]);
  return c;
}

}  // namespace

CliqueCover cliquePartition(const CompatGraph& g) {
  const std::size_t n = g.size();
  const std::size_t words = g.words();
  // Work on super-nodes: each starts as one node; merging a super-node
  // pair requires pairwise compatibility of all members (kept implicitly:
  // super-nodes stay connected to x only when all members connect to x).
  // A merged-away node's bit is cleared from every row, so a row only
  // ever holds live neighbours.
  std::vector<std::vector<std::size_t>> members(n);
  std::vector<std::uint64_t> adj = g.rows();
  std::vector<bool> alive(n, true);
  for (std::size_t i = 0; i < n; ++i) members[i] = {i};
  auto row = [&](std::size_t i) { return adj.data() + i * words; };

  // common[a * n + b] (a < b, a and b adjacent): number of live nodes
  // adjacent to both. Entries of non-adjacent pairs are never read.
  std::vector<std::uint32_t> common(n * n);
  for (std::size_t a = 0; a < n; ++a)
    forEachBit(words, a + 1, [&](std::size_t w) { return row(a)[w]; },
               [&](std::size_t b) {
                 common[a * n + b] = popcountAnd(row(a), row(b), words);
               });

  std::vector<std::uint64_t> na(words), nb(words);
  for (;;) {
    // Pick the compatible pair with the most common neighbors
    // (Tseng–Siewiorek selection rule); the first in (a, b) order wins
    // ties.
    std::size_t bestA = n, bestB = n;
    std::int64_t bestCommon = -1;
    for (std::size_t a = 0; a < n; ++a) {
      const std::uint32_t* ca = common.data() + a * n;
      forEachBit(words, a + 1, [&](std::size_t w) { return row(a)[w]; },
                 [&](std::size_t b) {
                   if ((std::int64_t)ca[b] > bestCommon) {
                     bestCommon = ca[b];
                     bestA = a;
                     bestB = b;
                   }
                 });
    }
    if (bestA == n) break;  // no compatible pair remains
    const std::size_t a = bestA, b = bestB;

    // Merge b into a: the merged super-node is adjacent to x only when
    // both were (so its members remain a clique after future merges).
    // na / nb: the old neighbourhoods of a and b, without each other.
    std::copy(row(a), row(a) + words, na.begin());
    std::copy(row(b), row(b) + words, nb.begin());
    na[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    nb[a >> 6] &= ~(std::uint64_t{1} << (a & 63));

    // Adjacent pairs inside nb lose b as a common neighbour; adjacent pairs
    // inside na, unless both ends are also in nb, lose a.
    forEachBit(words, 0, [&](std::size_t w) { return nb[w]; },
               [&](std::size_t x) {
                 forEachBit(words, x + 1,
                            [&](std::size_t w) { return nb[w] & row(x)[w]; },
                            [&](std::size_t y) { --common[x * n + y]; });
               });
    forEachBit(words, 0, [&](std::size_t w) { return na[w]; },
               [&](std::size_t x) {
                 const bool xInB = (nb[x >> 6] >> (x & 63)) & 1;
                 forEachBit(words, x + 1,
                            [&](std::size_t w) {
                              return na[w] & row(x)[w] &
                                     (xInB ? ~nb[w] : ~std::uint64_t{0});
                            },
                            [&](std::size_t y) { --common[x * n + y]; });
               });

    // Rewire: b leaves every row; a stays only in rows of nodes in nb.
    forEachBit(words, 0, [&](std::size_t w) { return nb[w]; },
               [&](std::size_t x) {
                 row(x)[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
               });
    forEachBit(words, 0, [&](std::size_t w) { return na[w] & ~nb[w]; },
               [&](std::size_t x) {
                 row(x)[a >> 6] &= ~(std::uint64_t{1} << (a & 63));
               });
    for (std::size_t w = 0; w < words; ++w) {
      row(a)[w] = na[w] & nb[w];
      row(b)[w] = 0;
    }
    forEachBit(words, 0, [&](std::size_t w) { return row(a)[w]; },
               [&](std::size_t y) {
                 common[std::min(a, y) * n + std::max(a, y)] =
                     popcountAnd(row(a), row(y), words);
               });

    members[a].insert(members[a].end(), members[b].begin(),
                      members[b].end());
    alive[b] = false;
  }

  CliqueCover cover;
  cover.group.assign(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    if (!alive[a]) continue;
    for (std::size_t m : members[a]) cover.group[m] = cover.count;
    ++cover.count;
  }
  MPHLS_CHECK(coverIsValid(g, cover), "greedy clique cover invalid");
  return cover;
}

namespace {

struct ExactSearcher {
  const CompatGraph& g;
  long budget;
  long nodes = 0;
  bool exhausted = false;

  std::vector<std::size_t> assign;       // clique per node (partial)
  std::vector<std::size_t> best;
  std::size_t bestCount;

  explicit ExactSearcher(const CompatGraph& graph, long b, std::size_t ub)
      : g(graph), budget(b), bestCount(ub) {
    assign.assign(g.size(), 0);
    best.assign(g.size(), 0);
  }

  void dfs(std::size_t idx, std::size_t used) {
    if (exhausted || ++nodes > budget) {
      exhausted = true;
      return;
    }
    if (used >= bestCount) return;  // bound
    if (idx == g.size()) {
      bestCount = used;
      best = assign;
      return;
    }
    // Try existing cliques.
    for (std::size_t c = 0; c < used; ++c) {
      bool ok = true;
      for (std::size_t j = 0; j < idx; ++j) {
        if (assign[j] == c && !g.compatible(idx, j)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        assign[idx] = c;
        dfs(idx + 1, used);
      }
    }
    // Open a new clique.
    assign[idx] = used;
    dfs(idx + 1, used + 1);
  }
};

}  // namespace

CliqueCover cliquePartitionExact(const CompatGraph& g, long nodeBudget) {
  CliqueCover greedy = cliquePartition(g);
  if (g.size() == 0) return greedy;

  ExactSearcher sr(g, nodeBudget, greedy.count + 1);
  // Seed with the greedy solution as the incumbent.
  sr.best = greedy.group;
  sr.bestCount = greedy.count;
  sr.dfs(0, 0);

  CliqueCover cover;
  cover.group = sr.best;
  cover.count = sr.bestCount;
  MPHLS_CHECK(coverIsValid(g, cover), "exact clique cover invalid");
  return cover;
}

}  // namespace mphls
