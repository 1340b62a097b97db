#include "clique_reference.h"

#include "common/diag.h"

namespace mphls {

CliqueCover cliquePartitionReference(const CompatGraph& g) {
  const std::size_t n = g.size();
  // Work on super-nodes: each starts as one node; merging a super-node
  // pair requires pairwise compatibility of all members (kept implicitly:
  // super-nodes stay connected to x only when all members connect to x).
  std::vector<std::vector<std::size_t>> members(n);
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n));
  std::vector<bool> alive(n, true);
  for (std::size_t i = 0; i < n; ++i) members[i] = {i};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) adj[i][j] = g.compatible(i, j);

  for (;;) {
    // Pick the compatible pair with the most common neighbors
    // (Tseng–Siewiorek selection rule).
    std::size_t bestA = n, bestB = n;
    int bestCommon = -1;
    for (std::size_t a = 0; a < n; ++a) {
      if (!alive[a]) continue;
      for (std::size_t b = a + 1; b < n; ++b) {
        if (!alive[b] || !adj[a][b]) continue;
        int common = 0;
        for (std::size_t x = 0; x < n; ++x)
          if (alive[x] && x != a && x != b && adj[a][x] && adj[b][x])
            ++common;
        if (common > bestCommon) {
          bestCommon = common;
          bestA = a;
          bestB = b;
        }
      }
    }
    if (bestA == n) break;  // no compatible pair remains

    // Merge b into a: the merged super-node is adjacent to x only when
    // both were (so its members remain a clique after future merges).
    for (std::size_t x = 0; x < n; ++x) {
      adj[bestA][x] = adj[bestA][x] && adj[bestB][x];
      adj[x][bestA] = adj[bestA][x];
    }
    members[bestA].insert(members[bestA].end(), members[bestB].begin(),
                          members[bestB].end());
    alive[bestB] = false;
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

}  // namespace mphls
