// Clique partitioning (Section 3.2.2, Fig. 7, after Tseng & Siewiorek):
// "creating graphs in which the elements to be assigned to hardware ...
// are represented by nodes, and there is an arc between two nodes if and
// only if the corresponding elements can share the same hardware. The
// problem then becomes one of finding those sets of nodes in the graph all
// of whose members are connected to one another ... If the objective is to
// minimize the number of hardware units, then we would want to find the
// minimal number of cliques that cover the graph."
//
// Finding maximal cliques is NP-hard, "so in practice, greedy heuristics
// are employed" — the heuristic here merges the edge whose endpoints share
// the most common neighbors (Tseng–Siewiorek); an exact branch-and-bound
// cover is provided for small graphs so the heuristic can be audited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mphls {

/// Undirected compatibility graph over n nodes, stored as one bitset row
/// of `words()` 64-bit words per node.
class CompatGraph {
 public:
  explicit CompatGraph(std::size_t n)
      : n_(n), words_((n + 63) / 64), bits_(n * words_) {}

  void addEdge(std::size_t a, std::size_t b) {
    if (a == b) return;
    bits_[a * words_ + (b >> 6)] |= std::uint64_t{1} << (b & 63);
    bits_[b * words_ + (a >> 6)] |= std::uint64_t{1} << (a & 63);
  }
  [[nodiscard]] bool compatible(std::size_t a, std::size_t b) const {
    return (bits_[a * words_ + (b >> 6)] >> (b & 63)) & 1;
  }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t edgeCount() const;

  /// Words per adjacency row.
  [[nodiscard]] std::size_t words() const { return words_; }
  /// Every row back to back: bit b of row a (word a * words() + b / 64,
  /// bit b % 64) is set when a and b are compatible.
  [[nodiscard]] const std::vector<std::uint64_t>& rows() const {
    return bits_;
  }

 private:
  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// A clique cover: `group[i]` is the clique index of node i; `count` the
/// number of cliques.
struct CliqueCover {
  std::vector<std::size_t> group;
  std::size_t count = 0;

  [[nodiscard]] std::vector<std::vector<std::size_t>> cliques() const;
};

/// "n=<nodes> e=<edges>": the size payload of an `alloc.clique` trace span.
[[nodiscard]] std::string compatSizeArg(const CompatGraph& g);

/// Tseng–Siewiorek greedy clique partitioning: repeatedly merge the
/// compatible pair with the most common neighbours (first such pair in
/// (a, b) order). O(n^3) worst case: common-neighbour counts are computed
/// once by AND+popcount and updated per merge only for the pairs it
/// touches.
[[nodiscard]] CliqueCover cliquePartition(const CompatGraph& g);

/// Exact minimum clique cover by branch and bound (practical to ~20 nodes;
/// node budget guards larger inputs, falling back to the heuristic).
[[nodiscard]] CliqueCover cliquePartitionExact(const CompatGraph& g,
                                               long nodeBudget = 1'000'000);

/// Check that every group id of `cover` is below `count` and every group
/// is a clique of `g`.
[[nodiscard]] bool coverIsValid(const CompatGraph& g, const CliqueCover& c);

}  // namespace mphls
