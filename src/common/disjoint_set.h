// Union-find with path compression and union by size; used by the clique
// partitioner and the bus allocator to merge compatible element groups.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

namespace mphls {

class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  [[nodiscard]] std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merge the sets containing `a` and `b`; returns false if already merged.
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

  [[nodiscard]] bool same(std::size_t a, std::size_t b) {
    return find(a) == find(b);
  }
  [[nodiscard]] std::size_t sizeOf(std::size_t x) { return size_[find(x)]; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace mphls
