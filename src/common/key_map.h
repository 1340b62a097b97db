// Open-addressing hash map from 64-bit keys to small values: lookups with
// no allocation, no division and no pointer chasing, for hot allocator
// loops ("has this (unit, port, source) been seen?", "which component is
// cheapest for this (kind mask, width)?").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mphls {

template <class V>
class KeyMap {
 public:
  /// The value stored under `key`, or nullptr.
  [[nodiscard]] const V* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = slot(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used) return nullptr;
      if (slots_[i].key == key) return &slots_[i].value;
    }
  }

  /// Insert `value` under `key` unless the key is present; returns the
  /// stored value and whether it was inserted. The pointer stays valid
  /// until the next insertion.
  std::pair<V*, bool> emplace(std::uint64_t key, V value) {
    if ((count_ + 1) * 2 > slots_.size()) grow();
    for (std::size_t i = slot(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) {
        s = {key, std::move(value), true};
        ++count_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  [[nodiscard]] std::size_t slot(std::uint64_t key) const {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    return (std::size_t)key & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    count_ = 0;
    for (Slot& s : old)
      if (s.used) emplace(s.key, std::move(s.value));
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

/// Membership-only KeyMap.
using KeySet = KeyMap<char>;

}  // namespace mphls
