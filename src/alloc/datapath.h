// Shared data-path allocation types: operand sources, functional-unit
// instances and the op->FU binding.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "ir/cdfg.h"
#include "lib/library.h"

namespace mphls {

/// One free wiring operation applied between a datapath source and its
/// consumer: a width cast or a constant shift. In hardware this is pure
/// wiring (bit selection / padding), but distinct transforms of the same
/// root are distinct multiplexer legs.
struct WireXform {
  OpKind kind = OpKind::ZExt;
  std::int64_t imm = 0;  ///< constant shift amount
  int width = 0;         ///< result width of this stage

  friend bool operator==(const WireXform& a, const WireXform& b) {
    return a.kind == b.kind && a.imm == b.imm && a.width == b.width;
  }
  friend bool operator<(const WireXform& a, const WireXform& b) {
    return std::tie(a.kind, a.imm, a.width) < std::tie(b.kind, b.imm, b.width);
  }
};

/// Where an operand (or a register/port input) comes from in the datapath.
struct Source {
  enum class Kind { Reg, Port, Const, Fu };
  Kind kind = Kind::Const;
  int id = 0;            ///< register index / port id / fu index
  std::int64_t imm = 0;  ///< constant payload
  /// Wiring applied root-to-consumer, in application order.
  std::vector<WireXform> xform;
  /// Width of the root (before transforms).
  int rootWidth = 0;

  // rootWidth participates in identity: two reads of the same (shared)
  // register at different widths are different wire slices and must be
  // separate multiplexer legs.
  friend bool operator==(const Source& a, const Source& b) {
    return a.kind == b.kind && a.id == b.id && a.imm == b.imm &&
           a.rootWidth == b.rootWidth && a.xform == b.xform;
  }
  friend bool operator<(const Source& a, const Source& b) {
    return std::tie(a.kind, a.id, a.imm, a.rootWidth, a.xform) <
           std::tie(b.kind, b.id, b.imm, b.rootWidth, b.xform);
  }
  [[nodiscard]] std::string str() const;
  /// Width after all transforms (rootWidth when none).
  [[nodiscard]] int finalWidth() const {
    return xform.empty() ? rootWidth : xform.back().width;
  }
};

/// Hash consistent with Source::operator==.
[[nodiscard]] inline std::uint64_t hashSource(const Source& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix((std::uint64_t)s.kind);
  mix((std::uint64_t)(std::int64_t)s.id);
  mix((std::uint64_t)s.imm);
  mix((std::uint64_t)(std::int64_t)s.rootWidth);
  for (const WireXform& x : s.xform) {
    mix((std::uint64_t)x.kind);
    mix((std::uint64_t)x.imm);
    mix((std::uint64_t)(std::int64_t)x.width);
  }
  return h;
}

/// Dense int ids for sources: equal sources get equal ids, numbered in
/// first-seen order.
class SourceIds {
 public:
  int of(const Source& s) {
    return ids_.emplace(s, (int)ids_.size()).first->second;
  }
  [[nodiscard]] int size() const { return (int)ids_.size(); }

 private:
  struct Hash {
    std::size_t operator()(const Source& s) const {
      return (std::size_t)hashSource(s);
    }
  };
  std::unordered_map<Source, int, Hash> ids_;
};

/// One allocated functional-unit instance.
struct FuInstance {
  std::vector<OpKind> kinds;  ///< operation kinds mapped onto it
  int width = 0;              ///< widest operation it executes
  CompId comp;                ///< bound library component

  [[nodiscard]] bool performs(OpKind k) const {
    for (OpKind x : kinds)
      if (x == k) return true;
    return false;
  }
};

/// Result of functional-unit allocation for a whole function.
struct FuBinding {
  std::vector<FuInstance> fus;
  /// Per block (by BlockId), per op index: FU index or -1 (no FU needed).
  std::vector<std::vector<int>> fuOfOp;
  /// Per block, per op index: operands presented in swapped order (chosen
  /// by the allocator for commutative ops to reduce multiplexing).
  std::vector<std::vector<bool>> swappedOfOp;

  [[nodiscard]] int numFus() const { return (int)fus.size(); }
};

}  // namespace mphls
