// Transformation pass framework.
//
// Section 2: "it is desirable to do some initial optimization of the
// internal representation. These high-level transformations include such
// compiler-like optimizations as dead code elimination, constant
// propagation, common subexpression elimination, inline expansion of
// procedures and loop unrolling. Local transformations, including those
// that are more specific to hardware, are also used."
//
// Each pass is a small rewriting of a Function that must preserve behavior
// (verified by the equivalence tests in tests/test_opt.cpp). The manager
// runs passes to a fixpoint and re-verifies IR invariants after each run —
// Section 4's observation that "each step in the synthesis process
// preserves the behavior of the initial specification" is checkable.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/cdfg.h"

namespace mphls {

class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Apply the pass; returns the number of rewrites performed.
  virtual int run(Function& fn) = 0;
};

// Factories for every pass (defined in their own translation units).
[[nodiscard]] std::unique_ptr<Pass> createDcePass();
[[nodiscard]] std::unique_ptr<Pass> createConstFoldPass();
[[nodiscard]] std::unique_ptr<Pass> createForwardingPass();  // store->load
[[nodiscard]] std::unique_ptr<Pass> createCsePass();
[[nodiscard]] std::unique_ptr<Pass> createStrengthPass();
[[nodiscard]] std::unique_ptr<Pass> createAlgebraicPass();
[[nodiscard]] std::unique_ptr<Pass> createUnrollPass(int maxTrip = 64);
[[nodiscard]] std::unique_ptr<Pass> createTreeHeightPass();
/// Analysis-driven width narrowing (narrow.cpp). Not part of the standard
/// pipelines: enabled by SynthesisOptions::narrow / `mphls --narrow`.
[[nodiscard]] std::unique_ptr<Pass> createNarrowWidthsPass();

/// Per-pass outcome of a manager run.
struct PassStats {
  std::string pass;
  int changes = 0;
  int iterations = 0;
};

class PassManager {
 public:
  /// Called after each pass application with the pass name, the function
  /// before and after, and the reported change count. Installed by the
  /// translation validator (src/sec/) to prove per-pass equivalence; the
  /// pre-pass snapshot is only cloned while an observer is set.
  using PassObserver = std::function<void(
      std::string_view pass, const Function& before, const Function& after,
      int changes)>;

  PassManager& add(std::unique_ptr<Pass> p) {
    passes_.push_back(std::move(p));
    return *this;
  }

  void setObserver(PassObserver obs) { observer_ = std::move(obs); }

  /// Run all passes round-robin until a full round changes nothing (or
  /// `maxRounds` is hit). Verifies the IR after every pass. Returns stats.
  std::vector<PassStats> run(Function& fn, int maxRounds = 8);

  /// The tutorial's standard cleanup pipeline: forwarding, constant
  /// folding, strength reduction, algebraic simplification, CSE, DCE.
  [[nodiscard]] static PassManager standardPipeline();

  /// Standard pipeline plus loop unrolling and tree-height reduction.
  [[nodiscard]] static PassManager aggressivePipeline(int maxTrip = 64);

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  PassObserver observer_;
};

/// Convenience: run the standard pipeline in place.
void optimize(Function& fn);

/// Every use of every value — each (op, argument slot) that reads it and
/// each block whose branch tests it — built once per pass run so a rewrite
/// costs the uses it moves, not a scan of the function.
///
/// The index may hold stale entries (a slot rewritten since, an op removed
/// since); replace() checks each entry against the IR before touching it,
/// so the only rules for a pass are: write argument slots through
/// setArg/setArgs, and create no ops while the index is in use.
class UseIndex {
 public:
  explicit UseIndex(Function& fn);

  /// Redirect every use of `from` to `to`: the same IR as
  /// Function::replaceAllUses(from, to), uses in dead ops left alone.
  void replace(ValueId from, ValueId to);

  /// Write `v` into argument slot `slot` of `op` and record the use.
  void setArg(OpId op, std::size_t slot, ValueId v);
  /// Replace the whole argument list of `op` and record its uses.
  void setArgs(OpId op, std::vector<ValueId> args);

 private:
  /// Slot value marking a branch-condition use (user is a block index).
  static constexpr std::uint32_t kBranch = 0xffffffffu;
  struct Use {
    std::uint32_t user;  ///< op index, or block index for kBranch
    std::uint32_t slot;
    std::int32_t next;   ///< next use of the same value, -1 at the end
  };

  void add(ValueId v, std::uint32_t user, std::uint32_t slot);

  Function& fn_;
  std::vector<Use> uses_;
  std::vector<std::int32_t> head_, tail_;  ///< per value, -1 when unused
};

/// Answers, per block, whether turning a value into free wiring over `v`
/// could let a consumer outlive `v`'s backing register: the free-wiring
/// chain under `v` roots at a LoadVar whose variable is stored again later
/// in the block. Any pass that aliases an occupying op's result to wiring
/// over an operand (forwarding, algebraic identities, strength reduction)
/// must refuse the rewrite when this holds — otherwise the
/// use-before-overwrite dependence (deps.cpp) contradicts the store-order
/// chain and the block becomes unschedulable.
///
/// Op positions and the last store of each variable are indexed once per
/// block; the answer stays exact while the pass rewrites ops in place,
/// removes ops (removeOp/removeOps), or creates new ones (re-indexed on
/// the next query).
class StoreGuard {
 public:
  explicit StoreGuard(const Function& fn) : fn_(fn) {}

  [[nodiscard]] bool wiringWouldOutliveStore(const Block& blk, ValueId v);

 private:
  void index(const Block& blk);

  const Function& fn_;
  BlockId block_;  ///< block the positions describe
  std::size_t indexedOps_ = 0;  ///< fn_.numOps() when block_ was indexed
  std::vector<std::uint32_t> pos_;        ///< by op: position + 1, 0: absent
  std::vector<std::uint32_t> lastStore_;  ///< by var: op index + 1, 0: none
  std::vector<OpId> placed_;              ///< ops whose pos_ is set
  std::vector<VarId> stored_;             ///< vars whose lastStore_ is set
};

}  // namespace mphls
