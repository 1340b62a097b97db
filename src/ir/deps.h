// Per-block dependence graphs.
//
// This is the paper's data-flow graph (Fig. 1): an edge op_a -> op_b means
// b must not start before a completes in any valid ordering. Edges come
// from value flow (RAW through temporaries) and from ordering constraints
// on variables and ports (RAW/WAR/WAW on the same storage location), which
// is exactly the "essential ordering of operations ... imposed by the data
// relations in the specification".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.h"
#include "ir/cdfg.h"
#include "ir/latency.h"

namespace mphls {

enum class DepKind {
  Data,     ///< value produced by `from` consumed by `to`
  VarRaw,   ///< store -> load of the same variable
  VarWar,   ///< load -> store of the same variable
  VarWaw,   ///< store -> store of the same variable
  PortWaw,  ///< write -> write of the same port
};

struct DepEdge {
  std::size_t from = 0;  ///< index into the block's op list
  std::size_t to = 0;
  DepKind kind = DepKind::Data;
};

/// True for op kinds whose results flow for free within a control step:
/// constants, port/variable reads, width casts, constant shifts, nops.
/// Such ops never force their consumer into a later step.
[[nodiscard]] bool kindFlowsFree(OpKind k);

/// BlockDeps::occupiesSlot for one op, without building a dependence
/// graph: whether `o` takes a control-step slot of its own.
[[nodiscard]] bool opOccupiesSlot(const Function& fn, const Op& o);

/// Root value of `v`, looking through free unary wiring ops (casts and
/// constant shifts): the value that actually occupies a register, port or
/// constant wire in the datapath.
[[nodiscard]] ValueId rootValue(const Function& fn, ValueId v);

/// Dependence graph over one block's operations. Nodes are identified by
/// their index in `Block::ops` so schedulers can use dense arrays.
class BlockDeps {
 public:
  BlockDeps(const Function& fn, const Block& block,
            OpLatencyModel latencies = OpLatencyModel::unit());

  [[nodiscard]] std::size_t numOps() const { return n_; }
  [[nodiscard]] const std::vector<DepEdge>& edges() const { return edges_; }
  /// Successors (predecessors) of node `i`, in edge insertion order.
  [[nodiscard]] std::span<const std::size_t> succs(std::size_t i) const {
    return {succAdj_.data() + succStart_[i], succStart_[i + 1] - succStart_[i]};
  }
  [[nodiscard]] std::span<const std::size_t> preds(std::size_t i) const {
    return {predAdj_.data() + predStart_[i], predStart_[i + 1] - predStart_[i]};
  }
  [[nodiscard]] const Op& op(std::size_t i) const {
    return fn_->op(opIds_[i]);
  }
  [[nodiscard]] const Function& fn() const { return *fn_; }

  /// Topological order (indices). Program order is already topological, but
  /// this validates acyclicity and gives a canonical order for schedulers.
  [[nodiscard]] std::vector<std::size_t> topoOrder() const;

  /// True when there is a (possibly transitive) dependence path a ->* b.
  [[nodiscard]] bool reaches(std::size_t a, std::size_t b) const;

  /// True when node `i` occupies a control-step slot (and hence a resource):
  /// functional-unit operations always do; a StoreVar/WritePort does only
  /// when no in-block occupying op feeds it (then it is a pure data move,
  /// like the paper's "0 -> I" node in Fig. 2); constants, port/variable
  /// reads, width casts, constant shifts and nops never do — they chain.
  [[nodiscard]] bool occupiesSlot(std::size_t i) const;

 private:
  mutable std::vector<signed char> occupiesCache_;
  mutable std::vector<signed char> combFromFuCache_;

 public:
  /// True when node `i` is a free-flowing op whose value is produced
  /// combinationally from a functional-unit output in the same step (e.g.
  /// the ">> 1" chained behind the adder in the paper's Fig. 2 schedule).
  /// Consuming such a value on another functional unit requires a step
  /// boundary; storing it does not.
  [[nodiscard]] bool combinationalFromFu(std::size_t i) const;

  /// Minimum control-step separation implied by a dependence edge. With
  /// the unit latency model (`cycles(op) == 1` everywhere):
  ///   - data edges into sinks chain (the register/port write happens at
  ///     the end of the producer's step, 0);
  ///   - data edges out of free-flowing ops chain (0), unless the free op
  ///     carries a combinational FU output into another FU op (1);
  ///   - FU -> FU data edges cross a step boundary (1);
  ///   - store->load (RAW) and store->store (WAW) cross a boundary (1);
  ///   - load->store (WAR) may share a step (registers read old value, 0).
  /// With a multicycle model, a producer executing in `cycles(op)` steps
  /// delivers its result during its last step: FU -> FU becomes
  /// cycles(producer), FU -> sink cycles(producer) - 1, and free wiring
  /// forwards the root producer's remaining latency.
  [[nodiscard]] int edgeLatency(const DepEdge& e) const;

  /// Execution time of node `i` in control steps (1 for everything that
  /// does not occupy a functional unit for multiple steps).
  [[nodiscard]] int duration(std::size_t i) const;

  [[nodiscard]] const OpLatencyModel& latencies() const { return latencies_; }

 private:
  const Function* fn_;
  std::size_t n_ = 0;
  std::vector<OpId> opIds_;
  std::vector<DepEdge> edges_;
  OpLatencyModel latencies_;
  /// Adjacency in compressed rows, built from edges_ once it is complete.
  std::vector<std::size_t> succStart_, succAdj_, predStart_, predAdj_;

};

}  // namespace mphls
