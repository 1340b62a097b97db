#include "sta/sta.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "estim/estimate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mphls::sta {

namespace {

/// What a timing-graph node stands for: a launch point, a mux or
/// functional-unit output, or a capture point.
enum class Pin : std::uint8_t {
  LaunchReg,
  LaunchPort,
  LaunchConst,
  Fu,
  MuxFu,
  MuxReg,
  MuxPort,
  CapReg,
  CapPort,
  CapStage,
  CapFsm,
  Unknown,
};

/// A node's identity in the design's own ids: register, port or unit id
/// (`id`), the operand slot of a unit-input mux (`slot`), and for
/// constants the payload and root width (`imm`, `id`). Repeated references
/// to the same pin (one FU output feeding three captures) dedupe onto one
/// node; the human name is rendered only for nodes on a reported path.
struct NodeKey {
  Pin pin = Pin::Unknown;
  int id = 0;
  int slot = 0;
  std::int64_t imm = 0;

  friend bool operator==(const NodeKey& a, const NodeKey& b) {
    return a.pin == b.pin && a.id == b.id && a.slot == b.slot &&
           a.imm == b.imm;
  }
};

struct NodeKeyHash {
  std::size_t operator()(const NodeKey& k) const {
    std::uint64_t h = (std::uint64_t)k.imm * 0x9e3779b97f4a7c15ULL;
    h ^= ((std::uint64_t)(std::uint32_t)k.id << 8) ^
         ((std::uint64_t)(std::uint32_t)k.slot << 40) ^ (std::uint64_t)k.pin;
    return (std::size_t)(h ^ (h >> 29));
  }
};

/// Dense numbering of node keys for one design. Keys whose ids are in
/// range map arithmetically; constants and out-of-range ids (corrupt
/// input) are numbered on first sight. Every graph of one analysis shares
/// it, so a slot names the same pin in every state and in the structural
/// graph.
class SlotIndex {
 public:
  explicit SlotIndex(const RtlDesign& d) {
    const int regs = (int)d.ic.regInput.size();
    const int ports =
        (int)std::max(d.fn.ports().size(), d.ic.outPortInput.size());
    const int fus = (int)d.binding.fus.size();
    auto lay = [&](Pin p, int count) {
      base_[(std::size_t)p] = dense_;
      count_[(std::size_t)p] = count;
      dense_ += count;
    };
    lay(Pin::LaunchReg, regs);
    lay(Pin::LaunchPort, ports);
    lay(Pin::LaunchConst, 0);
    lay(Pin::Fu, fus);
    lay(Pin::MuxFu, 3 * fus);
    lay(Pin::MuxReg, regs);
    lay(Pin::MuxPort, ports);
    lay(Pin::CapReg, regs);
    lay(Pin::CapPort, ports);
    lay(Pin::CapStage, fus);
    lay(Pin::CapFsm, 1);
    lay(Pin::Unknown, 1);
  }

  int slot(const NodeKey& k) {
    const std::size_t p = (std::size_t)k.pin;
    const bool mux = k.pin == Pin::MuxFu;
    if (k.id >= 0 && k.id < (mux ? count_[p] / 3 : count_[p]))
      return base_[p] + (mux ? k.id * 3 + k.slot : k.id);
    return extra_.try_emplace(k, dense_ + (int)extra_.size()).first->second;
  }

 private:
  int base_[(std::size_t)Pin::Unknown + 1] = {};
  int count_[(std::size_t)Pin::Unknown + 1] = {};
  int dense_ = 0;
  std::unordered_map<NodeKey, int, NodeKeyHash> extra_;
};

/// A timing graph: nodes are datapath pins (launch points, mux outputs,
/// FU outputs, capture points), edges carry the library delay between
/// them. One graph is cleared and rebuilt per state, keeping its storage.
struct Graph {
  struct Node {
    NodeKey key;
    int slot = 0;
    double init = 0;  ///< arrival before any in-edge (launches, busy FUs)
    double arrival = 0;
    int pred = -1;       ///< best in-edge, for path backtracking
    double predIncr = 0;
    bool endpoint = false;
  };
  struct Edge {
    int from;
    int to;
    double delay;
  };

  explicit Graph(SlotIndex& slots) : slots_(slots) {}

  std::vector<Node> nodes;
  std::vector<Edge> edges;
  std::vector<int> endpoints;  ///< endpoint nodes, in marking order

  void clear() {
    nodes.clear();
    edges.clear();
    endpoints.clear();
    ++stamp_;
  }

  /// The node for `key` and whether this call created it.
  std::pair<int, bool> node(const NodeKey& key) {
    const int s = slots_.slot(key);
    if ((std::size_t)s >= slotNode_.size()) {
      slotNode_.resize((std::size_t)s + 1);
      slotStamp_.resize((std::size_t)s + 1, 0);
    }
    if (slotStamp_[(std::size_t)s] == stamp_)
      return {slotNode_[(std::size_t)s], false};
    const int id = (int)nodes.size();
    slotStamp_[(std::size_t)s] = stamp_;
    slotNode_[(std::size_t)s] = id;
    Node n;
    n.key = key;
    n.slot = s;
    nodes.push_back(n);
    return {id, true};
  }

  void edge(int from, int to, double delay) {
    edges.push_back({from, to, delay});
  }

  void raiseInit(int id, double v) {
    Node& n = nodes[(std::size_t)id];
    n.init = std::max(n.init, v);
  }

  void markEndpoint(int id) {
    Node& n = nodes[(std::size_t)id];
    if (!n.endpoint) endpoints.push_back(id);
    n.endpoint = true;
  }

  /// Kahn topological longest-path relaxation. Returns false when a
  /// combinational cycle keeps some nodes unprocessed (their arrivals
  /// stay at `init`).
  bool relax() {
    const std::size_t n = nodes.size();
    // Out-edges grouped per node in insertion order (CSR).
    first_.assign(n + 1, 0);
    indeg_.assign(n, 0);
    for (const Edge& e : edges) {
      first_[(std::size_t)e.from + 1] += 1;
      indeg_[(std::size_t)e.to] += 1;
    }
    for (std::size_t i = 0; i < n; ++i) first_[i + 1] += first_[i];
    out_.resize(edges.size());
    fill_.assign(first_.begin(), first_.end() - 1);
    for (std::size_t e = 0; e < edges.size(); ++e)
      out_[(std::size_t)fill_[(std::size_t)edges[e].from]++] = (int)e;

    ready_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i].arrival = nodes[i].init;
      if (indeg_[i] == 0) ready_.push_back((int)i);
    }
    std::size_t processed = 0;
    while (!ready_.empty()) {
      const int u = ready_.back();
      ready_.pop_back();
      processed += 1;
      for (int k = first_[(std::size_t)u]; k < first_[(std::size_t)u + 1];
           ++k) {
        const Edge& e = edges[(std::size_t)out_[(std::size_t)k]];
        Node& v = nodes[(std::size_t)e.to];
        const double cand = nodes[(std::size_t)u].arrival + e.delay;
        if (cand > v.arrival) {
          v.arrival = cand;
          v.pred = u;
          v.predIncr = e.delay;
        }
        if (--indeg_[(std::size_t)e.to] == 0) ready_.push_back(e.to);
      }
    }
    return processed == n;
  }

 private:
  SlotIndex& slots_;
  unsigned stamp_ = 1;
  std::vector<int> slotNode_;
  std::vector<unsigned> slotStamp_;
  std::vector<int> first_, fill_, out_, indeg_, ready_;
};

constexpr double kNever = std::numeric_limits<double>::quiet_NaN();

std::string fmt(const char* f, ...) {
  char buf[128];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string fuDisplay(const RtlDesign& d, int f) {
  std::string s = "fu" + std::to_string(f);
  if (f >= 0 && (std::size_t)f < d.binding.fus.size()) {
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    if (fu.comp.valid() && fu.comp.index() < d.lib.components().size())
      s += " (" + d.lib.component(fu.comp).name + " w" +
           std::to_string(fu.width) + ")";
  }
  return s;
}

std::string portDisplay(const RtlDesign& d, int p) {
  if (p >= 0 && (std::size_t)p < d.fn.ports().size())
    return "port " + d.fn.ports()[(std::size_t)p].name;
  return "port#" + std::to_string(p);
}

/// Human name of a node, as path reports print it.
std::string display(const RtlDesign& d, const NodeKey& k) {
  switch (k.pin) {
    case Pin::LaunchReg:
    case Pin::CapReg: return "r" + std::to_string(k.id);
    case Pin::LaunchPort:
    case Pin::CapPort: return portDisplay(d, k.id);
    case Pin::LaunchConst: return "#" + std::to_string((long long)k.imm);
    case Pin::Fu: return fuDisplay(d, k.id);
    case Pin::MuxFu: return fmt("mux fu%d.in%d", k.id, k.slot);
    case Pin::MuxReg: return "mux r" + std::to_string(k.id);
    case Pin::MuxPort: return "mux " + portDisplay(d, k.id);
    case Pin::CapStage: return "fu" + std::to_string(k.id) + " stage";
    case Pin::CapFsm: return "fsm";
    case Pin::Unknown: break;
  }
  return "?";
}

/// Location tag for a state: "<block>.s<step>".
std::string stateDesc(const RtlDesign& d, const CtrlState& st) {
  std::string b = st.block.valid() && st.block.index() < d.fn.numBlocks()
                      ? d.fn.block(st.block).name
                      : "b" + std::to_string(st.block.valid()
                                                 ? (int)st.block.get()
                                                 : -1);
  return b + ".s" + std::to_string(st.step);
}

/// Per-stage delay of a multicycle unit completing in a state whose own
/// actions do not use it: its issue action lives in an earlier step of
/// the same block. Indexed once per analysis by (block, completion step,
/// unit), keeping the first issue in controller order.
class CompletionDelays {
 public:
  explicit CompletionDelays(const Controller& ctrl) {
    for (const CtrlState& is : ctrl.states)
      for (const FuAction& fa : is.fuActions)
        if (fa.cycles > 1)
          cycles_.emplace(std::make_tuple(is.block, is.step + fa.cycles - 1,
                                          fa.fu),
                          fa.cycles);
  }

  /// Stage delay of unit `f` completing in `st`; the full component delay
  /// when no issue matches (corrupt input — stay conservative).
  double of(const RtlDesign& d, const CtrlState& st, int f) const {
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    const double full = d.lib.component(fu.comp).delay(fu.width);
    const auto it = cycles_.find(std::make_tuple(st.block, st.step, f));
    return it == cycles_.end() ? full : full / it->second;
  }

 private:
  std::map<std::tuple<BlockId, int, int>, int> cycles_;
};

/// Key of the launch (or FU-output) node of a datapath source. Free
/// wiring transforms cost nothing and are not separate nodes.
NodeKey sourceKey(const Source& s) {
  switch (s.kind) {
    case Source::Kind::Reg: return {Pin::LaunchReg, s.id, 0, 0};
    case Source::Kind::Port: return {Pin::LaunchPort, s.id, 0, 0};
    case Source::Kind::Const: return {Pin::LaunchConst, s.rootWidth, 0, s.imm};
    case Source::Kind::Fu: return {Pin::Fu, s.id, 0, 0};
  }
  return {Pin::Unknown, 0, 0, 0};
}

/// Builds the graph fragment for one state under state-aware rules.
struct StateGraphBuilder {
  const RtlDesign& d;
  const CtrlState& st;
  const CompletionDelays& completions;
  Graph& g;

  /// Node for functional unit `f`'s output in this state. Active units
  /// get their selected operand legs as in-edges (compute delay on the
  /// mux->fu edge, spread over the span for multicycle issues); units
  /// merely delivering a previously issued multicycle result arrive at
  /// their final internal stage's delay.
  int fuNode(int f) {
    const auto [id, fresh] = g.node({Pin::Fu, f, 0, 0});
    if (!fresh) return id;
    if (f < 0 || (std::size_t)f >= d.binding.fus.size()) return id;
    const FuInstance& fu = d.binding.fus[(std::size_t)f];
    const FuAction* act = nullptr;
    for (const FuAction& fa : st.fuActions)
      if (fa.fu == f) act = &fa;
    if (act == nullptr) {
      g.raiseInit(id, completions.of(d, st, f));
      return id;
    }
    const double compute = d.lib.component(fu.comp).delay(fu.width) /
                           std::max(act->cycles, 1);
    g.raiseInit(id, compute);  // covers an (ill-formed) input-less unit
    for (int p = 0; p < 3; ++p) {
      if (act->muxSel[p] < 0) continue;
      const MuxSpec& m = d.ic.fuInput[(std::size_t)f][(std::size_t)p];
      if (act->muxSel[p] >= m.legs()) continue;  // corrupt; checked elsewhere
      const int mux = g.node({Pin::MuxFu, f, p, 0}).first;
      g.edge(sourceNode(m.sources[(std::size_t)act->muxSel[p]]), mux,
             d.lib.muxDelay(m.legs()));
      g.edge(mux, id, compute);
    }
    return id;
  }

  int sourceNode(const Source& s) {
    if (s.kind == Source::Kind::Fu) return fuNode(s.id);
    return g.node(sourceKey(s)).first;
  }

  void build() {
    const double setup = d.lib.registerSetupDelay();
    // Instantiate every active unit even if nothing captures it.
    for (const FuAction& fa : st.fuActions) {
      fuNode(fa.fu);
      if (fa.cycles > 1) {
        // A multicycle issue latches its first internal stage this cycle.
        const int cap = g.node({Pin::CapStage, fa.fu, 0, 0}).first;
        g.edge(fuNode(fa.fu), cap, setup);
        g.markEndpoint(cap);
      }
    }
    for (const RegAction& ra : st.regActions) {
      if (ra.reg < 0 || (std::size_t)ra.reg >= d.ic.regInput.size()) continue;
      const MuxSpec& m = d.ic.regInput[(std::size_t)ra.reg];
      if (ra.muxSel < 0 || ra.muxSel >= m.legs()) continue;
      const int mux = g.node({Pin::MuxReg, ra.reg, 0, 0}).first;
      g.edge(sourceNode(m.sources[(std::size_t)ra.muxSel]), mux,
             d.lib.muxDelay(m.legs()));
      const int cap = g.node({Pin::CapReg, ra.reg, 0, 0}).first;
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    for (const PortAction& pa : st.portActions) {
      if (pa.port < 0 || (std::size_t)pa.port >= d.ic.outPortInput.size())
        continue;
      const MuxSpec& m = d.ic.outPortInput[(std::size_t)pa.port];
      if (pa.muxSel < 0 || pa.muxSel >= m.legs()) continue;
      const int mux = g.node({Pin::MuxPort, pa.port, 0, 0}).first;
      g.edge(sourceNode(m.sources[(std::size_t)pa.muxSel]), mux,
             d.lib.muxDelay(m.legs()));
      const int cap = g.node({Pin::CapPort, pa.port, 0, 0}).first;
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    // FSM next-state logic: the state register loads every cycle; a
    // conditional transition extends the path through the condition.
    const int fsm = g.node({Pin::CapFsm, 0, 0, 0}).first;
    g.raiseInit(fsm, setup);
    g.markEndpoint(fsm);
    if (st.conditional) g.edge(sourceNode(st.cond), fsm, setup);
  }
};

/// Builds the state-oblivious (structural) graph: every mux leg is
/// assumed combinable with every other, every FU is a flat full-delay
/// cone, every capture point and every condition in the whole controller
/// participates. This is what a mode-blind netlist STA would see.
struct StructuralGraphBuilder {
  const RtlDesign& d;
  Graph& g;

  void feedMux(const MuxSpec& m, int mux) {
    for (const Source& s : m.sources)
      g.edge(g.node(sourceKey(s)).first, mux, d.lib.muxDelay(m.legs()));
  }

  void build() {
    const double setup = d.lib.registerSetupDelay();
    for (int f = 0; f < (int)d.binding.fus.size(); ++f) {
      const FuInstance& fu = d.binding.fus[(std::size_t)f];
      const double full = d.lib.component(fu.comp).delay(fu.width);
      const int id = g.node({Pin::Fu, f, 0, 0}).first;
      g.raiseInit(id, full);
      for (int p = 0; p < 3; ++p) {
        const MuxSpec& m = d.ic.fuInput[(std::size_t)f][(std::size_t)p];
        if (m.legs() == 0) continue;
        const int mux = g.node({Pin::MuxFu, f, p, 0}).first;
        feedMux(m, mux);
        g.edge(mux, id, full);
      }
    }
    for (int r = 0; r < (int)d.ic.regInput.size(); ++r) {
      const MuxSpec& m = d.ic.regInput[(std::size_t)r];
      if (m.legs() == 0) continue;
      const int mux = g.node({Pin::MuxReg, r, 0, 0}).first;
      feedMux(m, mux);
      const int cap = g.node({Pin::CapReg, r, 0, 0}).first;
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    for (int p = 0; p < (int)d.ic.outPortInput.size(); ++p) {
      const MuxSpec& m = d.ic.outPortInput[(std::size_t)p];
      if (m.legs() == 0) continue;
      const int mux = g.node({Pin::MuxPort, p, 0, 0}).first;
      feedMux(m, mux);
      const int cap = g.node({Pin::CapPort, p, 0, 0}).first;
      g.edge(mux, cap, setup);
      g.markEndpoint(cap);
    }
    const int fsm = g.node({Pin::CapFsm, 0, 0, 0}).first;
    g.raiseInit(fsm, setup);
    g.markEndpoint(fsm);
    for (const CtrlState& st : d.ctrl.states)
      if (st.conditional) g.edge(g.node(sourceKey(st.cond)).first, fsm, setup);
  }
};

std::vector<char> reachableStates(const Controller& ctrl) {
  std::vector<char> seen(ctrl.states.size(), 0);
  std::vector<std::size_t> work;
  auto visit = [&](StateId s) {
    if (s.valid() && s.index() < seen.size() && !seen[s.index()]) {
      seen[s.index()] = 1;
      work.push_back(s.index());
    }
  };
  visit(ctrl.initial);
  while (!work.empty()) {
    const CtrlState& st = ctrl.states[work.back()];
    work.pop_back();
    visit(st.next);
    visit(st.nextTaken);
    visit(st.nextNot);
  }
  return seen;
}

TimingPath extractPath(const RtlDesign& d, const Graph& g, int endpoint,
                       int state, const std::string& desc, double clock) {
  TimingPath p;
  p.state = state;
  p.stateDesc = desc;
  std::vector<int> chain;
  for (int n = endpoint; n != -1; n = g.nodes[(std::size_t)n].pred)
    chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Graph::Node& n = g.nodes[(std::size_t)chain[i]];
    PathPoint pt;
    pt.node = display(d, n.key);
    // First point: a launch arrives at its init (0 for registers/ports,
    // the final stage delay for a busy multicycle unit).
    pt.incr = i == 0 ? n.init : n.predIncr;
    pt.arrival = n.arrival;
    p.points.push_back(std::move(pt));
  }
  p.startpoint = p.points.front().node;
  p.endpoint = p.points.back().node;
  p.arrival = g.nodes[(std::size_t)endpoint].arrival;
  p.required = clock;
  p.slack = clock - p.arrival;
  return p;
}

/// The K worst paths in report order: slack, then state id, then endpoint
/// name, then discovery order — states in controller order, and within a
/// state the order of the endpoints' former string keys (which can only
/// matter for two captures with one name, i.e. duplicate port names, and
/// then compares the port ids as decimal strings). A path is built only
/// when it sorts before the current K-th; K < 0 keeps every path.
class PathSelector {
 public:
  explicit PathSelector(int maxPaths) : k_(maxPaths) {}

  /// Whether an endpoint (slack, state, discovery rank `ord`, port/reg id
  /// `keyId`) enters the K worst so far; `name()` renders its endpoint
  /// name, needed only on a slack and state tie with the K-th.
  template <class Name>
  bool admits(double slack, int state, std::size_t ord, int keyId,
              Name&& name) const {
    if (k_ < 0 || best_.size() < (std::size_t)k_) return true;
    if (k_ == 0) return false;
    const Entry& w = best_.back();
    if (slack != w.path.slack) return slack < w.path.slack;
    if (state != w.path.state) return state < w.path.state;
    const std::string n = name();
    if (n != w.path.endpoint) return n < w.path.endpoint;
    if (ord != w.ord) return ord < w.ord;
    return decimalLess(keyId, w.keyId);
  }

  void insert(TimingPath path, std::size_t ord, int keyId) {
    Entry e{std::move(path), ord, keyId};
    if (k_ < 0) {
      best_.push_back(std::move(e));
      return;
    }
    best_.insert(std::upper_bound(best_.begin(), best_.end(), e, before),
                 std::move(e));
    if (best_.size() > (std::size_t)k_) best_.pop_back();
  }

  std::vector<TimingPath> take() {
    if (k_ < 0) std::sort(best_.begin(), best_.end(), before);
    std::vector<TimingPath> out;
    out.reserve(best_.size());
    for (Entry& e : best_) out.push_back(std::move(e.path));
    return out;
  }

 private:
  struct Entry {
    TimingPath path;
    std::size_t ord;
    int keyId;
  };

  static bool decimalLess(int a, int b) {
    return std::to_string(a) < std::to_string(b);
  }

  static bool before(const Entry& a, const Entry& b) {
    if (a.path.slack != b.path.slack) return a.path.slack < b.path.slack;
    if (a.path.state != b.path.state) return a.path.state < b.path.state;
    if (a.path.endpoint != b.path.endpoint)
      return a.path.endpoint < b.path.endpoint;
    if (a.ord != b.ord) return a.ord < b.ord;
    return decimalLess(a.keyId, b.keyId);
  }

  int k_;
  std::vector<Entry> best_;
};

}  // namespace

std::string TimingPath::describe() const {
  std::string s = fmt("slack %+.3f (state %d, %s): ", slack, state,
                      stateDesc.c_str());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i) s += " -> ";
    s += points[i].node;
  }
  s += fmt("  [arrival %.3f, required %.3f]", arrival, required);
  return s;
}

StaResult runSta(const RtlDesign& design, const StaOptions& options) {
  double seconds = 0;
  StaResult r;
  {
    obs::TraceSpan span("sta.run", "", &seconds);

    r.estimatedCycleTime = estimateTiming(design).cycleTime;
    r.clockWasEstimated = options.clockNs <= 0;
    r.clockNs = r.clockWasEstimated ? r.estimatedCycleTime : options.clockNs;
    r.totalStates = design.ctrl.states.size();

    const std::vector<char> reach = reachableStates(design.ctrl);
    for (char c : reach) r.reachableStates += (c != 0);

    // Every graph numbers its nodes through one slot index, so a slot
    // names the same pin in every state and in the structural graph.
    SlotIndex slots(design);
    Graph g(slots);
    const CompletionDelays completions(design.ctrl);
    // Worst state-aware arrival per endpoint slot (NaN: never captured),
    // for false-path counting against the structural graph.
    std::vector<double> awareWorst;
    PathSelector selector(options.maxPaths);

    {
      obs::TraceSpan gs("sta.graph");
      for (std::size_t si = 0; si < design.ctrl.states.size(); ++si) {
        const CtrlState& st = design.ctrl.states[si];
        if (!reach[st.id.index()]) continue;
        g.clear();
        StateGraphBuilder{design, st, completions, g}.build();
        if (!g.relax()) r.combLoop = true;
        const int state = (int)st.id.get();
        std::string desc;  // rendered with the state's first kept path
        double stateWorst = 0;
        for (const int id : g.endpoints) {
          const Graph::Node& n = g.nodes[(std::size_t)id];
          r.endpointCount += 1;
          stateWorst = std::max(stateWorst, n.arrival);
          if ((std::size_t)n.slot >= awareWorst.size())
            awareWorst.resize((std::size_t)n.slot + 1, kNever);
          double& aw = awareWorst[(std::size_t)n.slot];
          aw = std::isnan(aw) ? n.arrival : std::max(aw, n.arrival);
          if (n.arrival > r.cycleTime) {
            r.cycleTime = n.arrival;
            r.criticalState = state;
          }
          const double slack = r.clockNs - n.arrival;
          if (!selector.admits(slack, state, si, n.key.id,
                               [&] { return display(design, n.key); }))
            continue;
          if (desc.empty()) desc = stateDesc(design, st);
          selector.insert(extractPath(design, g, id, state, desc, r.clockNs),
                          si, n.key.id);
        }
        r.stateArrivals.emplace_back((int)st.id.index(), stateWorst);
      }
    }
    r.worstSlack = r.clockNs - r.cycleTime;

    {
      obs::TraceSpan ss("sta.structural");
      g.clear();
      StructuralGraphBuilder{design, g}.build();
      if (!g.relax()) r.combLoop = true;
      for (const int id : g.endpoints) {
        const Graph::Node& n = g.nodes[(std::size_t)id];
        r.structuralCycleTime = std::max(r.structuralCycleTime, n.arrival);
        double aware = -1.0;  // no reachable state captures it
        if ((std::size_t)n.slot < awareWorst.size() &&
            !std::isnan(awareWorst[(std::size_t)n.slot]))
          aware = awareWorst[(std::size_t)n.slot];
        if (n.arrival > aware + 1e-9) r.falsePathEndpoints += 1;
      }
    }

    r.paths = selector.take();
  }

  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("sta.runs").add(1);
  metrics.histogram("sta.seconds").observe(seconds);
  metrics.histogram("sta.endpoints").observe((double)r.endpointCount);
  metrics.gauge("sta.cycle_time").set(r.cycleTime);
  metrics.gauge("sta.worst_slack").set(r.worstSlack);
  return r;
}

JsonValue staReportJson(const std::string& key, const std::string& name,
                        const StaResult& r) {
  JsonValue j = JsonValue::object();
  j[key] = name;
  j["clock_ns"] = r.clockNs;
  j["clock_estimated"] = r.clockWasEstimated;
  j["estimated_cycle_time"] = r.estimatedCycleTime;
  j["cycle_time"] = r.cycleTime;
  j["worst_slack"] = r.worstSlack;
  j["critical_state"] = r.criticalState;
  j["states"] = r.totalStates;
  j["reachable_states"] = r.reachableStates;
  j["endpoints"] = r.endpointCount;
  j["structural_cycle_time"] = r.structuralCycleTime;
  j["false_path_endpoints"] = r.falsePathEndpoints;
  j["comb_loop"] = r.combLoop;
  JsonValue paths = JsonValue::array();
  for (const TimingPath& p : r.paths) {
    JsonValue pj = JsonValue::object();
    pj["state"] = p.state;
    pj["state_desc"] = p.stateDesc;
    pj["startpoint"] = p.startpoint;
    pj["endpoint"] = p.endpoint;
    pj["arrival"] = p.arrival;
    pj["required"] = p.required;
    pj["slack"] = p.slack;
    JsonValue pts = JsonValue::array();
    for (const PathPoint& pt : p.points) {
      JsonValue tj = JsonValue::object();
      tj["node"] = pt.node;
      tj["incr"] = pt.incr;
      tj["arrival"] = pt.arrival;
      pts.push(std::move(tj));
    }
    pj["points"] = std::move(pts);
    paths.push(std::move(pj));
  }
  j["paths"] = std::move(paths);
  return j;
}

}  // namespace mphls::sta
