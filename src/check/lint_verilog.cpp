#include "check/lint_verilog.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace mphls {

namespace {

// --- tokenizer ----------------------------------------------------------

struct Tok {
  enum class Kind { Id, Num, Punct, End };
  Kind kind = Kind::End;
  std::string_view text;  ///< view into the linted source
  int line = 1;
  int width = 0;     ///< sized-literal width (Num with a ' base), else 0
  int id = -1;       ///< interned identifier (Id), else -1
};

/// The token stream plus the identifier table: every distinct identifier
/// is interned once, so the net table and the comb graph work on ids.
struct Lexed {
  std::vector<Tok> toks;
  std::vector<std::string_view> names;  ///< by interned id
};

int toInt(std::string_view text) {
  return std::atoi(std::string(text).c_str());
}

// Character classes of the "C" locale (the program never changes it),
// without the locale lookup of <cctype>.
constexpr bool isDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool isAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool isAlnum(char c) { return isAlpha(c) || isDigit(c); }
constexpr bool isSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

Lexed tokenize(const std::string& src, CheckReport& report) {
  Lexed lx;
  std::vector<Tok>& toks = lx.toks;
  std::unordered_map<std::string_view, int> ids;
  toks.reserve(src.size() / 4 + 1);
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  const std::string_view all(src);
  auto isIdStart = [](char c) { return isAlpha(c) || c == '_' || c == '$'; };
  auto isIdChar = [](char c) { return isAlnum(c) || c == '_' || c == '$'; };
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (isSpace(c)) {
      ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(i + 2, n);
    } else if (isIdStart(c)) {
      std::size_t j = i;
      while (j < n && isIdChar(src[j])) ++j;
      const std::string_view text = all.substr(i, j - i);
      const auto [it, fresh] = ids.try_emplace(text, (int)lx.names.size());
      if (fresh) lx.names.push_back(text);
      toks.push_back({Tok::Kind::Id, text, line, 0, it->second});
      i = j;
    } else if (isDigit(c)) {
      std::size_t j = i;
      while (j < n && isDigit(src[j])) ++j;
      if (j < n && src[j] == '\'') {
        // Sized literal: width ' base digits.
        int width = toInt(all.substr(i, j - i));
        ++j;                       // base marker
        if (j < n) ++j;            // base letter (b/d/h/o)
        std::size_t k = j;
        while (k < n && (isAlnum(src[k]) ||
                         src[k] == '_' || src[k] == 'x' || src[k] == 'z'))
          ++k;
        toks.push_back({Tok::Kind::Num, all.substr(i, k - i), line, width});
        i = k;
      } else {
        toks.push_back({Tok::Kind::Num, all.substr(i, j - i), line, 0});
        i = j;
      }
    } else {
      // Multi-character operators we must not split: <= >= == != << >> >>>
      // <<< && || === !==
      static const char* kOps[] = {">>>", "<<<", "===", "!==", "<=", ">=",
                                   "==",  "!=",  "<<",  ">>",  "&&", "||"};
      std::size_t len = 1;
      if (std::string_view("<>=!&|").find(c) != std::string_view::npos) {
        for (const char* op : kOps) {  // only these characters start one
          const std::size_t l = std::char_traits<char>::length(op);
          if (src.compare(i, l, op) == 0) {
            len = l;
            break;
          }
        }
      }
      toks.push_back({Tok::Kind::Punct, all.substr(i, len), line, 0});
      i += len;
    }
  }
  if (toks.empty())
    report.error("lint.parse", "netlist", "empty Verilog source");
  toks.push_back({Tok::Kind::End, {}, line, 0});
  return lx;
}

// --- net table ----------------------------------------------------------

struct DriverSite {
  enum class Kind { InputPort, Param, Assign, CombAlways, SeqAlways };
  Kind kind = Kind::Assign;
  int line = 0;
};

std::string_view driverName(DriverSite::Kind k) {
  switch (k) {
    case DriverSite::Kind::InputPort: return "input port";
    case DriverSite::Kind::Param: return "parameter";
    case DriverSite::Kind::Assign: return "assign";
    case DriverSite::Kind::CombAlways: return "combinational always";
    case DriverSite::Kind::SeqAlways: return "sequential always";
  }
  return "?";
}

struct Net {
  bool present = false;  ///< has an entry in the net table
  int width = 1;
  int declLine = 0;
  bool declared = false;
  bool isInput = false;
  bool isOutput = false;
  bool isParam = false;
  bool read = false;
  std::vector<DriverSite> drivers;
};

struct CombEdge {
  int from;
  int to;
  int ctx;  ///< case-arm context id (0 = unconditional)
};

/// Token range [lo, hi) of a collected expression.
struct Span {
  std::size_t lo = 0, hi = 0;
};

/// Iterative Tarjan SCC over nodes 0..n-1 with out-edges adj[first[v] ..
/// first[v+1]), rooted at `roots` in order (already-visited roots are
/// skipped). Calls onScc(members) for each component in completion order
/// (reverse topological order), members in stack-pop order.
template <class OnScc>
void tarjan(std::size_t n, const std::vector<int>& first,
            const std::vector<int>& adj, const std::vector<int>& roots,
            OnScc&& onScc) {
  std::vector<int> index(n, -1), low(n, 0), stack, scc;
  std::vector<char> onStack(n, 0);
  struct Frame {
    int node;
    int child;
  };
  std::vector<Frame> call;
  int counter = 0;
  auto open = [&](int v) {
    index[(std::size_t)v] = low[(std::size_t)v] = counter++;
    stack.push_back(v);
    onStack[(std::size_t)v] = 1;
    call.push_back({v, first[(std::size_t)v]});
  };
  for (const int start : roots) {
    if (index[(std::size_t)start] >= 0) continue;
    open(start);
    while (!call.empty()) {
      Frame& f = call.back();
      const std::size_t u = (std::size_t)f.node;
      if (f.child < first[u + 1]) {
        const int next = adj[(std::size_t)f.child++];
        if (index[(std::size_t)next] < 0) {
          open(next);
        } else if (onStack[(std::size_t)next]) {
          low[u] = std::min(low[u], index[(std::size_t)next]);
        }
        continue;
      }
      if (low[u] == index[u]) {
        scc.clear();
        while (true) {
          const int v = stack.back();
          stack.pop_back();
          onStack[(std::size_t)v] = 0;
          scc.push_back(v);
          if (v == f.node) break;
        }
        onScc(scc);
      }
      const int done = f.node;
      call.pop_back();
      if (!call.empty()) {
        const std::size_t p = (std::size_t)call.back().node;
        low[p] = std::min(low[p], low[(std::size_t)done]);
      }
    }
  }
}

// --- parser -------------------------------------------------------------

class Linter {
 public:
  Linter(Lexed lx, CheckReport& report)
      : toks_(std::move(lx.toks)),
        names_(std::move(lx.names)),
        nets_(names_.size()),
        seen_(names_.size(), 0),
        report_(report) {
    ctxNames_.emplace_back();
    ctxIds_.emplace("", 0);
  }

  void run() {
    parseModule();
    finish();
  }

 private:
  std::vector<Tok> toks_;
  std::vector<std::string_view> names_;  ///< identifier text by id
  std::vector<Net> nets_;                ///< by identifier id
  std::vector<CombEdge> edges_;
  std::vector<std::string> ctxNames_;    ///< case-arm context by id
  std::map<std::string, int> ctxIds_;
  /// Per-identifier mark (== seenMark_) deduping the reads of one
  /// assignment and the targets of one always block.
  std::vector<unsigned> seen_;
  unsigned seenMark_ = 0;
  CheckReport& report_;
  std::size_t pos_ = 0;

  const Tok& peek(std::size_t ahead = 0) const {
    return toks_[std::min(pos_ + ahead, toks_.size() - 1)];
  }
  const Tok& get() {
    const Tok& t = toks_[std::min(pos_, toks_.size() - 1)];
    if (pos_ < toks_.size() - 1) ++pos_;
    return t;
  }
  bool at(std::string_view text) const { return peek().text == text; }
  bool accept(std::string_view text) {
    if (!at(text)) return false;
    get();
    return true;
  }
  void expect(std::string_view text) {
    if (!accept(text)) {
      std::ostringstream oss;
      oss << "expected '" << text << "', found '" << peek().text << "'";
      report_.error("lint.parse", lineWhere(peek().line), oss.str());
      get();  // make progress
    }
  }
  static std::string lineWhere(int line) {
    return "line " + std::to_string(line);
  }
  bool atEnd() const { return peek().kind == Tok::Kind::End; }

  void skipPast(std::string_view text) {
    while (!atEnd() && !accept(text)) get();
  }

  std::string netWhere(int id) const {
    return "net " + std::string(names_[(std::size_t)id]);
  }

  /// The table entry of identifier `id`, created on first use.
  Net& net(int id) {
    Net& n = nets_[(std::size_t)id];
    n.present = true;
    return n;
  }
  /// The table entry of identifier `id`, or null when it has none.
  const Net* findNet(int id) const {
    const Net& n = nets_[(std::size_t)id];
    return n.present ? &n : nullptr;
  }

  Net& declare(int id, int width, int line) {
    Net& n = net(id);
    if (n.declared) {
      report_.error("lint.multi-driven", netWhere(id),
                    "declared again at " + lineWhere(line));
    }
    n.declared = true;
    n.width = width;
    n.declLine = line;
    return n;
  }

  void markRead(const Tok& t) {
    if (t.text[0] == '$') return;  // system function
    Net& n = net(t.id);
    n.read = true;
    if (!n.declLine) n.declLine = t.line;
  }

  void addDriver(int id, DriverSite::Kind kind, int line) {
    Net& n = net(id);
    if (!n.declLine) n.declLine = line;
    n.drivers.push_back({kind, line});
  }

  /// Parse an optional `[msb:lsb]` range; returns the width (1 if absent).
  int parseRange() {
    if (!accept("[")) return 1;
    int msb = toInt(peek().text);
    skipToClose("[", "]");
    return msb + 1;  // emitted ranges are always [msb:0]
  }

  void skipToClose(std::string_view open, std::string_view close) {
    int depth = 1;
    while (!atEnd() && depth > 0) {
      const Tok& t = get();
      if (t.text == open) ++depth;
      if (t.text == close) --depth;
    }
  }

  // --- expressions ------------------------------------------------------

  /// Collect an expression's tokens until a top-level stop punctuation
  /// (any single character of `stops`), marking every identifier as read.
  /// Does not consume the stop token.
  Span collectExpr(std::string_view stops) {
    Span out{pos_, pos_};
    int depth = 0;
    while (!atEnd()) {
      const Tok& t = peek();
      if (depth == 0 && t.kind == Tok::Kind::Punct && t.text.size() == 1 &&
          stops.find(t.text[0]) != std::string_view::npos)
        break;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") {
        if (depth == 0) break;
        --depth;
      }
      if (t.kind == Tok::Kind::Id) markRead(t);
      get();
      out.hi = pos_;
    }
    return out;
  }

  /// Width of a "provably sized" expression: a lone identifier, a sized
  /// literal, a concatenation/replication of such, or parens around one.
  /// Returns 0 when the width cannot be proven statically.
  int provenWidth(std::size_t lo, std::size_t hi) const {
    const std::vector<Tok>& e = toks_;
    // Strip enclosing parens.
    while (hi - lo >= 2 && e[lo].text == "(" && e[hi - 1].text == ")") {
      int depth = 0;
      bool wraps = true;
      for (std::size_t i = lo; i + 1 < hi; ++i) {
        if (e[i].text == "(" || e[i].text == "{") ++depth;
        if (e[i].text == ")" || e[i].text == "}") --depth;
        if (depth == 0 && i + 1 < hi) {
          wraps = i + 1 == hi - 1;
          break;
        }
      }
      if (!wraps) break;
      ++lo;
      --hi;
    }
    if (hi <= lo) return 0;
    if (hi - lo == 1) {
      const Tok& t = e[lo];
      if (t.kind == Tok::Kind::Num) return t.width;  // 0 when unsized
      if (t.kind == Tok::Kind::Id) {
        const Net* n = findNet(t.id);
        if (n != nullptr && n->declared && !n->isParam) return n->width;
      }
      return 0;
    }
    // Concatenation {a, b, ...} or replication {n{a}}.
    if (e[lo].text == "{" && e[hi - 1].text == "}") {
      // Replication: { Num { expr } }
      if (hi - lo >= 5 && e[lo + 1].kind == Tok::Kind::Num &&
          e[lo + 2].text == "{" && e[hi - 2].text == "}") {
        int reps = toInt(e[lo + 1].text);
        int inner = provenWidth(lo + 3, hi - 2);
        return inner > 0 ? reps * inner : 0;
      }
      int total = 0;
      std::size_t start = lo + 1;
      int depth = 0;
      for (std::size_t i = lo + 1; i < hi - 1; ++i) {
        if (e[i].text == "(" || e[i].text == "{") ++depth;
        if (e[i].text == ")" || e[i].text == "}") --depth;
        if (depth == 0 && e[i].text == ",") {
          int w = provenWidth(start, i);
          if (w <= 0) return 0;
          total += w;
          start = i + 1;
        }
      }
      int w = provenWidth(start, hi - 1);
      if (w <= 0) return 0;
      return total + w;
    }
    return 0;
  }

  // --- module structure -------------------------------------------------

  void parseModule() {
    skipPast("module");
    if (peek().kind == Tok::Kind::Id) get();  // module name
    if (accept("(")) parsePortList();
    expect(";");
    while (!atEnd() && !at("endmodule")) parseItem();
  }

  void parsePortList() {
    while (!atEnd() && !accept(")")) {
      const std::size_t start = pos_;
      bool isInput = false, isOutput = false;
      if (accept("input")) isInput = true;
      else if (accept("output")) isOutput = true;
      accept("wire");
      accept("reg");
      accept("signed");
      int width = parseRange();
      if (peek().kind == Tok::Kind::Id) {
        const Tok& t = get();
        Net& n = declare(t.id, width, t.line);
        n.isInput = isInput;
        n.isOutput = isOutput;
        if (isInput) addDriver(t.id, DriverSite::Kind::InputPort, t.line);
      }
      accept(",");
      if (pos_ == start) {  // e.g. a ';' where the list lacks its ')'
        report_.error("lint.parse", lineWhere(peek().line),
                      "unexpected '" + std::string(peek().text) +
                          "' in the port list");
        get();
      }
    }
  }

  void parseItem() {
    if (at("reg") || at("wire")) {
      bool isWire = at("wire");
      get();
      accept("signed");
      int width = parseRange();
      while (peek().kind == Tok::Kind::Id) {
        const Tok& t = get();
        declare(t.id, width, t.line);
        if (isWire && accept("=")) {
          // wire-with-initializer doubles as a continuous assignment
          const Span rhs = collectExpr(";,");
          recordAssign(t.id, t.line, rhs, DriverSite::Kind::Assign, 0);
        }
        if (!accept(",")) break;
      }
      expect(";");
    } else if (at("localparam") || at("parameter")) {
      get();
      int width = parseRange();
      while (peek().kind == Tok::Kind::Id) {
        const Tok& t = get();
        Net& n = declare(t.id, width, t.line);
        n.isParam = true;
        addDriver(t.id, DriverSite::Kind::Param, t.line);
        if (accept("=")) (void)collectExpr(";,");
        if (!accept(",")) break;
      }
      expect(";");
    } else if (accept("assign")) {
      if (peek().kind != Tok::Kind::Id) {
        report_.error("lint.parse", lineWhere(peek().line),
                      "assign without a target net");
        skipPast(";");
        return;
      }
      const Tok& t = get();
      int lhsWidth = lhsSelectWidth(t.id);
      expect("=");
      const Span rhs = collectExpr(";");
      expect(";");
      recordAssign(t.id, t.line, rhs, DriverSite::Kind::Assign, 0, lhsWidth);
    } else if (accept("always")) {
      parseAlways();
    } else {
      // Unknown construct (initial, task, ...): skip one statement.
      skipPast(";");
    }
  }

  /// Width of the target taking a bit/part select into account; 0 when the
  /// net is unknown (reported separately as lint.undeclared).
  int lhsSelectWidth(int id) {
    int w = 0;
    const Net* n = findNet(id);
    if (n != nullptr && n->declared) w = n->width;
    if (at("[")) {
      get();
      const Span sel = collectExpr(";");
      // Part select [m:l] has width m-l+1; bit select [i] has width 1.
      const Tok* s = toks_.data() + sel.lo;
      const int size = (int)(sel.hi - sel.lo);
      int colon = -1;
      for (int i = 0; i < size; ++i)
        if (s[i].text == ":" && colon < 0) colon = i;
      if (colon >= 0 && colon > 0 && colon + 1 < size &&
          s[0].kind == Tok::Kind::Num && s[colon + 1].kind == Tok::Kind::Num) {
        w = toInt(s[0].text) - toInt(s[colon + 1].text) + 1;
      } else {
        w = 1;
      }
      expect("]");
    }
    return w;
  }

  void recordAssign(int lhs, int line, Span rhs, DriverSite::Kind kind,
                    int ctx, int lhsWidthOverride = -1) {
    addDriver(lhs, kind, line);
    int lhsWidth = lhsWidthOverride;
    if (lhsWidth < 0) {
      const Net* n = findNet(lhs);
      lhsWidth = (n != nullptr && n->declared) ? n->width : 0;
    }
    int rhsWidth = provenWidth(rhs.lo, rhs.hi);
    if (lhsWidth > 0 && rhsWidth > 0 && lhsWidth != rhsWidth) {
      std::ostringstream oss;
      oss << lhsWidth << "-bit net " << names_[(std::size_t)lhs]
          << " assigned a " << rhsWidth << "-bit expression";
      report_.warning("lint.width-mismatch", lineWhere(line), oss.str());
    }
    if (kind == DriverSite::Kind::Assign ||
        kind == DriverSite::Kind::CombAlways) {
      // One edge per distinct identifier read (parameters are constants).
      ++seenMark_;
      for (std::size_t i = rhs.lo; i < rhs.hi; ++i) {
        const Tok& t = toks_[i];
        if (t.kind != Tok::Kind::Id || t.text[0] == '$') continue;
        if (seen_[(std::size_t)t.id] == seenMark_) continue;
        seen_[(std::size_t)t.id] = seenMark_;
        const Net* n = findNet(t.id);
        if (n != nullptr && n->isParam) continue;
        edges_.push_back({t.id, lhs, ctx});
      }
    }
  }

  // --- always blocks ----------------------------------------------------

  void parseAlways() {
    bool sequential = false;
    if (accept("@")) {
      if (accept("(")) {
        int depth = 1;
        while (!atEnd() && depth > 0) {
          const Tok& t = get();
          if (t.text == "(") ++depth;
          else if (t.text == ")") --depth;
          else if (t.text == "posedge" || t.text == "negedge")
            sequential = true;
          else if (t.kind == Tok::Kind::Id) markRead(t);
        }
      } else {
        accept("*");
      }
    }
    // One driver site per target per block, at its first assignment.
    std::vector<std::pair<int, int>> targets;
    parseStmt(sequential, 0, targets);
    ++seenMark_;
    for (const auto& [id, line] : targets) {
      if (seen_[(std::size_t)id] == seenMark_) continue;
      seen_[(std::size_t)id] = seenMark_;
      addDriver(id,
                sequential ? DriverSite::Kind::SeqAlways
                           : DriverSite::Kind::CombAlways,
                line);
    }
  }

  int internCtx(std::string name) {
    const auto [it, fresh] = ctxIds_.try_emplace(name, (int)ctxNames_.size());
    if (fresh) ctxNames_.push_back(std::move(name));
    return it->second;
  }

  void parseStmt(bool sequential, int ctx,
                 std::vector<std::pair<int, int>>& targets) {
    if (accept("begin")) {
      while (!atEnd() && !accept("end")) parseStmt(sequential, ctx, targets);
      return;
    }
    if (accept("if")) {
      expect("(");
      (void)collectExpr(")");
      expect(")");
      parseStmt(sequential, ctx, targets);
      if (accept("else")) parseStmt(sequential, ctx, targets);
      return;
    }
    if (at("case") || at("casez") || at("casex")) {
      get();
      expect("(");
      (void)collectExpr(")");
      expect(")");
      while (!atEnd() && !accept("endcase")) {
        // Arm: label[, label]: stmt  — or default: stmt.
        std::string_view label;
        if (accept("default")) {
          label = "default";
        } else {
          const Span labels = collectExpr(":");
          for (std::size_t i = labels.lo; i < labels.hi; ++i)
            if (toks_[i].kind != Tok::Kind::Punct) {
              label = toks_[i].text;
              break;
            }
        }
        expect(":");
        // Extend the enclosing context so nested cases stay distinct.
        const std::string& outer = ctxNames_[(std::size_t)ctx];
        std::string armCtx(label);
        if (!outer.empty()) armCtx = outer + "/" + armCtx;
        parseStmt(sequential, internCtx(std::move(armCtx)), targets);
      }
      return;
    }
    if (accept(";")) return;
    if (peek().kind == Tok::Kind::Id) {
      const Tok& t = get();
      int lhsWidth = lhsSelectWidth(t.id);
      bool assignment = at("=") || at("<=");
      if (!assignment) {
        report_.error("lint.parse", lineWhere(t.line),
                      "unsupported statement at '" + std::string(t.text) +
                          "'");
        skipPast(";");
        return;
      }
      get();  // = or <=
      const Span rhs = collectExpr(";");
      expect(";");
      targets.emplace_back(t.id, t.line);
      recordAssign(t.id, t.line, rhs,
                   sequential ? DriverSite::Kind::SeqAlways
                              : DriverSite::Kind::CombAlways,
                   sequential ? 0 : ctx, lhsWidth);
      // recordAssign adds a per-statement driver; always blocks are one
      // driver site per target, so drop the per-statement entry again.
      nets_[(std::size_t)t.id].drivers.pop_back();
      return;
    }
    report_.error("lint.parse", lineWhere(peek().line),
                  "unsupported statement at '" + std::string(peek().text) +
                      "'");
    get();
  }

  // --- final checks -----------------------------------------------------

  void finish() {
    // Findings in name order.
    std::vector<int> byName;
    for (std::size_t id = 0; id < nets_.size(); ++id)
      if (nets_[id].present) byName.push_back((int)id);
    std::sort(byName.begin(), byName.end(), [&](int a, int b) {
      return names_[(std::size_t)a] < names_[(std::size_t)b];
    });
    for (const int id : byName) {
      const Net& n = nets_[(std::size_t)id];
      if (!n.declared) {
        report_.error("lint.undeclared", netWhere(id),
                      "used at " + lineWhere(n.declLine) +
                          " but never declared");
        continue;
      }
      if (n.drivers.empty() && (n.read || n.isOutput)) {
        report_.error("lint.undriven", netWhere(id),
                      std::string(n.isOutput ? "output port" : "net") +
                          " declared at " + lineWhere(n.declLine) +
                          " is never driven");
      } else if (n.drivers.size() > 1) {
        std::ostringstream oss;
        oss << "driven from " << n.drivers.size() << " sites:";
        for (const DriverSite& d : n.drivers)
          oss << " " << driverName(d.kind) << " at " << lineWhere(d.line);
        report_.error("lint.multi-driven", netWhere(id), oss.str());
      }
      if (!n.read && n.drivers.empty()) {
        report_.warning("lint.unused", netWhere(id),
                        "declared at " + lineWhere(n.declLine) +
                            " but neither read nor driven");
      }
    }
    findCombLoops(byName);
  }

  /// CSR adjacency (first, adj) over node ids 0..n-1 of the edges
  /// `ids` (indices into edges_), each node's out-edges in edge order.
  void adjacency(std::size_t n, const std::vector<int>& ids,
                 const std::vector<int>& local, std::vector<int>& first,
                 std::vector<int>& adj) const {
    first.assign(n + 1, 0);
    for (const int e : ids)
      first[(std::size_t)local[(std::size_t)edges_[(std::size_t)e].from] +
            1] += 1;
    for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
    adj.resize(ids.size());
    std::vector<int> fill(first.begin(), first.end() - 1);
    for (const int e : ids) {
      const CombEdge& ce = edges_[(std::size_t)e];
      adj[(std::size_t)fill[(std::size_t)local[(std::size_t)ce.from]]++] =
          local[(std::size_t)ce.to];
    }
  }

  /// Component id per identifier of the graph formed by edge subset
  /// `ids` (Tarjan completion order, so an edge between two components
  /// runs from the higher id to the lower).
  std::vector<int> components(const std::vector<int>& ids) const {
    const std::size_t n = names_.size();
    std::vector<int> identity(n), first, adj, comp(n, -1);
    for (std::size_t i = 0; i < n; ++i) identity[i] = (int)i;
    adjacency(n, ids, identity, first, adj);
    int next = 0;
    tarjan(n, first, adj, identity, [&](const std::vector<int>& scc) {
      for (const int v : scc) comp[(std::size_t)v] = next;
      ++next;
    });
    return comp;
  }

  /// Combinational-loop detection: Tarjan SCC over the comb net graph,
  /// once per case-arm context (unconditional edges join every context),
  /// contexts in name order with the unconditional one first; `byName`
  /// is the net table in name order.
  ///
  /// A context is skipped when none of its own edges can lie on a cycle.
  /// Every cycle of a context's graph stays inside one component of the
  /// union of all contexts, and its unconditional edges never run
  /// backward in a topological order of the unconditional graph's
  /// components. So an own edge that leaves its union component, or runs
  /// strictly forward in that order, is on no cycle; a context whose own
  /// edges are all such has exactly the unconditional graph's loops,
  /// which the unconditional pass has already reported.
  void findCombLoops(const std::vector<int>& byName) {
    std::vector<int> all(edges_.size());
    std::vector<std::vector<int>> own(ctxNames_.size());
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      all[e] = (int)e;
      own[(std::size_t)edges_[e].ctx].push_back((int)e);
    }
    const std::vector<int>& uncond = own[0];
    // Component ids count in Tarjan completion order: an edge between two
    // components runs from the higher id to the lower.
    const std::vector<int> compU = components(uncond);
    const std::vector<int> compAll = components(all);
    auto harmless = [&](int e) {
      const CombEdge& ce = edges_[(std::size_t)e];
      const std::size_t a = (std::size_t)ce.from, b = (std::size_t)ce.to;
      return compU[a] > compU[b] || compAll[a] != compAll[b];
    };

    // Every net an edge touches is in the table: rank[id] is its place
    // in name order.
    std::vector<int> rank(names_.size(), -1);
    for (std::size_t r = 0; r < byName.size(); ++r)
      rank[(std::size_t)byName[r]] = (int)r;

    std::vector<int> contexts;
    for (std::size_t c = 0; c < own.size(); ++c)
      if (c == 0 || !own[c].empty()) contexts.push_back((int)c);
    std::sort(contexts.begin(), contexts.end(), [&](int a, int b) {
      return ctxNames_[(std::size_t)a] < ctxNames_[(std::size_t)b];
    });

    std::set<std::vector<int>> reported;  // SCCs as sorted name ranks
    std::vector<int> local(names_.size(), -1), global, ids, first, adj,
        roots;
    for (const int ctx : contexts) {
      const std::vector<int>& mine = own[(std::size_t)ctx];
      if (std::all_of(mine.begin(), mine.end(), harmless)) continue;
      // This context's graph: unconditional edges plus its own, in edge
      // order, over a local numbering of the nets they touch.
      ids.clear();
      if (ctx == 0) {
        ids = uncond;
      } else {
        std::merge(uncond.begin(), uncond.end(), mine.begin(), mine.end(),
                   std::back_inserter(ids));
      }
      for (const int v : global) local[(std::size_t)v] = -1;
      global.clear();
      std::vector<char> selfLoop;
      for (const int e : ids) {
        const CombEdge& ce = edges_[(std::size_t)e];
        for (const int v : {ce.from, ce.to})
          if (local[(std::size_t)v] < 0) {
            local[(std::size_t)v] = (int)global.size();
            global.push_back(v);
            selfLoop.push_back(0);
          }
        if (ce.from == ce.to)
          selfLoop[(std::size_t)local[(std::size_t)ce.from]] = 1;
      }
      adjacency(global.size(), ids, local, first, adj);
      // Roots: every net with an out-edge here, in name order.
      roots.clear();
      for (std::size_t v = 0; v < global.size(); ++v)
        if (first[v + 1] > first[v]) roots.push_back((int)v);
      std::sort(roots.begin(), roots.end(), [&](int a, int b) {
        return rank[(std::size_t)global[(std::size_t)a]] <
               rank[(std::size_t)global[(std::size_t)b]];
      });
      tarjan(global.size(), first, adj, roots,
             [&](const std::vector<int>& scc) {
               if (scc.size() == 1 && !selfLoop[(std::size_t)scc.front()])
                 return;
               std::vector<int> key;
               for (const int v : scc)
                 key.push_back(rank[(std::size_t)global[(std::size_t)v]]);
               std::sort(key.begin(), key.end());
               if (!reported.insert(key).second) return;
               std::ostringstream oss;
               oss << "combinational cycle through";
               for (const int r : key)
                 oss << " " << names_[(std::size_t)byName[(std::size_t)r]];
               const std::string& label = ctxNames_[(std::size_t)ctx];
               if (!label.empty()) oss << " (case arm " << label << ")";
               report_.error("lint.comb-loop",
                             netWhere(byName[(std::size_t)key.front()]),
                             oss.str());
             });
    }
  }
};

}  // namespace

void lintVerilog(const std::string& source, CheckReport& report) {
  obs::TraceSpan span("lint.verilog", [&] {
    return "bytes=" + std::to_string(source.size());
  });
  Linter(tokenize(source, report), report).run();
}

}  // namespace mphls
