// Byte-identity nets beyond the builtins: every distinct design of the
// standard fuzz matrix over 24 generated programs and the checked-in
// regression corpus is synthesized, and renderings per design are hashed
// (FNV-1a, 64 bit):
//
//   sta    staReportJson at K in {0, 5, all} x clock {estimated, tight}
//   lint   the CheckReport JSON of lintVerilog(emitVerilog(design))
//   alloc  lifetimes, register assignment, FU binding and interconnect
//   fd     force-directed block schedules over a ladder of horizons, and
//          the rendered points and Verilog of the force-directed time sweep
//   ctrl   raw and minimized control-logic covers, state codes and the
//          controller's PLA area under every state encoding
//   check  the findings of the four stage-exit analyzers on clean and
//          deliberately broken designs, in insertion and rendered order
//   frontend  Function::dump() of the lowered CDFG (or the diagnostics of
//          a malformed source)
//   verilog   emitVerilog of the synthesized design
//
// The sta/lint lines live in tests/fixtures/sta_lint_digest.txt. The alloc
// lines live in tests/fixtures/alloc_digest.txt, which also covers 16
// larger generated programs (300-800 ops) on the greedy allocators. The fd
// lines live in tests/fixtures/fd_digest.txt, the ctrl lines in
// tests/fixtures/ctrl_digest.txt, the check lines in
// tests/fixtures/check_digest.txt, and the frontend and verilog lines in
// tests/fixtures/frontend_digest.txt and tests/fixtures/verilog_digest.txt
// (builtins, corpus, 400 generated programs, 400-3200-op chains and
// loops, and reduction trees). A
// mismatch names the first design that differs and writes the whole actual
// listing to <fixture>.actual in the working directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/lint_verilog.h"
#include "check/report.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/frontend_cache.h"
#include "core/inject.h"
#include "core/synthesizer.h"
#include "ctrl/encode.h"
#include "estim/estimate.h"
#include "fuzz/bdl_gen.h"
#include "fuzz/corpus.h"
#include "fuzz/diff_runner.h"
#include "ir/analysis.h"
#include "ir/deps.h"
#include "lang/frontend.h"
#include "rtl/verilog.h"
#include "sched/force_directed.h"
#include "sta/sta.h"

namespace mphls {
namespace {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

/// The standard matrix's points, one per distinct design (points that
/// differ only in their state encoding synthesize the same design).
std::vector<fuzz::MatrixPoint> distinctPoints() {
  std::vector<fuzz::MatrixPoint> out;
  for (const fuzz::MatrixPoint& p : fuzz::FuzzMatrix::standard().points())
    if (p.enc == StateEncoding::Binary) out.push_back(p);
  return out;
}

/// Compare `actual` with the non-comment lines of fixture `name`; on a
/// mismatch write the actual listing to `<stem>.actual`.
void expectMatchesFixture(const std::vector<std::string>& actual,
                          const std::string& name) {
  std::vector<std::string> expected;
  {
    std::ifstream in(std::string(MPHLS_FIXTURE_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << "missing fixture " << name;
    for (std::string l; std::getline(in, l);)
      if (!l.empty() && l[0] != '#') expected.push_back(l);
  }
  if (actual != expected) {
    std::ofstream out(name.substr(0, name.rfind('.')) + ".actual");
    for (const std::string& l : actual) out << l << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i)
    ASSERT_EQ(actual[i], expected[i]) << "first differing design, line " << i;
}

/// The small generated programs and the regression corpus, tagged.
std::vector<std::pair<std::string, std::string>> smallSources() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    sources.emplace_back("seed=" + std::to_string(seed),
                         fuzz::generateProgram(seed).render());
  for (const fuzz::CorpusEntry& e :
       fuzz::loadCorpus(std::string(MPHLS_FIXTURE_DIR) + "/fuzz"))
    sources.emplace_back("corpus=" + e.name, e.source);
  return sources;
}

/// One digest line: "<source> <point> sta=<hash> lint=<hash>".
std::string digestLine(const std::string& tag, const std::string& source,
                       const fuzz::MatrixPoint& p) {
  std::string line = tag + " " + p.label() + " ";
  SynthesisOptions so = p.toOptions();
  so.narrow = p.narrow;
  so.check = false;
  std::optional<SynthesisResult> synthesized;
  try {
    synthesized.emplace(Synthesizer(so).synthesizeSource(source));
  } catch (const std::exception& e) {
    return line + "error=" + hex(fnv1a(e.what(), kFnvBasis));
  }
  const SynthesisResult& r = *synthesized;
  std::uint64_t sta = kFnvBasis;
  for (const double clock : {0.0, 0.75 * r.timing.cycleTime}) {
    for (const int k : {0, 5, -1}) {
      sta::StaOptions o;
      o.clockNs = clock;
      o.maxPaths = k;
      sta = fnv1a(
          sta::staReportJson("design", tag, sta::runSta(r.design, o)).dump(),
          sta);
    }
  }
  CheckReport lint;
  lintVerilog(emitVerilog(r.design), lint);
  return line + "sta=" + hex(sta) +
         " lint=" + hex(fnv1a(lint.renderJson(), kFnvBasis));
}

TEST(Digest, StaAndLintMatchCapturedDigest) {
  std::vector<std::string> actual;
  for (const auto& [tag, src] : smallSources())
    for (const fuzz::MatrixPoint& p : distinctPoints())
      actual.push_back(digestLine(tag, src, p));
  expectMatchesFixture(actual, "sta_lint_digest.txt");
}

void hashSource(std::ostream& out, const Source& s) {
  out << s.str() << '/' << s.rootWidth << ' ';
}

void hashMux(std::ostream& out, const MuxSpec& m) {
  out << "mux w" << m.width << ":";
  for (const Source& s : m.sources) hashSource(out, s);
  out << '\n';
}

/// FNV-1a over a text rendering of the allocation results: lifetime items,
/// the register of each item, the FU binding and the interconnect.
std::uint64_t allocHash(const RtlDesign& d) {
  std::ostringstream t;
  const LifetimeInfo& lt = d.lifetimes;
  t << "steps " << lt.totalSteps << "\n";
  for (const StorageItem& it : lt.items) {
    const bool temp = it.kind == StorageItem::Kind::Temp;
    t << (temp ? "T " : "V ") << (temp ? it.value.get() : it.var.get())
      << " [" << it.live.birth << "," << it.live.death << ") w" << it.width
      << " " << it.name << "\n";
  }
  t << "regs " << d.regs.numRegs << ":";
  for (int r : d.regs.regOfItem) t << " " << r;
  t << "\nfus:";
  for (const FuInstance& fu : d.binding.fus) {
    t << " [";
    for (OpKind k : fu.kinds) t << opName(k) << ",";
    t << "w" << fu.width << ",c" << fu.comp.get() << "]";
  }
  t << '\n';
  for (std::size_t b = 0; b < d.binding.fuOfOp.size(); ++b) {
    t << "b" << b << ":";
    for (std::size_t i = 0; i < d.binding.fuOfOp[b].size(); ++i)
      t << " " << d.binding.fuOfOp[b][i]
        << (d.binding.swappedOfOp[b][i] ? "s" : "");
    t << '\n';
  }
  const InterconnectResult& ic = d.ic;
  for (const auto& ports : ic.fuInput)
    for (const MuxSpec& m : ports) hashMux(t, m);
  for (const MuxSpec& m : ic.regInput) hashMux(t, m);
  for (const MuxSpec& m : ic.outPortInput) hashMux(t, m);
  for (std::size_t i = 0; i < ic.transfers.size(); ++i) {
    const Transfer& x = ic.transfers[i];
    hashSource(t, x.src);
    t << "-> " << (int)x.destKind << ":" << x.destId << "." << x.destPort
      << " @" << x.step << " w" << x.width << " bus" << ic.busOfTransfer[i]
      << "\n";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "buses %d mux %d %.17g %.17g\n",
                ic.numBuses, ic.mux2to1Count, ic.muxArea, ic.busArea);
  t << buf;
  return fnv1a(t.str(), kFnvBasis);
}

/// One allocation digest line: "<source> <point> ops=<n> alloc=<hash>".
std::string allocLine(const std::string& tag, const std::string& source,
                      const fuzz::MatrixPoint& p) {
  std::string line = tag + " " + p.label() + " ";
  SynthesisOptions so = p.toOptions();
  so.narrow = p.narrow;
  so.check = false;
  try {
    const SynthesisResult r = Synthesizer(so).synthesizeSource(source);
    return line + "ops=" + std::to_string(r.design.fn.numLiveOps()) +
           " alloc=" + hex(allocHash(r.design));
  } catch (const std::exception& e) {
    return line + "error=" + hex(fnv1a(e.what(), kFnvBasis));
  }
}

/// Larger generated programs (300-800 ops after optimization): scaled
/// statement counts and a deeper expression tree.
std::vector<std::pair<std::string, std::string>> largeSources() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (std::uint64_t k = 0; k < 16; ++k) {
    fuzz::GenOptions o;
    o.minStmts = 12 + (int)k;
    o.maxStmts = 16 + (int)k;
    o.maxExprDepth = 4;
    o.minVars = 4;
    o.maxVars = 8;
    o.minInputs = 4;
    o.maxInputs = 6;
    o.maxTrip = 3;
    sources.emplace_back("large=" + std::to_string(k),
                         fuzz::generateProgram(1000 + k, o).render());
  }
  return sources;
}

/// Allocation coverage for the large programs: every greedy allocator the
/// costing serves, unit and multicycle latencies, three schedulers.
std::vector<fuzz::MatrixPoint> largePoints() {
  std::vector<fuzz::MatrixPoint> out;
  for (const fuzz::MatrixPoint& p : distinctPoints())
    if (p.fu == FuAllocMethod::GreedyLocal) out.push_back(p);
  fuzz::MatrixPoint p;
  p.multicycle = true;
  out.push_back(p);
  p.multicycle = false;
  p.fu = FuAllocMethod::InterconnectBlind;
  p.reg = RegAllocMethod::Naive;
  out.push_back(p);
  return out;
}

TEST(Digest, AllocationMatchesCapturedDigest) {
  std::vector<std::string> actual;
  for (const auto& [tag, src] : smallSources()) {
    for (const fuzz::MatrixPoint& p : distinctPoints())
      actual.push_back(allocLine(tag, src, p));
    fuzz::MatrixPoint global;
    global.fu = FuAllocMethod::GreedyGlobal;
    actual.push_back(allocLine(tag, src, global));
  }
  for (const auto& [tag, src] : largeSources())
    for (const fuzz::MatrixPoint& p : largePoints())
      actual.push_back(allocLine(tag, src, p));
  expectMatchesFixture(actual, "alloc_digest.txt");
}

/// `prefix` followed by `n`, built by appending: GCC 12's -O3 -Wrestrict
/// misfires on "literal" + std::to_string(n).
std::string numbered(const char* prefix, long long n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

/// xorshift64 step (deterministic, no global state).
std::uint64_t nextRandom(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Single-block DFG of `width` dependence chains, `depth` ops each; every
/// op reads its own chain's last value and a value drawn from any chain.
Function chainDfg(int width, int depth, std::uint64_t seed) {
  Function fn(numbered("chain", (long long)seed));
  BlockId b = fn.addBlock("entry");
  std::vector<ValueId> heads, all;
  for (int i = 0; i < width; ++i) {
    heads.push_back(fn.emitRead(b, fn.addInput(numbered("p", i), 8)));
    all.push_back(heads.back());
  }
  for (int d = 0; d < depth; ++d) {
    for (int c = 0; c < width; ++c) {
      const ValueId other = all[nextRandom(seed) % all.size()];
      const OpKind k = nextRandom(seed) % 4 == 0 ? OpKind::Mul : OpKind::Add;
      heads[(std::size_t)c] = fn.emitBinary(b, k, heads[(std::size_t)c], other);
      all.push_back(heads[(std::size_t)c]);
    }
  }
  for (int c = 0; c < width; ++c)
    fn.emitWrite(b, fn.addOutput(numbered("y", c), 8),
                 heads[(std::size_t)c]);
  fn.setReturn(b);
  return fn;
}

/// Single-block reduction tree over `leaves` inputs: each op combines two
/// random pending values until one is left.
Function treeDfg(int leaves, std::uint64_t seed) {
  Function fn(numbered("tree", (long long)seed));
  BlockId b = fn.addBlock("entry");
  std::vector<ValueId> pending;
  for (int i = 0; i < leaves; ++i)
    pending.push_back(
        fn.emitRead(b, fn.addInput(numbered("p", i), 8)));
  while (pending.size() > 1) {
    const std::size_t i = nextRandom(seed) % pending.size();
    const ValueId a = pending[i];
    pending.erase(pending.begin() + (std::ptrdiff_t)i);
    const std::size_t j = nextRandom(seed) % pending.size();
    const OpKind k = nextRandom(seed) % 3 == 0 ? OpKind::Mul : OpKind::Add;
    pending[j] = fn.emitBinary(b, k, a, pending[j]);
  }
  fn.emitWrite(b, fn.addOutput("y", 8), pending.front());
  fn.setReturn(b);
  return fn;
}

/// One fd digest line per horizon rule: the hash of every block's
/// forceDirectedSchedule (steps and numSteps) at critical + slack, or at
/// twice the critical length when `slack` < 0.
void fdLines(const std::string& tag, const Function& fn,
             std::vector<std::string>& out) {
  for (const int slack : {0, 1, 2, 4, 8, 16, -1}) {
    std::uint64_t h = kFnvBasis;
    for (const auto& blk : fn.blocks()) {
      BlockDeps deps(fn, blk);
      const int critical = computeLevels(deps).criticalLength;
      const int horizon = slack < 0 ? 2 * critical : critical + slack;
      const BlockSchedule s = forceDirectedSchedule(deps, horizon);
      std::string t = numbered("b", (long long)blk.id.index());
      t += numbered(" n", s.numSteps);
      t += ":";
      for (int step : s.step) t += numbered(" ", step);
      t += "\n";
      h = fnv1a(t, h);
    }
    std::string line = tag;
    line += slack < 0 ? std::string(" horizon=2x")
                      : numbered(" horizon=+", slack);
    line += " fd=";
    line += hex(h);
    out.push_back(line);
  }
}

TEST(Digest, ForceDirectedMatchesCapturedDigest) {
  std::vector<std::string> actual;
  for (const auto& d : designs::all()) {
    for (const OptLevel opt : {OptLevel::None, OptLevel::Standard}) {
      auto fn = FrontendCache::global().get(d.source, "", opt);
      fdLines(std::string("builtin=") + d.name +
                  (opt == OptLevel::None ? " opt=none" : " opt=standard"),
              *fn, actual);
    }
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz::GenOptions o;
    o.maxStmts = 6 + (int)(seed % 5);
    auto fn = FrontendCache::global().get(
        fuzz::generateProgram(500 + seed, o).render(), "",
        OptLevel::Standard);
    fdLines(numbered("gen=", (long long)(500 + seed)), *fn, actual);
  }
  for (const auto& [width, depth] :
       std::vector<std::pair<int, int>>{{4, 25}, {3, 40}, {8, 25}}) {
    const Function fn = chainDfg(width, depth, 17 + (std::uint64_t)width);
    fdLines(numbered("chain=", width) + numbered("x", depth), fn, actual);
  }
  for (const int leaves : {101, 201}) {
    const Function fn = treeDfg(leaves, 31 + (std::uint64_t)leaves);
    fdLines(numbered("tree=", leaves), fn, actual);
  }
  for (const auto& d : designs::all()) {
    SynthesisOptions base;
    base.dseCaptureVerilog = true;
    base.jobs = 2;
    const std::vector<DsePoint> points = exploreTimeSweep(d.source, 4, base);
    std::uint64_t v = kFnvBasis;
    for (const DsePoint& p : points) v = fnv1a(p.verilog, v);
    actual.push_back(std::string("sweep=") + d.name +
                     " points=" + hex(fnv1a(renderPoints(points), kFnvBasis)) +
                     " verilog=" + hex(v));
  }
  expectMatchesFixture(actual, "fd_digest.txt");
}

/// Single-block BDL chain of `n` assignments over eight inputs: each
/// assignment combines the previous one with a recent one, an input or a
/// constant.
std::string chainBdl(int n, std::uint64_t seed) {
  fuzz::Rng rng(seed);
  static const char* kOps[] = {"+", "-", "*", "&", "|", "^"};
  std::string s = numbered("proc chain", n);
  s += "(";
  for (int i = 0; i < 8; ++i) s += numbered("in i", i) + ": uint<16>, ";
  s += "out o0: uint<16>, out o1: uint<16>) {\n";
  for (int k = 0; k < n; ++k) s += numbered("  var t", k) + ": uint<16>;\n";
  s += "  t0 = i0 + i1;\n";
  for (int k = 1; k < n; ++k) {
    std::string y;
    const std::size_t r = rng.below(100);
    if (r < 60 && k >= 2) {
      const int lo = std::max(0, k - 12);
      y = numbered("t", lo + (int)rng.below((std::size_t)(k - 1 - lo)));
    } else if (r < 85) {
      y = numbered("i", (long long)rng.below(8));
    } else {
      y = std::to_string(3 + 2 * rng.below(126));
    }
    s += numbered("  t", k) + " = " + numbered("t", k - 1) + " " +
         kOps[rng.below(6)] + " " + y + ";\n";
  }
  s += numbered("  o0 = t", n - 1) + ";\n" + numbered("  o1 = t", n / 2) +
       ";\n}\n";
  return s;
}

/// BDL loop: six state variables carried through a three-trip do/until
/// whose body is a chain of about `n` assignments.
std::string loopBdl(int n, std::uint64_t seed) {
  fuzz::Rng rng(seed);
  static const char* kOps[] = {"+", "-", "*", "&", "|", "^"};
  const int body = std::max(8, n - 12);
  std::string s = numbered("proc loop", n);
  s += "(";
  for (int i = 0; i < 8; ++i) s += numbered("in i", i) + ": uint<16>, ";
  s += "out o0: uint<16>, out o1: uint<16>) {\n";
  for (int j = 0; j < 6; ++j) s += numbered("  var s", j) + ": uint<16>;\n";
  for (int k = 0; k < body; ++k)
    s += numbered("  var t", k) + ": uint<16>;\n";
  s += "  var k: uint<4>;\n";
  for (int j = 0; j < 6; ++j)
    s += numbered("  s", j) + numbered(" = i", j) + ";\n";
  s += "  k = 0;\n  do {\n    t0 = s0 + s1;\n";
  for (int k = 1; k < body; ++k) {
    std::string y = rng.below(100) < 50 && k >= 2
                        ? numbered("t", (long long)rng.below((std::size_t)k - 1))
                        : numbered("s", (long long)rng.below(6));
    s += numbered("    t", k) + " = " + numbered("t", k - 1) + " " +
         kOps[rng.below(6)] + " " + y + ";\n";
  }
  for (int j = 0; j < 6; ++j)
    s += numbered("    s", j) + numbered(" = t", body - 1 - j) + ";\n";
  s += "    k = k + 1;\n  } until (k == 3);\n";
  s += "  o0 = s0 ^ s1;\n  o1 = s2 + s3;\n}\n";
  return s;
}

std::string fmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// FNV-1a over the controller encoding under every state encoding: state
/// codes, the raw and the minimized cover, and the controller's PLA area.
std::string controllerHash(const RtlDesign& d) {
  std::uint64_t h = kFnvBasis;
  for (const StateEncoding enc :
       {StateEncoding::Binary, StateEncoding::Gray, StateEncoding::OneHot}) {
    const EncodedFsm fsm = encodeController(d.ctrl, d.ic, d.binding, enc);
    std::string t = numbered("enc ", (long long)fsm.encoding);
    t += numbered(" bits ", fsm.stateBits);
    t += " codes";
    for (std::uint64_t c : fsm.codeOf) t += numbered(" ", (long long)c);
    t += "\nraw\n" + fsm.logic.str() + "min\n" + fsm.minimizedLogic.str();
    t += "area " + fmtDouble(estimateArea(d, fsm).controlArea) + "\n";
    h = fnv1a(t, h);
  }
  return hex(h);
}

/// One controller digest line: "<tag> states=<n> ctrl=<hash>".
std::string controllerLine(const std::string& tag, const SynthesisResult& r) {
  return tag + numbered(" states=", (long long)r.design.ctrl.numStates()) +
         " ctrl=" + controllerHash(r.design);
}

/// Synthesize without the stage-exit checks; nullopt when synthesis throws.
std::optional<SynthesisResult> synthesizeUnchecked(const std::string& source,
                                                   SynthesisOptions so) {
  so.check = false;
  try {
    return Synthesizer(so).synthesizeSource(source);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Chain, tree and loop designs of 400-1600 ops.
std::vector<std::pair<std::string, std::string>> scaledSources() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const int n : {400, 800, 1600}) {
    sources.emplace_back(numbered("chain=", n),
                         chainBdl(n, 7000 + (std::uint64_t)n));
    sources.emplace_back(numbered("loop=", n),
                         loopBdl(n, 9000 + (std::uint64_t)n));
  }
  return sources;
}

TEST(Digest, ControllerMatchesCapturedDigest) {
  std::vector<std::string> actual;
  for (const auto& d : designs::all()) {
    const auto r = synthesizeUnchecked(d.source, SynthesisOptions{});
    ASSERT_TRUE(r.has_value()) << d.name;
    actual.push_back(controllerLine(std::string("builtin=") + d.name, *r));
  }
  for (const auto& [tag, src] : smallSources())
    for (const fuzz::MatrixPoint& p : distinctPoints()) {
      SynthesisOptions so = p.toOptions();
      so.narrow = p.narrow;
      const auto r = synthesizeUnchecked(src, so);
      actual.push_back(r ? controllerLine(tag + " " + p.label(), *r)
                         : tag + " " + p.label() + " error");
    }
  for (const auto& [tag, src] : scaledSources()) {
    const auto r = synthesizeUnchecked(src, SynthesisOptions{});
    ASSERT_TRUE(r.has_value()) << tag;
    actual.push_back(controllerLine(tag, *r));
  }
  for (const int leaves : {401, 801, 1601}) {
    SynthesisOptions so;
    so.check = false;
    const SynthesisResult r =
        Synthesizer(so).synthesize(treeDfg(leaves, 57 + (std::uint64_t)leaves));
    actual.push_back(controllerLine(numbered("tree=", leaves), r));
  }
  expectMatchesFixture(actual, "ctrl_digest.txt");
}

/// The hand mutations of the findings digest; each breaks one contract of
/// one stage-exit analyzer on a copy of a clean design (or leaves the copy
/// untouched when the design offers no site for it).
enum class Mutation {
  None,
  ScheduleShift,
  SwappedBinding,
  DropRegAction,
  DropFuAction,
  DuplicateAction,
  AlterFuAction,
  AlterRegAction,
  RetargetTransition,
  OverlapLifetimes,
  MuxTwoSources,
  UnitTwoOps,
};

constexpr Mutation kMutations[] = {
    Mutation::None,          Mutation::ScheduleShift,
    Mutation::SwappedBinding, Mutation::DropRegAction,
    Mutation::DropFuAction,  Mutation::DuplicateAction,
    Mutation::AlterFuAction, Mutation::AlterRegAction,
    Mutation::RetargetTransition, Mutation::OverlapLifetimes,
    Mutation::MuxTwoSources, Mutation::UnitTwoOps,
};

/// The state at the middle of the controller with a non-empty action list
/// `member` (nullptr when there is none).
template <class Member>
CtrlState* middleStateWith(Controller& ctrl, Member member) {
  std::vector<CtrlState*> with;
  for (CtrlState& st : ctrl.states)
    if (!(st.*member).empty()) with.push_back(&st);
  return with.empty() ? nullptr : with[with.size() / 2];
}

void mutate(RtlDesign& d, Mutation m, const OpLatencyModel& lat) {
  Controller& ctrl = d.ctrl;
  switch (m) {
    case Mutation::None:
      return;
    case Mutation::ScheduleShift:
      (void)injectScheduleShift(d, lat);
      return;
    case Mutation::SwappedBinding:
      (void)injectSwappedBinding(d, lat);
      return;
    case Mutation::DropRegAction:
      if (CtrlState* st = middleStateWith(ctrl, &CtrlState::regActions))
        st->regActions.erase(st->regActions.begin());
      return;
    case Mutation::DropFuAction:
      if (CtrlState* st = middleStateWith(ctrl, &CtrlState::fuActions))
        st->fuActions.pop_back();
      return;
    case Mutation::DuplicateAction:
      if (CtrlState* st = middleStateWith(ctrl, &CtrlState::fuActions))
        st->fuActions.push_back(st->fuActions.front());
      if (CtrlState* st = middleStateWith(ctrl, &CtrlState::portActions))
        st->portActions.push_back(st->portActions.back());
      return;
    case Mutation::AlterFuAction:
      if (CtrlState* st = middleStateWith(ctrl, &CtrlState::fuActions)) {
        FuAction& fa = st->fuActions.front();
        const int legs = d.ic.fuInput[(std::size_t)fa.fu][0].legs();
        if (legs > 1)
          fa.muxSel[0] = (fa.muxSel[0] + 1) % legs;
        else
          fa.width += 1;
      }
      return;
    case Mutation::AlterRegAction:
      if (CtrlState* st = middleStateWith(ctrl, &CtrlState::regActions)) {
        RegAction& ra = st->regActions.back();
        const int legs = d.ic.regInput[(std::size_t)ra.reg].legs();
        ra.muxSel = legs > 1 ? (ra.muxSel + 1) % legs : ra.muxSel;
        if (legs <= 1) ra.reg = (ra.reg + 1) % (int)d.ic.regInput.size();
      }
      return;
    case Mutation::RetargetTransition:
      for (std::size_t s = ctrl.states.size() / 2; s < ctrl.states.size();
           ++s) {
        CtrlState& st = ctrl.states[s];
        if (st.halt || st.conditional) continue;
        st.next = ctrl.initial;
        return;
      }
      return;
    case Mutation::OverlapLifetimes: {
      const auto& items = d.lifetimes.items;
      for (std::size_t i = 0; i < items.size(); ++i)
        for (std::size_t j = i + 1; j < items.size(); ++j)
          if (items[i].live.overlaps(items[j].live) &&
              d.regs.regOfItem[i] != d.regs.regOfItem[j] &&
              d.regs.regOfItem[i] >= 0) {
            d.regs.regOfItem[j] = d.regs.regOfItem[i];
            return;
          }
      return;
    }
    case Mutation::MuxTwoSources: {
      auto& transfers = d.ic.transfers;
      if (transfers.empty()) return;
      Transfer t = transfers[transfers.size() / 2];
      t.src = Source{};
      t.src.kind = Source::Kind::Const;
      t.src.imm = 12345;
      t.src.rootWidth = t.width;
      transfers.push_back(t);
      d.ic.busOfTransfer.push_back(d.ic.busOfTransfer.empty()
                                       ? 0
                                       : d.ic.busOfTransfer.back());
      return;
    }
    case Mutation::UnitTwoOps:
      // Rebind the later of two unit-bound ops issued in the same step of
      // one block onto the earlier one's unit.
      for (const Block& blk : d.fn.blocks()) {
        std::vector<int>& fuOf = d.binding.fuOfOp[blk.id.index()];
        const std::vector<int>& step = d.sched.of(blk.id).step;
        for (std::size_t i = 0; i < fuOf.size(); ++i)
          for (std::size_t j = i + 1; j < fuOf.size(); ++j)
            if (fuOf[i] >= 0 && fuOf[j] >= 0 && fuOf[i] != fuOf[j] &&
                step[i] == step[j]) {
              fuOf[j] = fuOf[i];
              return;
            }
      }
      return;
  }
}

/// Every finding in insertion order, then the rendered (sorted) report.
std::string reportText(const CheckReport& rep) {
  std::string t;
  for (const CheckDiag& d : rep.all()) t += d.str() + "\n";
  return t + rep.render();
}

/// One findings digest line per mutation of one design:
/// "<tag> <mutation> errors=<n> warnings=<n> check=<hash>".
void checkLines(const std::string& tag, const SynthesisResult& clean,
                const SynthesisOptions& so, std::vector<std::string>& out) {
  for (const Mutation m : kMutations) {
    RtlDesign d = clean.design;
    mutate(d, m, so.latencies);
    std::uint64_t h = kFnvBasis;
    std::size_t errors = 0, warnings = 0;
    auto fold = [&](const CheckReport& rep) {
      h = fnv1a(reportText(rep), h);
      errors += rep.errorCount();
      warnings += rep.warningCount();
    };
    {
      CheckReport rep;
      checkSchedule(d.fn, d.sched, so.resources, so.latencies, rep);
      fold(rep);
    }
    {
      CheckReport rep;
      checkBinding(d.fn, d.sched, d.lifetimes, d.regs, d.binding, d.ic, d.lib,
                   so.latencies, rep);
      fold(rep);
    }
    {
      CheckReport rep;
      checkController(d.fn, d.sched, d.ctrl, d.ic, d.binding, so.latencies,
                      rep);
      fold(rep);
    }
    {
      CheckReport rep;
      TimingLintOptions topt;
      topt.clockNs = clean.timing.cycleTime;
      checkTiming(d, topt, rep);
      fold(rep);
    }
    out.push_back(tag + numbered(" m", (long long)m) +
                  numbered(" errors=", (long long)errors) +
                  numbered(" warnings=", (long long)warnings) +
                  " check=" + hex(h));
  }
}

TEST(Digest, CheckFindingsMatchCapturedDigest) {
  std::vector<std::string> actual;
  for (const auto& d : designs::all()) {
    for (const bool multicycle : {false, true}) {
      SynthesisOptions so;
      if (multicycle) so.latencies = OpLatencyModel::multiCycle();
      const auto r = synthesizeUnchecked(d.source, so);
      ASSERT_TRUE(r.has_value()) << d.name;
      checkLines(std::string("builtin=") + d.name +
                     (multicycle ? " lat=multi" : " lat=unit"),
                 *r, so, actual);
    }
  }
  for (const auto& [tag, src] : smallSources())
    for (const fuzz::MatrixPoint& p : distinctPoints()) {
      SynthesisOptions so = p.toOptions();
      so.narrow = p.narrow;
      const auto r = synthesizeUnchecked(src, so);
      if (r)
        checkLines(tag + " " + p.label(), *r, so, actual);
      else
        actual.push_back(tag + " " + p.label() + " error");
    }
  for (const int n : {400, 800}) {
    for (const bool multicycle : {false, true}) {
      SynthesisOptions so;
      if (multicycle) so.latencies = OpLatencyModel::multiCycle();
      const std::string lat = multicycle ? " lat=multi" : " lat=unit";
      const auto chain =
          synthesizeUnchecked(chainBdl(n, 7000 + (std::uint64_t)n), so);
      ASSERT_TRUE(chain.has_value());
      checkLines(numbered("chain=", n) + lat, *chain, so, actual);
      const auto loop =
          synthesizeUnchecked(loopBdl(n, 9000 + (std::uint64_t)n), so);
      ASSERT_TRUE(loop.has_value());
      checkLines(numbered("loop=", n) + lat, *loop, so, actual);
    }
  }
  expectMatchesFixture(actual, "check_digest.txt");
}

// ----------------------------------------------- frontend and Verilog text

std::string readFixture(const std::string& rel) {
  std::ifstream in(std::string(MPHLS_FIXTURE_DIR) + "/" + rel);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// BDL reduction tree over eight inputs: `leaves` leaf variables, each an
/// input combined with a constant, then pairs of random pending variables
/// combined until one is left.
std::string treeBdl(int leaves, std::uint64_t seed) {
  fuzz::Rng rng(seed);
  static const char* kOps[] = {"+", "-", "*", "&", "|", "^"};
  std::string s = numbered("proc tree", leaves);
  s += "(";
  for (int i = 0; i < 8; ++i) s += numbered("in i", i) + ": uint<16>, ";
  s += "out o: uint<16>) {\n";
  for (int k = 0; k < 2 * leaves - 1; ++k)
    s += numbered("  var v", k) + ": uint<16>;\n";
  std::vector<int> pending;
  for (int k = 0; k < leaves; ++k) {
    s += numbered("  v", k) + numbered(" = i", (long long)rng.below(8)) +
         " " + kOps[rng.below(6)] + " " +
         std::to_string(1 + rng.below(200)) + ";\n";
    pending.push_back(k);
  }
  for (int m = leaves; pending.size() > 1; ++m) {
    const std::size_t i = rng.below(pending.size());
    const int a = pending[i];
    pending.erase(pending.begin() + (std::ptrdiff_t)i);
    const std::size_t j = rng.below(pending.size());
    s += numbered("  v", m) + numbered(" = (v", a) + " " + kOps[rng.below(6)] +
         numbered(" v", pending[j]) + numbered(") ^ i", (long long)rng.below(8)) +
         ";\n";
    pending[j] = m;
  }
  s += numbered("  o = v", pending.front()) + ";\n}\n";
  return s;
}

/// Inlined calls, shadowed names and an out port read back: exercises the
/// lowering's fresh-name rule ("t", "t.0", "helper.a", "helper.a.1", ...).
const char* kNamesBdl = R"(
proc helper(in a: uint<8>, out r: uint<8>) {
  var t: uint<8>;
  t = a + 1;
  r = t * 2;
}
proc top(in x: uint<8>, out y: uint<8>, out t: uint<8>) {
  var t2: uint<8>;
  var a: uint<8>;
  helper(x, t2);
  helper(t2, a);
  if (x > 1) { var a: uint<4>; a = 3; t2 = t2 + a; }
  if (x > 3) { var t2: uint<8>; t2 = x; y = t2; } else { y = a; }
  helper(y, t);
  t = t + t2;
}
)";

/// Well-formed sources of the text digests: the builtins, the regression
/// corpus, 400 generated programs, the name-rule design, the
/// gen_chain.py chains and loop designs of 400/1600/3200 ops, and
/// reduction trees of 100/400/800 leaves (about 1100-8800 ops).
std::vector<std::pair<std::string, std::string>> textSources() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& d : designs::all())
    sources.emplace_back(std::string("builtin=") + d.name, d.source);
  for (const fuzz::CorpusEntry& e :
       fuzz::loadCorpus(std::string(MPHLS_FIXTURE_DIR) + "/fuzz"))
    sources.emplace_back("corpus=" + e.name, e.source);
  for (std::uint64_t seed = 1; seed <= 400; ++seed)
    sources.emplace_back("seed=" + std::to_string(seed),
                         fuzz::generateProgram(seed).render());
  sources.emplace_back("names", kNamesBdl);
  for (const int n : {400, 1600, 3200}) {
    sources.emplace_back(numbered("chain=", n),
                         readFixture(numbered("clique/chain", n) + ".bdl"));
    sources.emplace_back(numbered("loop=", n),
                         loopBdl(n, 9000 + (std::uint64_t)n));
  }
  for (const int leaves : {100, 400, 800})
    sources.emplace_back(numbered("tree=", leaves),
                         treeBdl(leaves, 8000 + (std::uint64_t)leaves));
  return sources;
}

/// Malformed sources: the digest pins each one's diagnostics.
const char* const kBadBdl[] = {
    "proc f(in a: uint<8>, out y: uint<8>) { y = a @ 1; }",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a + 0x; }",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a + 0b; }",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a + 0b2; }",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a /* open",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a + 1 }",
    "proc f(in a: uint<8>, out y: uint<8>) { y = b; }",
    "proc f(in a: uint<8>, out y: uint<8>) { var a: uint<8>; y = a; }",
    "proc f(in a: uint<8>, out y: uint<8>) { var v: uint<8>; var v: "
    "uint<4>; y = v; }",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a << 9; }",
    "proc f(in a: uint<8>, out y: uint<8>) { a = 1; y = a; }",
    "proc f(in a: uint<8>, out y: uint<8>) { g(a, y); }",
    "proc f(in a: uint<8>, out y: uint<8>) { if = 3; }",
    "proc f(in a: uint<8>,\tout y: uint<8>)\r\n{\v y\f= a + 0XfF + 0B11 "
    "+ 0xAbC; }",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a + \xc3\xa9; }",
    "proc f(in a_1: uint<8>, out Y_2: uint<8>) { Y_2 = a_1 # tail",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a; } // tail",
    "proc f(in a: uint<8>, out y: uint<8>) { y = a; } $",
    "",
    "proc",
    "var x: uint<8>;",
};

/// One frontend digest line: "<tag> ops=<n> fn=<hash of Function::dump()>",
/// or "<tag> diag=<hash of the diagnostics>" when compilation fails.
std::string frontendLine(const std::string& tag, const std::string& source) {
  DiagEngine diags;
  const std::optional<Function> fn = compileBdl(source, diags);
  if (!fn) return tag + " diag=" + hex(fnv1a(diags.summary(), kFnvBasis));
  return tag + numbered(" ops=", (long long)fn->numOps()) +
         " fn=" + hex(fnv1a(fn->dump(), kFnvBasis));
}

TEST(Digest, FrontendMatchesCapturedDigest) {
  std::vector<std::string> actual;
  for (const auto& [tag, src] : textSources())
    actual.push_back(frontendLine(tag, src));
  long long k = 0;
  for (const char* src : kBadBdl)
    actual.push_back(frontendLine(numbered("bad=", k++), src));
  expectMatchesFixture(actual, "frontend_digest.txt");
}

/// One Verilog digest line: "<tag> <config> bytes=<n> v=<hash>", or
/// "<tag> <config> error" when synthesis throws.
std::string verilogLine(const std::string& tag, const char* config,
                        const std::string& source, const SynthesisOptions& so) {
  const std::string head = tag + " " + config;
  const auto r = synthesizeUnchecked(source, so);
  if (!r) return head + " error";
  const std::string v = emitVerilog(r->design);
  return head + numbered(" bytes=", (long long)v.size()) +
         " v=" + hex(fnv1a(v, kFnvBasis));
}

TEST(Digest, VerilogMatchesCapturedDigest) {
  SynthesisOptions clique;
  clique.fuMethod = FuAllocMethod::Clique;
  clique.regMethod = RegAllocMethod::Clique;
  SynthesisOptions force;
  force.scheduler = SchedulerKind::ForceDirected;
  std::vector<std::string> actual;
  for (const auto& [tag, src] : textSources()) {
    actual.push_back(verilogLine(tag, "default", src, SynthesisOptions{}));
    // The 400-3200-op designs run the default configuration only.
    if (tag.rfind("chain=", 0) == 0 || tag.rfind("loop=", 0) == 0 ||
        tag.rfind("tree=", 0) == 0)
      continue;
    actual.push_back(verilogLine(tag, "clique", src, clique));
    actual.push_back(verilogLine(tag, "force", src, force));
  }
  expectMatchesFixture(actual, "verilog_digest.txt");
}

}  // namespace
}  // namespace mphls
