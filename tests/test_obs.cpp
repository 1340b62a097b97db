// Observability-layer tests: span tracer (nesting, null-sink, JSON
// export), metrics registry, VCD writer golden-parse, the simulation
// recorder (waveform final values vs simulator end state, FSM coverage
// vs an independent recount of the controller graph), single-source
// stage timing, and ThreadPool worker track naming.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/thread_pool.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/synthesizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/vcd.h"
#include "rtl/microsim.h"
#include "rtl/rtlsim.h"
#include "rtl/sim_trace.h"

namespace mphls {
namespace {

// ------------------------------------------------------------- tracer

/// Drops events recorded by other cases so each test sees its own spans.
struct TracerReset {
  TracerReset() {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
  ~TracerReset() {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
};

TEST(Tracer, SpansNestAndBalancePerTrack) {
  TracerReset guard;
  auto& tr = obs::Tracer::global();
  tr.enable();
  {
    obs::TraceSpan outer("outer");
    { obs::TraceSpan inner("inner", "detail"); }
    tr.instant("ping");
  }
  tr.disable();

  int myTid = tr.currentTid();
  bool found = false;
  for (const auto& track : tr.snapshot()) {
    int depth = 0;
    double lastTs = -1;
    for (const auto& e : track.events) {
      EXPECT_GE(e.tsMicros, lastTs) << "timestamps regress on tid "
                                    << track.tid;
      lastTs = e.tsMicros;
      if (e.phase == 'B') ++depth;
      if (e.phase == 'E') --depth;
      EXPECT_GE(depth, 0) << "E without matching B on tid " << track.tid;
    }
    EXPECT_EQ(depth, 0) << "unbalanced spans on tid " << track.tid;
    if (track.tid == myTid) {
      found = true;
      ASSERT_EQ(track.events.size(), 5u);  // B B E i E
      EXPECT_EQ(track.events[0].name, "outer");
      EXPECT_EQ(track.events[1].name, "inner");
      EXPECT_EQ(track.events[1].arg, "detail");
      EXPECT_EQ(track.events[3].phase, 'i');
      EXPECT_EQ(track.events[3].name, "ping");
      EXPECT_EQ(track.events[4].phase, 'E');
    }
  }
  EXPECT_TRUE(found);
}

TEST(Tracer, DisabledSpanRecordsNothing) {
  TracerReset guard;
  auto& tr = obs::Tracer::global();
  ASSERT_FALSE(tr.enabled());
  const std::size_t before = tr.eventCount();
  {
    obs::TraceSpan s("invisible");
    tr.instant("also invisible");
  }
  EXPECT_EQ(tr.eventCount(), before);
}

TEST(Tracer, DisabledSpanStillAccumulatesSeconds) {
  TracerReset guard;
  double acc = 0;
  { obs::TraceSpan s("timed", &acc); }
  EXPECT_GE(acc, 0.0);
  const std::size_t events = obs::Tracer::global().eventCount();
  EXPECT_EQ(events, 0u);
}

TEST(Tracer, LazyArgBuiltOnlyWhenEmitting) {
  TracerReset guard;
  auto& tr = obs::Tracer::global();
  int built = 0;
  auto makeArg = [&] {
    ++built;
    return std::string("n=3");
  };
  { obs::TraceSpan s("lazy", makeArg); }
  EXPECT_EQ(built, 0);
  EXPECT_EQ(tr.eventCount(), 0u);

  tr.enable();
  { obs::TraceSpan s("lazy", makeArg); }
  tr.disable();
  EXPECT_EQ(built, 1);
  bool sawArg = false;
  for (const auto& track : tr.snapshot())
    for (const auto& e : track.events)
      if (e.phase == 'B' && e.name == "lazy") sawArg = e.arg == "n=3";
  EXPECT_TRUE(sawArg);
}

TEST(Tracer, ChromeTraceJsonSchema) {
  TracerReset guard;
  auto& tr = obs::Tracer::global();
  tr.setThreadName("test-main");
  tr.enable();
  { obs::TraceSpan s("stage.\"quoted\"", "a\nb"); }
  tr.disable();

  const std::string json = tr.chromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // Metadata event names the track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("test-main"), std::string::npos);
  // Escaping: the quote and newline must not appear raw.
  EXPECT_NE(json.find("stage.\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("a\\nb"), std::string::npos);
  // One B and one E for the span.
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
}

TEST(Tracer, AppendJsonStringEscapes) {
  std::string out;
  obs::appendJsonString(out, "a\"b\\c\n\t\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(Tracer, AppendJsonStringControlChars) {
  // Every byte below 0x20 must leave the output as an escape, never raw.
  for (int c = 1; c < 0x20; ++c) {
    std::string out;
    obs::appendJsonString(out, std::string(1, static_cast<char>(c)));
    for (char b : out) EXPECT_GE(static_cast<unsigned char>(b), 0x20u)
        << "raw control byte " << c << " in " << out;
  }
  std::string nul;
  obs::appendJsonString(nul, std::string_view("a\0b", 3));
  EXPECT_EQ(nul, "\"a\\u0000b\"");
}

TEST(Tracer, AppendJsonStringValidUtf8PassesThrough) {
  std::string out;
  obs::appendJsonString(out, "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x99\x82");
  EXPECT_EQ(out, "\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x99\x82\"");
}

TEST(Tracer, AppendJsonStringInvalidUtf8BecomesReplacement) {
  const char* kRepl = "\xef\xbf\xbd";  // U+FFFD
  struct Case {
    std::string in;
    int replacements;  ///< how many U+FFFD the output must contain
  } cases[] = {
      {"\xff", 1},                  // invalid lead byte
      {"\xc3", 1},                  // truncated 2-byte sequence
      {"\xc3(", 1},                 // bad continuation ('(' survives)
      {"\xe2\x82", 2},              // truncated 3-byte sequence
      {"\xc0\xaf", 2},              // overlong encoding of '/'
      {"\xed\xa0\x80", 3},          // UTF-16 surrogate half
      {"\xf4\x90\x80\x80", 4},      // above U+10FFFF
      {"ok\x80も", 1},              // stray continuation amid valid text
  };
  for (const auto& c : cases) {
    std::string out;
    obs::appendJsonString(out, c.in);
    int found = 0;
    for (std::size_t p = out.find(kRepl); p != std::string::npos;
         p = out.find(kRepl, p + 3))
      ++found;
    EXPECT_EQ(found, c.replacements) << "input bytes: " << c.in.size();
    // The result must itself be valid UTF-8/JSON: re-escaping an already
    // escaped string must not introduce more replacements.
    std::string again;
    obs::appendJsonString(again, out);
    EXPECT_EQ(again.find(kRepl) != std::string::npos,
              out.find(kRepl) != std::string::npos);
  }
  // '(' after the bad lead byte is kept as data.
  std::string out;
  obs::appendJsonString(out, "\xc3(");
  EXPECT_NE(out.find('('), std::string::npos);
}

// ------------------------------------------------------------ metrics

TEST(Metrics, CountersGaugesHistograms) {
  auto& mr = obs::MetricsRegistry::global();
  auto& c = mr.counter("test.obs.counter");
  const std::uint64_t c0 = c.value();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), c0 + 5);

  mr.gauge("test.obs.gauge").set(2.5);
  EXPECT_DOUBLE_EQ(mr.gauge("test.obs.gauge").value(), 2.5);

  auto& h = mr.histogram("test.obs.hist");
  h.reset();
  h.observe(1.0);
  h.observe(3.0);
  const auto s = h.stats();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);

  // Handles are stable: the same name returns the same instrument.
  EXPECT_EQ(&c, &mr.counter("test.obs.counter"));
}

TEST(Metrics, SnapshotSortedAndJsonWellFormed) {
  auto& mr = obs::MetricsRegistry::global();
  mr.counter("test.obs.z").add();
  mr.counter("test.obs.a").add();
  const auto snap = mr.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);

  const std::string json = mr.toJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.a\""), std::string::npos);
}

// ---------------------------------------------------------------- vcd

TEST(Vcd, GoldenRender) {
  obs::VcdWriter vcd("dut");
  const int clk = vcd.addWire("clk", 1);
  const int bus = vcd.addWire("bus", 4);
  const int ghost = vcd.addWire("ghost", 8);  // never written -> x
  (void)ghost;
  vcd.change(clk, 0, 1);
  vcd.change(bus, 0, 0);
  vcd.change(clk, 1, 0);
  vcd.change(bus, 2, 10);
  vcd.change(bus, 3, 10);  // unchanged -> deduplicated
  EXPECT_EQ(vcd.changeCount(), 4u);

  const std::string out = vcd.render();
  EXPECT_NE(out.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(out.find("$scope module dut $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 4 \" bus [3:0] $end"), std::string::npos);
  EXPECT_NE(out.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(out.find("$dumpvars"), std::string::npos);
  EXPECT_NE(out.find("bx #"), std::string::npos);  // ghost dumps as x
  EXPECT_NE(out.find("b1010 \""), std::string::npos);
  // t=3 produced no block (its only change was deduplicated).
  EXPECT_EQ(out.find("#3"), std::string::npos);
}

/// Parse a rendered VCD: tracks every wire's last value and checks time
/// monotonicity. Returns name -> final value (unwritten wires absent).
std::map<std::string, std::uint64_t> vcdFinalValues(const std::string& vcd) {
  std::map<std::string, std::string> nameOfCode;
  std::map<std::string, std::uint64_t> last;
  std::istringstream in(vcd);
  std::string line;
  long t = -1;
  bool inDefs = true;
  while (std::getline(in, line)) {
    if (inDefs) {
      if (line.rfind("$var wire ", 0) == 0) {
        // $var wire W CODE NAME [range] $end
        std::istringstream ls(line);
        std::string var, wire, code, name;
        int width = 0;
        ls >> var >> wire >> width >> code >> name;
        EXPECT_GE(width, 1);
        EXPECT_LE(width, 64);
        nameOfCode[code] = name;
      }
      if (line == "$enddefinitions $end") inDefs = false;
      continue;
    }
    if (!line.empty() && line[0] == '#') {
      const long nt = std::stol(line.substr(1));
      EXPECT_GE(nt, t) << "VCD time regresses";
      t = nt;
    } else if (!line.empty() && (line[0] == '0' || line[0] == '1')) {
      const std::string code = line.substr(1);
      EXPECT_TRUE(nameOfCode.count(code)) << "undeclared code " << code;
      if (!nameOfCode.count(code)) continue;
      last[nameOfCode[code]] = line[0] - '0';
    } else if (!line.empty() && line[0] == 'b' && line != "bx") {
      const auto sp = line.find(' ');
      EXPECT_NE(sp, std::string::npos);
      if (sp == std::string::npos) continue;
      const std::string bits = line.substr(1, sp - 1);
      const std::string code = line.substr(sp + 1);
      EXPECT_TRUE(nameOfCode.count(code)) << "undeclared code " << code;
      if (!nameOfCode.count(code)) continue;
      if (bits == "x") {
        last.erase(nameOfCode[code]);
        continue;
      }
      std::uint64_t v = 0;
      for (char b : bits) v = (v << 1) | (std::uint64_t)(b - '0');
      last[nameOfCode[code]] = v;
    }
  }
  return last;
}

// --------------------------------------------------- simulation traces

TEST(SimTrace, VcdFinalValuesMatchSimulatorEndState) {
  Synthesizer synth(SynthesisOptions{});
  SynthesisResult r = synth.synthesizeSource(designs::gcdSource());
  const RtlDesign& d = r.design;

  std::map<std::string, std::uint64_t> inputs = {{"a0", 54}, {"b0", 24}};
  SimTraceRecorder rec(d);
  rec.begin(inputs);
  RtlSimulator sim(d);
  RtlExecResult res = sim.run(inputs, 1000000, rec.observer());
  rec.finish();
  ASSERT_TRUE(res.finished);

  const auto last = vcdFinalValues(rec.vcd().render());
  // Every register wire's final VCD value equals the simulator end state.
  ASSERT_EQ((int)rec.finalRegs().size(), d.regs.numRegs);
  for (int i = 0; i < d.regs.numRegs; ++i) {
    // Sequential append: GCC 12 -Wrestrict -O3 false positive (see vcd.cpp).
    std::string name = "r";
    name += std::to_string(i);
    ASSERT_TRUE(last.count(name)) << name << " missing from VCD";
    EXPECT_EQ(last.at(name), rec.finalRegs()[(std::size_t)i]) << name;
  }
  // Output ports match the simulator's reported outputs.
  for (const auto& [port, value] : res.outputs) {
    const std::string name = "port_" + port;
    ASSERT_TRUE(last.count(name)) << name << " missing from VCD";
    EXPECT_EQ(last.at(name), value) << name;
  }
  // The clock ends low (finish() writes the closing falling edge).
  ASSERT_TRUE(last.count("clk"));
  EXPECT_EQ(last.at("clk"), 0u);
  EXPECT_EQ(rec.cycles(), res.cycles);
}

TEST(SimTrace, FsmCoverageMatchesControllerRecount) {
  for (const char* src : {designs::gcdSource(), designs::sqrtSource()}) {
    Synthesizer synth(SynthesisOptions{});
    SynthesisResult r = synth.synthesizeSource(src);
    const RtlDesign& d = r.design;

    // Independent recount of the controller graph, straight from the
    // state table: per-state outgoing edges (none for halt, both arms
    // for conditionals, deduplicated).
    std::set<std::pair<std::uint64_t, std::uint64_t>> edges;
    for (const CtrlState& s : d.ctrl.states) {
      if (s.halt) continue;
      if (s.conditional) {
        edges.insert({(std::uint64_t)s.id.index(),
                      (std::uint64_t)s.nextTaken.index()});
        edges.insert({(std::uint64_t)s.id.index(),
                      (std::uint64_t)s.nextNot.index()});
      } else {
        edges.insert(
            {(std::uint64_t)s.id.index(), (std::uint64_t)s.next.index()});
      }
    }

    std::map<std::string, std::uint64_t> inputs;
    for (const auto& p : d.fn.ports())
      if (p.isInput) inputs[p.name] = 21;  // gcd(21,21); sqrt(21)
    SimTraceRecorder rec(d);
    rec.begin(inputs);
    RtlSimulator sim(d);
    auto res = sim.run(inputs, 1000000, rec.observer());
    rec.finish();
    ASSERT_TRUE(res.finished);

    const FsmCoverage cov = rec.coverage();
    EXPECT_EQ(cov.totalStates, (std::size_t)d.ctrl.numStates());
    EXPECT_EQ(cov.totalTransitions, edges.size());
    EXPECT_GE(cov.visitedStates, 1u);
    EXPECT_LE(cov.visitedStates, cov.totalStates);
    EXPECT_LE(cov.visitedTransitions, cov.totalTransitions);
    EXPECT_GT(cov.stateCoverage(), 0.0);
    EXPECT_LE(cov.stateCoverage(), 1.0);
  }
}

TEST(SimTrace, SqrtSingleRunReachesFullStateCoverage) {
  // The sqrt controller is a straight loop: one run with any input that
  // iterates visits every state — the acceptance bar for `mphls profile`.
  Synthesizer synth(SynthesisOptions{});
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  const RtlDesign& d = r.design;

  std::map<std::string, std::uint64_t> inputs;
  for (const auto& p : d.fn.ports())
    if (p.isInput) inputs[p.name] = 64;
  SimTraceRecorder rec(d);
  rec.begin(inputs);
  RtlSimulator sim(d);
  auto res = sim.run(inputs, 1000000, rec.observer());
  rec.finish();
  ASSERT_TRUE(res.finished);

  const FsmCoverage cov = rec.coverage();
  EXPECT_DOUBLE_EQ(cov.stateCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(cov.transitionCoverage(), 1.0);

  // FU utilization: one fraction per bound FU, all within [0, 1].
  const auto util = rec.fuUtilization();
  ASSERT_EQ((int)util.size(), d.binding.numFus());
  for (double u : util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(SimTrace, MicrosimObserverReportsEveryCycle) {
  Synthesizer synth(SynthesisOptions{});
  SynthesisResult r = synth.synthesizeSource(designs::gcdSource());

  std::map<std::string, std::uint64_t> inputs = {{"a0", 12}, {"b0", 20}};
  long observed = 0;
  std::uint64_t lastAddr = 0;
  MicrocodeSimulator micro(r.design, r.microHorizontal);
  RtlExecResult res = micro.run(inputs, 1000000, [&](const SimCycle& sc) {
    EXPECT_EQ(sc.cycle, observed);
    ++observed;
    lastAddr = sc.nextState;  // microcode address, not an FSM state id
  });
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(observed, res.cycles);
  (void)lastAddr;
}

// ------------------------------------------- single-source stage timing

TEST(SimTrace, StageSpansAndStageTimesAgreeExactly) {
  TracerReset guard;
  obs::Tracer::global().enable();
  Synthesizer synth(SynthesisOptions{});
  SynthesisResult r = synth.synthesizeSource(designs::sqrtSource());
  obs::Tracer::global().disable();

  // Sum B->E durations per stage name across all tracks.
  std::map<std::string, double> spanSeconds;
  for (const auto& track : obs::Tracer::global().snapshot()) {
    std::vector<const obs::TraceEvent*> stack;
    for (const auto& e : track.events) {
      if (e.phase == 'B') stack.push_back(&e);
      else if (e.phase == 'E') {
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back()->name, e.name);
        spanSeconds[e.name] += (e.tsMicros - stack.back()->tsMicros) / 1e6;
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty());
  }

  // The span *is* the timer: both numbers come from the same clock reads,
  // so the bench JSON and the trace can never disagree on a stage.
  const StageTimes& st = r.stages;
  EXPECT_DOUBLE_EQ(spanSeconds["stage.optimize"], st.optimize);
  EXPECT_DOUBLE_EQ(spanSeconds["stage.schedule"], st.schedule);
  EXPECT_DOUBLE_EQ(spanSeconds["stage.allocate"], st.allocate);
  EXPECT_DOUBLE_EQ(spanSeconds["stage.control"], st.control);
  EXPECT_DOUBLE_EQ(spanSeconds["stage.estimate"], st.estimate);
  EXPECT_DOUBLE_EQ(spanSeconds["stage.check"], st.check);
}

// The stage-exit spans name their check and carry the size of its work;
// checkDesign runs each analyzer in a span of its own, sized the same way.
TEST(SimTrace, CheckSpansCarryTheirSize) {
  TracerReset guard;
  obs::Tracer::global().enable();
  const SynthesisResult r =
      Synthesizer(SynthesisOptions{}).synthesizeSource(designs::sqrtSource());
  const CheckReport rep = checkDesign(r.design);
  obs::Tracer::global().disable();
  EXPECT_TRUE(rep.clean());

  const std::string ops = "ops=" + std::to_string(r.design.fn.numLiveOps());
  const std::string states =
      "states=" + std::to_string(r.design.ctrl.numStates());
  std::vector<std::string> stageChecks, checks;
  for (const auto& track : obs::Tracer::global().snapshot())
    for (const auto& e : track.events) {
      if (e.phase != 'B') continue;
      if (e.name == "stage.check") stageChecks.push_back(e.arg);
      if (e.name.rfind("check.", 0) == 0) checks.push_back(e.name + " " + e.arg);
    }
  EXPECT_EQ(stageChecks,
            (std::vector<std::string>{"schedule " + ops, "binding " + ops,
                                      "controller " + states,
                                      "timing " + states}));
  EXPECT_EQ(checks, (std::vector<std::string>{
                        "check.schedule " + ops, "check.binding " + ops,
                        "check.controller " + states, "check.timing " + states,
                        "check.netlist " + ops}));
}

TEST(SimTrace, AllocSubSpansNestUnderStageAllocate) {
  TracerReset guard;
  SynthesisOptions o;
  o.fuMethod = FuAllocMethod::Clique;
  o.regMethod = RegAllocMethod::Clique;
  obs::Tracer::global().enable();
  Synthesizer synth(o);
  SynthesisResult r = synth.synthesizeSource(designs::diffeqSource());
  obs::Tracer::global().disable();

  // Parent of every alloc.* span, in order; clique args in order; and the
  // stage.allocate span's own duration.
  std::vector<std::pair<std::string, std::string>> nesting;
  std::vector<std::string> cliqueArgs;
  double allocateSpan = 0;
  for (const auto& track : obs::Tracer::global().snapshot()) {
    std::vector<const obs::TraceEvent*> stack;
    for (const auto& e : track.events) {
      if (e.phase == 'B') {
        if (e.name.rfind("alloc.", 0) == 0)
          nesting.emplace_back(e.name,
                               stack.empty() ? "" : stack.back()->name);
        if (e.name == "alloc.clique") cliqueArgs.push_back(e.arg);
        stack.push_back(&e);
      } else if (e.phase == 'E') {
        ASSERT_FALSE(stack.empty());
        if (e.name == "stage.allocate")
          allocateSpan += (e.tsMicros - stack.back()->tsMicros) / 1e6;
        stack.pop_back();
      }
    }
  }

  const std::vector<std::pair<std::string, std::string>> want = {
      {"alloc.lifetimes", "stage.allocate"},
      {"alloc.reg", "stage.allocate"},
      {"alloc.clique", "alloc.reg"},
      {"alloc.fu", "stage.allocate"},
      {"alloc.clique", "alloc.fu"},
      {"alloc.interconnect", "stage.allocate"}};
  EXPECT_EQ(nesting, want);

  // The register graph has one node per storage item; both args have the
  // n=<nodes> e=<edges> shape.
  ASSERT_EQ(cliqueArgs.size(), 2u);
  const std::string regNodes =
      "n=" + std::to_string(r.design.lifetimes.items.size()) + " e=";
  EXPECT_EQ(cliqueArgs[0].rfind(regNodes, 0), 0u) << cliqueArgs[0];
  for (const std::string& arg : cliqueArgs) {
    std::size_t n = 0, e = 0;
    char tail = 0;
    EXPECT_EQ(std::sscanf(arg.c_str(), "n=%zu e=%zu%c", &n, &e, &tail), 2)
        << arg;
    EXPECT_GT(n, 0u) << arg;
    EXPECT_LE(e, n * (n - 1) / 2) << arg;
  }

  // Sub-spans carry no accumulator: the stage total is still exactly the
  // stage.allocate span.
  EXPECT_DOUBLE_EQ(allocateSpan, r.stages.allocate);
}

// -------------------------------------------------- worker track names

TEST(ThreadPoolObs, WorkersRegisterStableNamedTracks) {
  ThreadPool pool(2, "dse");
  EXPECT_EQ(pool.workerName(0), "dse-0");
  EXPECT_EQ(pool.workerName(1), "dse-1");

  // An iteration runs on worker k's "dse-<k>" lane, or on the caller's.
  const int callerTid = obs::Tracer::global().currentTid();
  std::vector<std::string> seen(4);
  parallelFor(&pool, seen.size(), [&](std::size_t i) {
    const int worker = pool.currentWorker();
    seen[i] = obs::Tracer::global().currentThreadName();
    if (worker < 0) {
      EXPECT_EQ(obs::Tracer::global().currentTid(), callerTid);
      return;
    }
    ASSERT_LT(worker, 2);
    EXPECT_EQ(seen[i], pool.workerName(worker));
    EXPECT_EQ(obs::Tracer::global().currentTid(),
              pool.workerTraceTid(worker));
  });
  for (const auto& name : seen) EXPECT_FALSE(name.empty());
}

// The DSE pool is made once per worker count and kept: after the first
// sweep at a given width, more sweeps start no thread and register no
// tracer track.
TEST(ThreadPoolObs, RepeatedSweepsReuseOneDsePool) {
  TracerReset guard;
  auto taskCount = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/task"))
      ++n;
    return n;
  };
  SynthesisOptions base;
  base.jobs = 4;
  auto sweep = [&] {
    return exploreResourceSweep(designs::diffeqSource(), 4, base);
  };
  (void)sweep();
  const std::size_t tasks = taskCount();
  const std::size_t tracks = obs::Tracer::global().snapshot().size();
  for (int k = 0; k < 50; ++k) EXPECT_EQ(sweep().size(), 4u);
  EXPECT_EQ(taskCount(), tasks);
  EXPECT_EQ(obs::Tracer::global().snapshot().size(), tracks);

  // A sweep runs no wider than it has points: 4 points at jobs = 64 need
  // at most 3 workers, which the sweeps above already made.
  base.jobs = 64;
  EXPECT_EQ(sweep().size(), 4u);
  EXPECT_EQ(taskCount(), tasks);
}

// A worker that records nothing leaves no track behind when it exits, so
// making pools over and over (one per fuzz campaign) does not grow the
// registry; tids come from a counter and are never reused;
// and a worker that recorded while tracing was on keeps its named lane.
TEST(ThreadPoolObs, IdleWorkerTracksLeaveTheRegistry) {
  TracerReset guard;
  auto& tr = obs::Tracer::global();
  const std::size_t before = tr.snapshot().size();
  int lastTid = -1;
  for (int k = 0; k < 5000; ++k) {
    ThreadPool pool(1, "idle");
    const int tid =
        pool.submit([] { return obs::Tracer::global().currentTid(); }).get();
    EXPECT_GT(tid, lastTid);
    lastTid = tid;
  }
  EXPECT_EQ(tr.snapshot().size(), before);

  tr.enable();
  int kept = -1;
  {
    ThreadPool pool(1, "kept");
    kept = pool.submit([] {
                 obs::TraceSpan span("work");
                 return obs::Tracer::global().currentTid();
               }).get();
  }
  tr.disable();
  bool found = false;
  for (const auto& track : tr.snapshot())
    if (track.tid == kept) {
      found = true;
      EXPECT_EQ(track.name, "kept-0");
      EXPECT_EQ(track.events.size(), 2u);
    }
  EXPECT_TRUE(found);
  EXPECT_NE(tr.chromeTraceJson().find("\"kept-0\""), std::string::npos);
}

}  // namespace
}  // namespace mphls
