// mphls — command-line driver for the high-level synthesis system.
//
// Usage: see usage() below (`mphls` with no arguments prints it).
//
// The `lint` subcommand synthesizes the design and prints the full static
// verification report (schedule legality, binding consistency, controller
// completeness, Verilog netlist lint) instead of the synthesis summary;
// it exits 1 if any error-severity finding is reported. `--format json`
// switches the report to one machine-readable JSON object
// ({"file","diagnostics":[{"severity","code","where","message"}],...}).
//
// The `prove` subcommand runs the symbolic equivalence engine (src/sec/,
// DESIGN.md §11): the synthesized FSM/datapath is proved equivalent to the
// behavioral CDFG block by block, with every obligation discharged by
// bit-blasting to the built-in CDCL SAT solver. `--prove-passes`
// additionally validates each optimization pass application (translation
// validation), pinpointing the first non-equivalence-preserving pass.
// `--inject mul|sched|bind` flips the gate into its self-test: a known
// miscompile is injected and the command exits 0 only when the proof
// *fails* on every design it applies to. `--builtins` proves every
// built-in design (the CI gate). The plain synthesis path accepts
// `--prove` to run the same proof as a pipeline stage.
//
// The `sta` subcommand runs the path-level static timing analysis engine
// (src/sta/, DESIGN.md §13) on the synthesized design: per-state timing
// graphs with arrival/required/slack against a target clock (--clock,
// default: the estimated cycle time), the K worst named paths (--paths),
// state-aware false-path pruning versus the structural analysis, and the
// timing-closure lint (timing.* check ids). Exits 1 on any error-severity
// finding — negative slack, STA-vs-estimator divergence, comb loops.
// `--builtins` analyzes every built-in design (the CI gate); `--format
// json` emits the machine-readable report.
//
// The `analyze` subcommand runs the abstract-interpretation dataflow engine
// (value ranges + known bits) on the compiled behavior and prints the
// per-value facts plus the semantic lint report (analysis.* check ids); it
// exits 1 if any error-severity finding is reported. `--dot-facts FILE`
// additionally writes the CFG and per-block DFGs with each node annotated
// by its fact; `--builtins` analyzes every built-in design instead of a
// file (the CI gate). With an explicit `--opt` (and optionally `--narrow`)
// the analysis runs on the post-pipeline IR instead of the frontend
// output — the facts the width-narrowing pass actually consumes.
//
// The `profile` subcommand synthesizes the design, simulates it under the
// waveform/coverage recorder, and prints a stage/pass time + counter +
// FSM-coverage table. `--trace FILE` (Chrome trace_event JSON for
// Perfetto), `--vcd FILE` (GTKWave waveform) and `--stats FILE` (metrics
// registry JSON) work on the synth, profile and fuzz paths; see
// DESIGN.md §10.
//
// The `fuzz` subcommand runs the differential co-simulation fuzzer
// (src/fuzz/): deterministic random BDL programs are synthesized across a
// scheduler × allocator × encoding × narrow matrix, every point is gated
// through checkDesign, and the RTL is co-simulated against the behavioral
// interpreter. Failures are saved (raw + delta-debug-minimized with
// --reduce) under the corpus directory; --replay DIR re-runs saved corpus
// entries as a regression gate. Exits 1 on any failure.
//
// The synthesis options (scheduler, allocators, encoding, limits) are the
// rows of the option table in core/options.h; usage() lists them.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <vector>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>

#include "analysis/dataflow.h"
#include "common/bench_report.h"
#include "common/json_reader.h"
#include "common/thread_pool.h"
#include "core/commands.h"
#include "core/designs.h"
#include "core/dse.h"
#include "core/options.h"
#include "core/synthesizer.h"
#include "fuzz/campaign.h"
#include "fuzz/diff_runner.h"
#include "ir/dot.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/rtlsim.h"
#include "rtl/sim_trace.h"
#include "rtl/verilog.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sta/sta.h"

using namespace mphls;

namespace {

struct CliArgs {
  std::string file;
  std::string top;
  std::string verilogOut;
  std::string dotOut;
  std::vector<std::map<std::string, std::uint64_t>> verifyRuns;
  std::string dotFactsOut;
  std::string traceOut;  ///< --trace: Chrome trace_event JSON
  std::string vcdOut;    ///< --vcd: simulation waveform
  std::string statsOut;  ///< --stats: metrics registry JSON
  std::string logFile;   ///< --log-file: JSONL structured log sink
  std::string logLevel;  ///< --log-level: debug|info|warn|error
  std::string flightIn;  ///< profile --flight: decode a flight dump
  int sweep = 0;
  bool quiet = false;
  bool lint = false;
  bool analyze = false;
  bool profile = false;
  bool prove = false;        ///< `prove` subcommand
  bool sta = false;          ///< `sta` subcommand
  bool synthCmd = false;     ///< explicit `synth` subcommand token
  double staClock = 0;       ///< --clock: target period (0 = estimated)
  int staPaths = 5;          ///< --paths: K worst paths to report
  bool provePasses = false;  ///< --prove-passes: per-pass validation
  bool jsonFormat = false;   ///< --format json
  InjectedBug inject = InjectedBug::None;
  bool builtins = false;
  bool optExplicit = false;  ///< --opt given: analyze post-pipeline IR
  SynthesisOptions opts;
};

void usage() {
  std::cerr <<
      "usage: mphls [options] design.bdl\n"
      "       mphls synth [--format text|json] [options] design.bdl\n"
      "       mphls lint [--format text|json] [options] design.bdl\n"
      "       mphls analyze [--dot-facts FILE] design.bdl | --builtins\n"
      "       mphls prove [--prove-passes] [--inject mul|sched|bind]\n"
      "                   [--format text|json] [options] design.bdl |"
      " --builtins\n"
      "       mphls sta [--clock NS] [--paths K] [--format text|json]\n"
      "                 [options] design.bdl | --builtins\n"
      "       mphls profile [options] design.bdl | --flight DUMP\n"
      "options:\n"
      << optionUsage() <<
      "  --top NAME  --verilog FILE  --dot FILE  --verify a=1,b=2"
      "  --sweep N\n"
      "  --trace FILE  --vcd FILE  --stats FILE  --quiet\n"
      "  --log-file FILE  --log-level debug|info|warn|error\n"
      "       mphls fuzz [--seeds N] [--seed-base S] [--jobs N]\n"
      "                  [--matrix quick|standard|full] [--trials N]\n"
      "                  [--reduce] [--corpus DIR] [--no-save]\n"
      "                  [--replay DIR] [--inject mul|sched|bind]\n"
      "                  [--no-check]\n"
      "                  [--trace FILE] [--stats FILE]\n"
      "                  [--out FILE] [--quiet]\n"
      "       mphls serve [--port P] [--jobs N] [--max-connections N]\n"
      "                   [--log-file FILE] [--log-level LEVEL]\n"
      "                   [--flight-dump PATH] [--quiet]\n"
      "       mphls loadgen [--url http://host:port] [--clients N]\n"
      "                     [--requests M] [--mix synth:lint:sim]"
      " [--seed S]\n"
      "                     [--out FILE] [--quiet]\n";
}

bool parseInputs(const std::string& spec,
                 std::map<std::string, std::uint64_t>& out) {
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    auto eq = item.find('=');
    if (eq == std::string::npos) return false;
    out[item.substr(0, eq)] =
        std::strtoull(item.c_str() + eq + 1, nullptr, 0);
  }
  return true;
}

/// A positive count (--seeds, --points, --clients, ...).
constexpr NumRange kCount{1, INT_MAX};

int fail(const std::string& msg) {
  std::cerr << "mphls: " << msg << "\n";
  return 1;
}

/// Turn the tracer on (with a named main-thread track) when --trace was
/// given; instrumentation stays on the null-sink fast path otherwise.
void enableTracing(const std::string& traceOut) {
  if (traceOut.empty()) return;
  obs::Tracer::global().setThreadName("main");
  obs::Tracer::global().enable();
}

/// Configure the structured logger from --log-file/--log-level. A file
/// with no explicit level defaults to info; no file routes to stderr.
/// Returns false (after reporting) when the file cannot be opened or
/// the level is unknown. With neither flag the logger stays on its
/// null-sink fast path.
bool applyLogging(const std::string& logFile, const std::string& logLevel) {
  if (logFile.empty() && logLevel.empty()) return true;
  auto& lg = obs::Logger::global();
  if (!logFile.empty() && !lg.openFile(logFile)) {
    fail("cannot open log file " + logFile);
    return false;
  }
  obs::LogLevel level = obs::LogLevel::Info;
  if (!logLevel.empty()) {
    level = obs::parseLogLevel(logLevel);
    if (level == obs::LogLevel::Off) {
      fail("bad --log-level " + logLevel +
           " (want debug|info|warn|error)");
      return false;
    }
  }
  lg.setLevel(level);
  return true;
}

/// Write the --trace / --stats artifacts at command exit.
int writeObsOutputs(const std::string& traceOut, const std::string& statsOut,
                    bool quiet) {
  if (!traceOut.empty()) {
    if (!obs::Tracer::global().writeChromeTrace(traceOut))
      return fail("cannot write " + traceOut);
    if (!quiet) std::cout << "wrote trace to " << traceOut << "\n";
  }
  if (!statsOut.empty()) {
    if (!obs::MetricsRegistry::global().writeJson(statsOut))
      return fail("cannot write " + statsOut);
    if (!quiet) std::cout << "wrote metrics to " << statsOut << "\n";
  }
  return 0;
}

/// One recorded RTL simulation: waveform (written to `vcdOut` when
/// non-empty), FSM coverage and FU utilization, published as sim.* gauges.
struct RecordedSim {
  RtlExecResult res;
  FsmCoverage cov;
  std::vector<double> util;
  long cycles = 0;
};

std::optional<RecordedSim> recordSimulation(
    const RtlDesign& d, const std::map<std::string, std::uint64_t>& inputs,
    const std::string& vcdOut, bool quiet) {
  SimTraceRecorder rec(d);
  rec.begin(inputs);
  const RtlSimulator sim(d);
  RecordedSim out;
  WallTimer simTimer;
  {
    obs::TraceSpan span("sim.rtl", d.fn.name());
    out.res = sim.run(inputs, 1000000, rec.observer());
  }
  const double simSeconds = simTimer.seconds();
  rec.finish();
  out.cov = rec.coverage();
  out.util = rec.fuUtilization();
  out.cycles = rec.cycles();

  double utilMean = 0;
  for (double u : out.util) utilMean += u;
  if (!out.util.empty()) utilMean /= (double)out.util.size();
  auto& mr = obs::MetricsRegistry::global();
  mr.gauge("sim.cycles").set((double)out.res.cycles);
  mr.gauge("sim.cycles_per_sec")
      .set(simSeconds > 0 ? (double)out.res.cycles / simSeconds : 0.0);
  mr.gauge("sim.finished").set(out.res.finished ? 1.0 : 0.0);
  mr.gauge("sim.fsm_state_coverage").set(100.0 * out.cov.stateCoverage());
  mr.gauge("sim.fsm_transition_coverage")
      .set(100.0 * out.cov.transitionCoverage());
  mr.gauge("sim.fu_utilization_mean").set(utilMean);

  if (!vcdOut.empty()) {
    if (!rec.writeVcd(vcdOut)) {
      fail("cannot write " + vcdOut);
      return std::nullopt;
    }
    if (!quiet)
      std::cout << "wrote VCD to " << vcdOut << " (" << out.cycles
                << " cycles)\n";
  }
  return out;
}

/// Inputs for a recorded simulation: the first --verify run, topped up
/// with zeros for any input port it leaves unset.
std::map<std::string, std::uint64_t> simInputs(const CliArgs& a,
                                               const RtlDesign& d) {
  std::map<std::string, std::uint64_t> inputs;
  if (!a.verifyRuns.empty()) inputs = a.verifyRuns.front();
  for (const auto& p : d.fn.ports())
    if (p.isInput && inputs.find(p.name) == inputs.end()) inputs[p.name] = 0;
  return inputs;
}

/// `mphls profile --flight DUMP`: decode a flight-recorder dump (the
/// JSONL file a crashed/SIGQUIT'd daemon wrote) into a human-readable
/// timeline. Events are recorded per thread, so the dump is unordered;
/// the decoder sorts by the global sequence number.
int runProfileFlight(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);

  struct Row {
    std::uint64_t seq = 0;
    double tUs = 0;
    std::uint64_t thread = 0;
    std::string kind, level, component, msg;
  };
  std::vector<Row> rows;
  std::string meta;
  std::string line;
  std::size_t badLines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = json::parse(line);
    if (!doc || !doc->isObject()) {
      ++badLines;  // torn event from a mid-write crash: skip, keep rest
      continue;
    }
    if (const json::Node* fr = doc->get("flight_recorder")) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "threads %d, capacity/thread %d, total recorded %.0f",
                    (int)fr->getNumber("threads"),
                    (int)fr->getNumber("capacity_per_thread"),
                    fr->getNumber("total_recorded"));
      meta = buf;
      continue;
    }
    Row r;
    r.seq = (std::uint64_t)doc->getNumber("seq");
    r.tUs = doc->getNumber("t_us");
    r.thread = (std::uint64_t)doc->getNumber("thread");
    r.kind = doc->getString("kind");
    r.level = doc->getString("level");
    r.component = doc->getString("component");
    r.msg = doc->getString("msg");
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.seq < b.seq; });

  std::printf("flight recorder dump '%s'\n", path.c_str());
  if (!meta.empty()) std::printf("  %s\n", meta.c_str());
  std::printf("  %zu event(s) retained", rows.size());
  if (badLines > 0) std::printf(", %zu unparseable line(s)", badLines);
  std::printf("\n\n%8s %14s %6s %-10s %-5s %-16s %s\n", "seq", "t(ms)",
              "thr", "kind", "lvl", "component", "message");
  for (const Row& r : rows)
    std::printf("%8llu %14.3f %6llu %-10s %-5s %-16s %s\n",
                (unsigned long long)r.seq, r.tUs / 1e3,
                (unsigned long long)r.thread, r.kind.c_str(),
                r.level.c_str(), r.component.c_str(), r.msg.c_str());
  return 0;
}

/// `mphls profile design.bdl`: run the flow once, simulate it with the
/// recorder, and print a stage/pass time + counter table. The sim.*
/// gauges (FSM coverage, FU utilization) land in --stats output.
int runProfile(const CliArgs& a, const SynthesisResult& result) {
  const RtlDesign& d = result.design;
  const auto inputs = simInputs(a, d);
  const auto sim = recordSimulation(d, inputs, a.vcdOut, a.quiet);
  if (!sim) return 1;

  std::printf("profile of '%s'\n", d.fn.name().c_str());
  const StageTimes& st = result.stages;
  std::printf("\n%-20s %12s\n", "stage", "seconds");
  std::printf("  %-18s %12.6f\n", "optimize", st.optimize);
  std::printf("  %-18s %12.6f\n", "schedule", st.schedule);
  std::printf("  %-18s %12.6f\n", "allocate", st.allocate);
  std::printf("  %-18s %12.6f\n", "control", st.control);
  std::printf("  %-18s %12.6f\n", "estimate", st.estimate);
  std::printf("  %-18s %12.6f\n", "check", st.check);
  std::printf("  %-18s %12.6f\n", "prove", st.prove);
  std::printf("  %-18s %12.6f\n", "total", st.total());

  const auto snap = obs::MetricsRegistry::global().snapshot();
  std::printf("\n%-20s %12s %10s\n", "pass", "seconds", "changes");
  for (const auto& [name, h] : snap.histograms) {
    constexpr std::string_view kPre = "pass.", kSuf = ".seconds";
    if (name.size() <= kPre.size() + kSuf.size() ||
        name.compare(0, kPre.size(), kPre) != 0 ||
        name.compare(name.size() - kSuf.size(), kSuf.size(), kSuf) != 0)
      continue;
    const std::string pass =
        name.substr(kPre.size(), name.size() - kPre.size() - kSuf.size());
    std::uint64_t changes = 0;
    for (const auto& [cname, v] : snap.counters)
      if (cname == "pass." + pass + ".changes") changes = v;
    std::printf("  %-18s %12.6f %10llu\n", pass.c_str(), h.sum,
                (unsigned long long)changes);
  }

  // Timing closure at the estimated clock (DESIGN.md §13).
  const sta::StaResult staRes = sta::runSta(d);
  std::printf("\n%-20s %12s\n", "timing", "value");
  std::printf("  %-18s %12.3f\n", "clock (estimated)", staRes.clockNs);
  std::printf("  %-18s %12.3f\n", "cycle time", staRes.cycleTime);
  std::printf("  %-18s %+12.3f\n", "worst slack", staRes.worstSlack);
  std::printf("  %-18s %12.3f\n", "structural cycle", staRes.structuralCycleTime);
  std::printf("  %-18s %12zu\n", "false-path endpts", staRes.falsePathEndpoints);
  if (!staRes.paths.empty())
    std::printf("  critical: %s\n", staRes.paths.front().describe().c_str());

  std::printf("\nsimulation: %ld cycles (%s)\n", sim->res.cycles,
              sim->res.finished ? "halted" : "did not halt");
  std::printf("  %-18s %zu/%zu visited (%.1f%%)\n", "fsm states",
              sim->cov.visitedStates, sim->cov.totalStates,
              100.0 * sim->cov.stateCoverage());
  std::printf("  %-18s %zu/%zu covered (%.1f%%)\n", "fsm transitions",
              sim->cov.visitedTransitions, sim->cov.totalTransitions,
              100.0 * sim->cov.transitionCoverage());
  for (std::size_t f = 0; f < sim->util.size(); ++f)
    std::printf("  fu%zu (%s) busy %.1f%% of cycles\n", f,
                d.lib.component(d.binding.fus[f].comp).name.c_str(),
                100.0 * sim->util[f]);

  std::printf("\n%-32s %10s\n", "counter", "value");
  for (const auto& [name, v] : snap.counters)
    std::printf("  %-30s %10llu\n", name.c_str(), (unsigned long long)v);
  return 0;
}

std::optional<CliArgs> parseArgs(int argc, char** argv) {
  CliArgs a;
  a.opts.resources = ResourceLimits::universalSet(2);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&] { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;  // the flag's value, once taken
    if (const OptionRow* row = findOptionFlag(arg)) {
      v = row->type == OptionType::Flag ? "" : next();
      if (!v || !applyFlag(*row, v, a.opts)) return std::nullopt;
      a.optExplicit |= arg == "--opt";
    } else if (arg == "--top" && (v = next())) {
      a.top = v;
    } else if (arg == "--verilog" && (v = next())) {
      a.verilogOut = v;
    } else if (arg == "--dot" && (v = next())) {
      a.dotOut = v;
    } else if (arg == "--verify" && (v = next())) {
      std::map<std::string, std::uint64_t> in;
      if (!parseInputs(v, in)) return std::nullopt;
      a.verifyRuns.push_back(std::move(in));
    } else if (arg == "--sweep" && (v = next())) {
      if (!parseInt(v, {0, INT_MAX}, a.sweep)) return std::nullopt;
    } else if (arg == "--dot-facts" && (v = next())) {
      a.dotFactsOut = v;
    } else if (arg == "--trace" && (v = next())) {
      a.traceOut = v;
    } else if (arg == "--vcd" && (v = next())) {
      a.vcdOut = v;
    } else if (arg == "--stats" && (v = next())) {
      a.statsOut = v;
    } else if (arg == "--log-file" && (v = next())) {
      a.logFile = v;
    } else if (arg == "--log-level" && (v = next())) {
      if (obs::parseLogLevel(v) == obs::LogLevel::Off)
        return std::nullopt;
      a.logLevel = v;
    } else if (arg == "--flight" && (v = next())) {
      a.flightIn = v;
    } else if (arg == "--clock" && (v = next())) {
      if (!parseNumber(v, kClockRange, a.staClock)) return std::nullopt;
    } else if (arg == "--paths" && (v = next())) {
      if (!parseInt(v, kPathsRange, a.staPaths)) return std::nullopt;
    } else if (arg == "--builtins") {
      a.builtins = true;
    } else if (arg == "--prove-passes") {
      a.provePasses = true;
    } else if (arg == "--format" && (v = next())) {
      std::string s = v;
      if (s == "json") a.jsonFormat = true;
      else if (s != "text") return std::nullopt;
    } else if (arg == "--inject" && (v = next())) {
      if (!parseInjectedBug(v, a.inject)) return std::nullopt;
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "synth" && a.file.empty() && !a.synthCmd) {
      a.synthCmd = true;
    } else if (arg == "lint" && a.file.empty() && !a.lint) {
      a.lint = true;
    } else if (arg == "analyze" && a.file.empty() && !a.analyze) {
      a.analyze = true;
    } else if (arg == "prove" && a.file.empty() && !a.prove) {
      a.prove = true;
    } else if (arg == "sta" && a.file.empty() && !a.sta) {
      a.sta = true;
    } else if (arg == "profile" && a.file.empty() && !a.profile) {
      a.profile = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return std::nullopt;
    } else {
      a.file = arg;
    }
  }
  if (a.builtins && !a.analyze && !a.prove && !a.sta) return std::nullopt;
  if (!a.flightIn.empty() && !a.profile) return std::nullopt;
  // `profile --flight DUMP` decodes a recorder file; no design needed.
  const bool flightDecode = a.profile && !a.flightIn.empty();
  if (a.file.empty() && !a.builtins && !flightDecode) return std::nullopt;
  if (a.inject != InjectedBug::None && !a.prove) return std::nullopt;
  return a;
}

/// Print a rendered command and map its verdict to the exit status.
int emit(const cmd::Result& r) {
  std::cout << r.body;
  return r.ok ? 0 : 1;
}

/// A command without an outcome: the frontend's diagnostics, one per line
/// prefixed by the design name, or the pipeline error. Exit status 1.
int reportFailure(const std::string& name, const cmd::Failure& f) {
  if (f.diags.empty()) return fail(f.message);
  for (const Diagnostic& d : f.diags)
    std::cerr << name << ":" << d.str() << "\n";
  return 1;
}

/// `mphls lint`: the full static verification report; exit 1 on errors.
int runLint(const CliArgs& a, const cmd::Request& req) {
  if (a.jsonFormat) return emit(cmd::lintJson(req));
  const auto o = cmd::lint(req);
  if (!o) return reportFailure(req.name, o.failure);
  std::cout << cmd::checkText(req.name, *o);
  return o->clean() ? 0 : 1;
}

/// `mphls analyze`: facts listing + semantic lint report for one file, a
/// per-design summary for --builtins (the CI gate); exit 1 on errors.
int runAnalyze(const CliArgs& a, const std::vector<cmd::Request>& reqs) {
  // With an explicit --opt, analyze the post-pipeline IR — the facts the
  // narrowing pass actually consumes (and a debugging aid for it).
  const bool post = a.optExplicit && a.opts.opt != OptLevel::None;
  if (a.jsonFormat && !a.builtins)
    return emit(cmd::analyzeJson(reqs.front(), post));
  int failures = 0;
  for (const cmd::Request& req : reqs) {
    const auto o = cmd::analyze(req, post);
    if (!o) return reportFailure(req.name, o.failure);
    if (!o->report.clean()) ++failures;
    if (a.builtins) {
      std::cout << req.name << ": " << o->report.errorCount()
                << " error(s), " << o->report.warningCount()
                << " warning(s)\n";
      if (!a.quiet)
        for (const auto& diag : o->report.all())
          std::cout << "  " << diag.str() << "\n";
      continue;
    }
    std::cout << cmd::analyzeText(req.name, *o, a.quiet);
    if (!a.dotFactsOut.empty()) {
      std::ofstream out(a.dotFactsOut);
      if (!out) return fail("cannot write " + a.dotFactsOut);
      const auto notes = factAnnotations(o->fn, o->facts);
      out << controlFlowDot(o->fn);
      for (const Block& blk : o->fn.blocks())
        if (!blk.ops.empty()) out << dataFlowDot(o->fn, blk.id, notes);
      if (!a.quiet) std::cout << "wrote DOT to " << a.dotFactsOut << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

/// `mphls prove`: the formal equivalence gate. Without --inject, exits 0
/// iff every proof is clean; with --inject, exits 0 iff the injected bug
/// was caught (proof NOT clean) on every design it applies to — the
/// gate's self-test.
int runProve(const CliArgs& a, const std::vector<cmd::Request>& reqs) {
  const bool injecting = a.inject != InjectedBug::None;
  if (a.jsonFormat && !a.builtins && !injecting)
    return emit(cmd::proveJson(reqs.front(), a.provePasses));
  int applicable = 0, clean = 0;
  std::string json = "[";
  for (const cmd::Request& req : reqs) {
    const auto o = cmd::prove(req, a.provePasses, a.inject);
    if (!o) return reportFailure(req.name, o.failure);
    if (o->applicable) {
      ++applicable;
      if (o->report.clean()) ++clean;
    }
    if (!a.jsonFormat) {
      std::cout << cmd::proveText(req.name, *o, injecting, a.quiet);
      continue;
    }
    if (json.size() > 1) json += ",";
    json += cmd::reportJson(a.builtins ? "design" : "file", req.name,
                            o->report);
  }
  if (a.jsonFormat)
    std::cout << json << "]\n";
  else if (injecting)
    std::cout << "prove --inject: " << applicable - clean << "/"
              << applicable << " applicable design(s) caught\n";
  const bool ok =
      injecting ? applicable > 0 && clean == 0 : clean == applicable;
  return ok ? 0 : 1;
}

/// `mphls sta`: path-level static timing analysis. Prints the summary,
/// the K worst named paths and the timing lint's findings; exits 1 on any
/// error-severity finding.
int runSta(const CliArgs& a, const std::vector<cmd::Request>& reqs) {
  if (a.jsonFormat && !a.builtins)
    return emit(cmd::staJson(reqs.front(), a.staClock, a.staPaths));
  bool ok = true;
  JsonValue reports = JsonValue::array();  // --builtins --format json
  for (const cmd::Request& req : reqs) {
    const auto o = cmd::sta(req, a.staClock, a.staPaths);
    if (!o) return reportFailure(req.name, o.failure);
    ok = ok && o->lint.clean();
    if (a.jsonFormat)
      reports.push(cmd::staJsonValue("design", req.name, *o));
    else
      std::cout << cmd::staText(req.name, *o, a.quiet);
  }
  if (a.jsonFormat) std::cout << reports.dump();
  return ok ? 0 : 1;
}

/// `mphls [synth|profile] design.bdl`: synthesize, print the summary and
/// write/verify/sweep/record whatever the flags ask for.
int runSynth(const CliArgs& a, const cmd::Request& req) {
  if (a.jsonFormat && !a.profile) return emit(cmd::synthJson(req));
  const auto o = cmd::synth(req);
  if (!o) return reportFailure(req.name, o.failure);
  const SynthesisResult& result = *o;
  const RtlDesign& d = result.design;

  if (a.profile) return runProfile(a, result);
  if (!a.quiet) std::cout << cmd::synthText(a.opts, result);

  if (!a.dotOut.empty()) {
    std::ofstream out(a.dotOut);
    if (!out) return fail("cannot write " + a.dotOut);
    out << controlFlowDot(d.fn);
    for (const auto& blk : d.fn.blocks())
      if (!blk.ops.empty()) out << dataFlowDot(d.fn, blk.id);
    if (!a.quiet) std::cout << "wrote DOT to " << a.dotOut << "\n";
  }
  if (!a.verilogOut.empty()) {
    std::ofstream out(a.verilogOut);
    if (!out) return fail("cannot write " + a.verilogOut);
    out << emitVerilog(d);
    if (!a.quiet) std::cout << "wrote Verilog to " << a.verilogOut << "\n";
  }

  int failures = 0;
  if (!a.verifyRuns.empty()) {
    const RtlSimulator verifySim(d);
    for (const auto& inputs : a.verifyRuns) {
      std::string msg = verifyAgainstBehavior(result, inputs);
      auto res = verifySim.run(inputs);
      std::cout << "verify";
      for (const auto& [k, v] : inputs) std::cout << " " << k << "=" << v;
      if (msg.empty()) {
        std::cout << " -> OK (" << res.cycles << " cycles;";
        for (const auto& [k, v] : res.outputs)
          std::cout << " " << k << "=" << v;
        std::cout << ")\n";
      } else {
        std::cout << " -> " << msg << "\n";
        ++failures;
      }
    }
  }

  if (a.sweep > 0) {
    auto points = exploreResourceSweep(req.source, a.sweep, a.opts);
    std::cout << "sweep (list scheduling, 1.." << a.sweep << " FUs):\n";
    std::printf("  %-8s %8s %12s %12s %8s\n", "FUs", "latency", "cycle",
                "area", "pareto");
    for (const auto& p : points)
      std::printf("  %-8d %8d %12.2f %12.1f %8s\n", p.limit, p.latencySteps,
                  p.cycleTime, p.area, p.pareto ? "*" : "");
  }

  if (!a.vcdOut.empty())
    if (!recordSimulation(d, simInputs(a, d), a.vcdOut, a.quiet)) ++failures;
  return failures == 0 ? 0 : 1;
}

/// `mphls fuzz`: differential co-simulation campaigns and corpus replay.
int runFuzz(int argc, char** argv) {
  fuzz::CampaignOptions c;
  c.jobs = 0;  // hardware concurrency unless --jobs given
  std::string matrixName = "standard";
  std::string replayDir;
  std::string outFile;
  std::string traceOut, statsOut, logFile, logLevel;
  bool save = true;
  bool quiet = false;
  c.corpusDir = "fuzz-corpus";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&] { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;  // the flag's value, once taken
    if (arg == "--seeds" && (v = next())) {
      if (!parseInt(v, kCount, c.seeds)) return (usage(), 2);
    } else if (arg == "--seed-base" && (v = next())) {
      c.seedBase = std::strtoull(v, nullptr, 0);
    } else if (arg == "--jobs" && (v = next())) {
      if (!parseInt(v, kJobsRange, c.jobs)) return (usage(), 2);
    } else if (arg == "--matrix" && (v = next())) {
      matrixName = v;
    } else if (arg == "--trials" && (v = next())) {
      if (!parseInt(v, kCount, c.diff.trials)) return (usage(), 2);
    } else if (arg == "--reduce") {
      c.reduce = true;
    } else if (arg == "--corpus" && (v = next())) {
      c.corpusDir = v;
    } else if (arg == "--no-save") {
      save = false;
    } else if (arg == "--replay" && (v = next())) {
      replayDir = v;
    } else if (arg == "--inject" && (v = next())) {
      if (!parseInjectedBug(v, c.diff.inject))
        return (usage(), 2);
    } else if (arg == "--no-check") {
      c.diff.check = false;
    } else if (arg == "--out" && (v = next())) {
      outFile = v;
    } else if (arg == "--trace" && (v = next())) {
      traceOut = v;
    } else if (arg == "--stats" && (v = next())) {
      statsOut = v;
    } else if (arg == "--log-file" && (v = next())) {
      logFile = v;
    } else if (arg == "--log-level" && (v = next())) {
      logLevel = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!applyLogging(logFile, logLevel)) return 1;
  fuzz::FuzzMatrix matrix;
  if (!fuzz::FuzzMatrix::parse(matrixName, matrix)) return (usage(), 2);
  c.diff.points = matrix.points();
  if (!save) c.corpusDir.clear();
  enableTracing(traceOut);
  // The live progress line is cosmetic, so it only runs when a human is
  // plausibly watching: stderr is a terminal and --quiet was not given.
  c.heartbeat = !quiet && isatty(2) != 0;

  if (!replayDir.empty()) {
    auto r = fuzz::replayCorpus(replayDir, c.diff, c.jobs);
    if (r.entries == 0) return fail("no corpus entries under " + replayDir);
    for (const auto& o : r.outcomes) {
      if (o.verdict.ok()) {
        if (!quiet)
          std::cout << "replay " << o.name << ": ok (" << o.verdict.pointsRun
                    << " points)\n";
        continue;
      }
      std::cout << "replay " << o.name << ": FAIL\n";
      for (const auto& f : o.verdict.failures) {
        const std::string pl = f.pointLabel();
        std::cout << "  [" << f.kind << "]"
                  << (pl.empty() ? "" : " " + pl) << ": " << f.detail << "\n";
      }
    }
    std::cout << "fuzz replay: " << r.entries << " entries, " << r.failed
              << " failing (" << matrixName << " matrix)\n";
    if (writeObsOutputs(traceOut, statsOut, quiet) != 0) return 1;
    return r.clean() ? 0 : 1;
  }

  fuzz::CampaignResult r = fuzz::runCampaign(c);
  if (!quiet || !r.clean()) {
    std::cout << "fuzz: " << r.seeds << " seeds x " << r.pointsPerProgram
              << " matrix points (" << matrixName << "), "
              << r.pointsRun << " designs synthesized, " << r.simulations
              << " co-simulations in " << r.wallSeconds << "s ("
              << (r.wallSeconds > 0
                      ? (double)r.simulations / r.wallSeconds
                      : 0.0)
              << " cosims/s)\n";
    for (const auto& fc : r.failures) {
      const auto& first = fc.verdict.failures.front();
      const std::string pl = first.pointLabel();
      std::cout << "  seed " << fc.verdict.seed << ": [" << first.kind
                << "]" << (pl.empty() ? "" : " " + pl) << ": " << first.detail
                << "\n";
      if (!fc.corpusPath.empty())
        std::cout << "    saved " << fc.corpusPath << "\n";
      if (!fc.reducedPath.empty())
        std::cout << "    minimized (" << fc.reduceStats.finalStmts
                  << " stmts, " << fc.reduceStats.attempts
                  << " attempts) " << fc.reducedPath << "\n";
    }
    std::cout << "fuzz: " << r.failedPrograms << " failing programs ("
              << r.mismatches << " mismatches, " << r.checkFailures
              << " check findings, " << r.errors << " errors, "
              << r.staFailures << " sta failures)\n";
  }

  if (outFile.empty() && !r.clean() && !c.corpusDir.empty())
    outFile = c.corpusDir + "/FUZZ_report.json";
  if (!outFile.empty()) {
    std::ofstream out(outFile);
    if (!out) return fail("cannot write " + outFile);
    out << fuzz::campaignReport(c, r, matrixName).dump();
    if (!quiet) std::cout << "wrote " << outFile << "\n";
  }
  if (writeObsOutputs(traceOut, statsOut, quiet) != 0) return 1;
  return r.clean() ? 0 : 1;
}

/// The running daemon, for the signal handlers. requestStop() is
/// async-signal-safe (one write(2) down the self-pipe).
std::atomic<serve::Server*> g_serveServer{nullptr};

void serveSignalHandler(int) {
  if (serve::Server* s = g_serveServer.load()) s->requestStop();
}

/// `mphls serve`: run the synthesis daemon until SIGTERM/SIGINT.
int runServe(int argc, char** argv) {
  serve::ServerOptions so;
  so.port = 8080;
  // Same baseline option vector as the offline CLI (universalSet(2) FUs):
  // a daemon request with no "options" must produce the CLI's exact bytes.
  so.service.defaults.resources = ResourceLimits::universalSet(2);
  bool quiet = false;
  std::string logFile, logLevel;
  std::string flightDump = "mphls-flight.dump";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&] { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;  // the flag's value, once taken
    if (arg == "--port" && (v = next())) {
      if (!parseInt(v, {0, 65535}, so.port)) return (usage(), 2);
    } else if (arg == "--jobs" && (v = next())) {
      if (!parseInt(v, kJobsRange, so.jobs)) return (usage(), 2);
    } else if (arg == "--max-connections" && (v = next())) {
      if (!parseInt(v, kCount, so.maxConnections)) return (usage(), 2);
    } else if (arg == "--log-file" && (v = next())) {
      logFile = v;
    } else if (arg == "--log-level" && (v = next())) {
      logLevel = v;
    } else if (arg == "--flight-dump" && (v = next())) {
      flightDump = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage();
      return 2;
    }
  }
  // The daemon always records: the flight ring is cheap (a few MB, no
  // locks), and the whole point is having history when a crash arrives
  // unannounced. SIGQUIT dumps and keeps running; fatal signals dump and
  // re-raise.
  obs::FlightRecorder::installCrashHandlers(flightDump.c_str());
  if (!applyLogging(logFile, logLevel)) return 1;
  serve::Server server(so);
  std::string err;
  if (!server.start(err)) return fail("serve: " + err);
  g_serveServer.store(&server);
  std::signal(SIGTERM, serveSignalHandler);
  std::signal(SIGINT, serveSignalHandler);
  std::signal(SIGPIPE, SIG_IGN);
  // One flushed line with the resolved port: scripts bind port 0 and read
  // the real one from here.
  std::cout << "mphls serve: listening on 127.0.0.1:" << server.port()
            << " (jobs=" << resolveJobs(so.jobs) << ")" << std::endl;
  server.run();
  g_serveServer.store(nullptr);
  if (!quiet)
    std::cout << "mphls serve: drained " << server.sessionsOpened()
              << " session(s), exiting\n";
  return 0;
}

/// `mphls loadgen`: replay a deterministic request mix against a daemon.
int runLoadgenCmd(int argc, char** argv) {
  serve::LoadgenOptions lo;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&] { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;  // the flag's value, once taken
    if (arg == "--url" && (v = next())) {
      lo.url = v;
    } else if (arg == "--clients" && (v = next())) {
      if (!parseInt(v, kCount, lo.clients)) return (usage(), 2);
    } else if (arg == "--requests" && (v = next())) {
      if (!parseInt(v, kCount, lo.requests)) return (usage(), 2);
    } else if (arg == "--mix" && (v = next())) {
      lo.mix = v;
    } else if (arg == "--seed" && (v = next())) {
      lo.seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--out" && (v = next())) {
      lo.reportPath = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage();
      return 2;
    }
  }
  std::signal(SIGPIPE, SIG_IGN);
  const serve::LoadgenReport rep = serve::runLoadgen(lo);
  if (!rep.error.empty()) return fail("loadgen: " + rep.error);
  if (!quiet) {
    std::printf("loadgen: %d requests from %d client(s) in %.3fs"
                " (%.1f req/s)\n",
                rep.requestsSent, lo.clients, rep.wallSeconds,
                rep.requestsPerSecond);
    std::printf("  latency p50 %.2fms, p99 %.2fms; errors: %d transport,"
                " %d http, %d invalid-json\n",
                rep.p50Ms, rep.p99Ms, rep.transportErrors, rep.httpErrors,
                rep.invalidJson);
    std::printf("  frontend cache hit rate %.1f%%\n",
                100.0 * rep.cacheHitRate);
    if (!lo.reportPath.empty())
      std::printf("  wrote %s\n", lo.reportPath.c_str());
  }
  return rep.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "fuzz") return runFuzz(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "serve") return runServe(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "loadgen")
    return runLoadgenCmd(argc, argv);
  auto parsed = parseArgs(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  CliArgs& a = *parsed;
  enableTracing(a.traceOut);
  if (!applyLogging(a.logFile, a.logLevel)) return 1;
  if (a.profile && !a.flightIn.empty()) return runProfileFlight(a.flightIn);

  // Every command runs through the shared command layer (core/commands.h)
  // — the functions behind the daemon's endpoints — and renders its
  // outcome as text or, with --format json, exactly the daemon's bytes.
  std::vector<cmd::Request> reqs;
  if (a.builtins) {
    for (const auto& d : designs::all())
      reqs.push_back({d.name, d.source, "", a.opts});
  } else {
    std::ifstream in(a.file);
    if (!in) return fail("cannot open " + a.file);
    std::stringstream buf;
    buf << in.rdbuf();
    reqs.push_back({a.file, buf.str(), a.top, a.opts});
  }
  int rc = a.lint      ? runLint(a, reqs.front())
           : a.analyze ? runAnalyze(a, reqs)
           : a.prove   ? runProve(a, reqs)
           : a.sta     ? runSta(a, reqs)
                       : runSynth(a, reqs.front());
  if (writeObsOutputs(a.traceOut, a.statsOut, a.quiet) != 0) rc = 1;
  return rc;
}
