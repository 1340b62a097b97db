#include "core/commands.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "check/check.h"
#include "check/check_semantics.h"
#include "check/check_timing.h"
#include "core/frontend_cache.h"
#include "core/options.h"
#include "ir/deps.h"
#include "lang/frontend.h"
#include "obs/trace.h"
#include "opt/pass.h"
#include "rtl/rtlsim.h"
#include "sched/schedule.h"
#include "sec/passes.h"
#include "sec/prove.h"

namespace mphls::cmd {

namespace {

/// Compile through the shared frontend cache and clone for backend use.
/// Applies the width-narrowing pass when asked — exactly what
/// Synthesizer::synthesize does after its pipeline stage. On a
/// parse/verify failure, fills `fail` and returns nullopt.
std::optional<Function> compileCached(const Request& req, OptLevel opt,
                                      bool narrow, Failure& fail) {
  std::shared_ptr<const Function> cached;
  try {
    cached = FrontendCache::global().get(req.source, req.top, opt);
  } catch (const InternalError& e) {
    fail.message = e.what();
    fail.inputError = true;
    // The cache's exception carries only the summary text; the text
    // renderer prints each diagnostic with its file prefix.
    DiagEngine diags;
    (void)compileBdl(req.source, diags, req.top);
    fail.diags = diags.all();
    return std::nullopt;
  }
  Function fn = cached->clone();
  if (narrow) {
    PassManager pm;
    pm.add(createNarrowWidthsPass());
    pm.run(fn);
  }
  return fn;
}

/// Compile and run the backend on the request's options. `check` arms
/// the timing check; lint and sta disarm it so their own report collects
/// every timing finding instead of dying mid-pipeline. A pipeline
/// failure's message starts with `prefix`.
std::optional<SynthesisResult> synthesize(const Request& req, bool check,
                                          const char* prefix, Failure& fail) {
  WallTimer frontend;
  auto fn = compileCached(req, req.opts.opt, req.opts.narrow, fail);
  if (!fn) return std::nullopt;
  const double frontendSeconds = frontend.seconds();
  SynthesisOptions so = req.opts;
  so.check = check;
  so.opt = OptLevel::None;  // pipeline already applied by the cache
  so.narrow = false;
  try {
    SynthesisResult r = Synthesizer(so).synthesizeOptimized(*fn);
    // The optimize stage ran inside the cache (on a miss).
    r.stages.optimize = frontendSeconds;
    return r;
  } catch (const InternalError& e) {
    fail.message = std::string(prefix) + e.what();
    return std::nullopt;
  }
}

Result errorResult(const std::string& name, const std::string& message,
                   bool inputError) {
  std::string body = "{\"file\":";
  obs::appendJsonString(body, name);
  body += ",\"error\":";
  obs::appendJsonString(body, message);
  body += "}\n";
  return {std::move(body), false, inputError};
}

Result failureJson(const std::string& name, const Failure& f) {
  return errorResult(name, f.message, f.inputError);
}

std::string format(const char* fmt, auto... args) {
  std::string out((std::size_t)std::snprintf(nullptr, 0, fmt, args...), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

}  // namespace

// ------------------------------------------------------------ compute

Outcome<SynthesisResult> synth(const Request& req) {
  Outcome<SynthesisResult> out;
  out.value = synthesize(req, req.opts.check, "", out.failure);
  return out;
}

Outcome<CheckReport> lint(const Request& req) {
  Outcome<CheckReport> out;
  const auto r = synthesize(req, false, "synthesis failed before checking: ",
                            out.failure);
  if (!r) return out;
  CheckOptions copts;
  copts.latencies = req.opts.latencies;
  copts.structure = false;  // synthesize() ran them at its stage exits
  out.value = checkDesign(r->design, copts);
  return out;
}

Outcome<AnalyzeOutcome> analyze(const Request& req, bool postPipeline) {
  Outcome<AnalyzeOutcome> out;
  auto fn = compileCached(req, postPipeline ? req.opts.opt : OptLevel::None,
                          req.opts.narrow, out.failure);
  if (!fn) return out;
  AnalysisResult facts = analyzeFunction(*fn);
  CheckReport report;
  checkSemantics(*fn, facts, report);
  out.value = AnalyzeOutcome{std::move(*fn), std::move(facts),
                             std::move(report)};
  return out;
}

Outcome<StaOutcome> sta(const Request& req, double clockNs, int maxPaths) {
  Outcome<StaOutcome> out;
  const auto r = synthesize(
      req, false, "synthesis failed before timing analysis: ", out.failure);
  if (!r) return out;
  // One analysis serves the report and the lint: keep at least the one
  // path the lint reads, then trim to the paths the report asked for.
  const int kept = std::max(maxPaths, 1);
  sta::StaOptions sopt;
  sopt.clockNs = clockNs;
  sopt.maxPaths = kept;
  StaOutcome o{sta::runSta(r->design, sopt), {}};
  TimingLintOptions topt;
  topt.clockNs = clockNs;
  topt.maxReported = kept;
  checkTiming(r->design, o.timing, topt, o.lint);
  if (o.timing.paths.size() > (std::size_t)maxPaths)
    o.timing.paths.resize((std::size_t)maxPaths);
  out.value = std::move(o);
  return out;
}

Outcome<ProveOutcome> prove(const Request& req, bool provePasses,
                            InjectedBug inject) {
  Outcome<ProveOutcome> out;
  auto fn = compileCached(req, OptLevel::None, false, out.failure);
  if (!fn) return out;
  ProveOutcome o;
  auto runPipe = [&](PassManager& pm) {
    if (provePasses)
      sec::runPipelineValidated(pm, *fn, o.report);
    else
      pm.run(*fn);
  };
  if (req.opts.opt != OptLevel::None) {
    auto pm = optPipeline(req.opts.opt);
    runPipe(pm);
  }
  if (req.opts.narrow) {
    PassManager pm;
    pm.add(createNarrowWidthsPass());
    runPipe(pm);
  }

  if (inject == InjectedBug::MulToAdd) {
    // MulToAdd corrupts the IR before the backend, so the whole design —
    // controller included — is consistently wrong; it can only be caught
    // by proving the mutated function against the trusted one.
    Function mutated = fn->clone();
    if (injectMulToAdd(mutated) == 0) {
      o.applicable = false;
      o.report.note("sec.inject.inapplicable", fn->name(),
                    "design has no multiply to inject into");
    } else {
      sec::proveFunctionEquivalence(*fn, mutated, "inject:mul-to-add",
                                    o.report);
    }
    out.value = std::move(o);
    return out;
  }

  SynthesisOptions so = req.opts;
  so.prove = false;  // the proof runs below, reporting instead of throwing
  so.narrow = false;
  so.opt = OptLevel::None;  // pipeline already applied above
  try {
    SynthesisResult r = Synthesizer(so).synthesizeOptimized(*fn);
    if (inject == InjectedBug::ScheduleShift)
      o.applicable = injectScheduleShift(r.design, req.opts.latencies) != 0;
    if (inject == InjectedBug::SwappedBinding)
      o.applicable = injectSwappedBinding(r.design, req.opts.latencies) != 0;
    if (o.applicable)
      o.report.merge(sec::proveEquivalence(r.design));
    else
      o.report.note("sec.inject.inapplicable", fn->name(),
                    "no eligible mutation site in this design");
  } catch (const InternalError& e) {
    out.failure.message = e.what();
    return out;
  }
  out.value = std::move(o);
  return out;
}

// ----------------------------------------------------- JSON renderers

std::string reportJson(const std::string& key, const std::string& name,
                       const CheckReport& rep) {
  std::string out = "{\"" + key + "\":";
  obs::appendJsonString(out, name);
  out += ",";
  // Splice the report object's fields in after the name.
  out += rep.renderJson().substr(1);
  return out;
}

Result synthJson(const Request& req) {
  const auto o = synth(req);
  if (!o) return failureJson(req.name, o.failure);
  const SynthesisResult& r = *o;
  const RtlDesign& d = r.design;

  JsonValue j = JsonValue::object();
  j["file"] = req.name;
  j["design"] = d.fn.name();
  j["scheduler"] = std::string(schedulerName(req.opts.scheduler));
  j["encoding"] = std::string(stateEncodingName(req.opts.encoding));
  j["ops"] = d.fn.numLiveOps();
  j["blocks"] = d.fn.numBlocks();
  j["static_latency"] = r.staticLatency();
  j["registers"] = d.regs.numRegs;
  JsonValue fus = JsonValue::array();
  for (int f = 0; f < d.binding.numFus(); ++f)
    fus.push(d.lib.component(d.binding.fus[(std::size_t)f].comp).name);
  j["fus"] = std::move(fus);
  j["muxes"] = d.ic.mux2to1Count;
  j["states"] = d.ctrl.numStates();
  j["pla_terms"] = r.fsm.minimizedLogic.termCount();
  j["microcode_word_encoded"] = r.microEncoded.wordWidth;
  j["microcode_word_horizontal"] = r.microHorizontal.wordWidth;
  j["area"] = r.area.total();
  j["cycle_time"] = r.timing.cycleTime;
  return {j.dump(), true, false};
}

Result lintJson(const Request& req) {
  const auto o = lint(req);
  if (!o) return failureJson(req.name, o.failure);
  return {reportJson("file", req.name, *o) + "\n", o->clean(), false};
}

Result analyzeJson(const Request& req, bool postPipeline) {
  const auto o = analyze(req, postPipeline);
  if (!o) return failureJson(req.name, o.failure);
  return {reportJson("file", req.name, o->report) + "\n", o->report.clean(),
          false};
}

JsonValue staJsonValue(const std::string& key, const std::string& name,
                       const StaOutcome& o) {
  JsonValue j = sta::staReportJson(key, name, o.timing);
  JsonValue diags = JsonValue::array();
  for (const CheckDiag& dg : o.lint.sorted()) {
    JsonValue d = JsonValue::object();
    d["severity"] = std::string(checkSeverityName(dg.severity));
    d["code"] = dg.id;
    d["where"] = dg.where;
    d["message"] = dg.message;
    diags.push(std::move(d));
  }
  j["diagnostics"] = std::move(diags);
  j["errors"] = o.lint.errorCount();
  j["warnings"] = o.lint.warningCount();
  j["clean"] = o.lint.clean();
  return j;
}

Result staJson(const Request& req, double clockNs, int maxPaths) {
  const auto o = sta(req, clockNs, maxPaths);
  if (!o) return failureJson(req.name, o.failure);
  return {staJsonValue("file", req.name, *o).dump(), o->lint.clean(), false};
}

Result proveJson(const Request& req, bool provePasses) {
  const auto o = prove(req, provePasses, InjectedBug::None);
  if (!o) return failureJson(req.name, o.failure);
  // One-element array: the prove CLI prints an array even for one file.
  // Sequential append: GCC 12 -Wrestrict -O3 false positive on the
  // temporary chain (same story as obs/vcd.cpp).
  std::string body = "[";
  body += reportJson("file", req.name, o->report);
  body += "]\n";
  return {std::move(body), o->report.clean(), false};
}

Result simJson(const Request& req,
               const std::map<std::string, std::uint64_t>& inputs) {
  const auto o = synth(req);
  if (!o) return failureJson(req.name, o.failure);
  const RtlDesign& d = o->design;
  std::map<std::string, std::uint64_t> in = inputs;
  for (const auto& p : d.fn.ports())
    if (p.isInput && in.find(p.name) == in.end()) in[p.name] = 0;

  RtlExecResult res;
  try {
    obs::TraceSpan span("sim.rtl", [&] { return d.fn.name(); });
    res = RtlSimulator(d).run(in);
  } catch (const std::exception& e) {
    return errorResult(req.name, e.what(), false);
  }
  JsonValue j = JsonValue::object();
  j["file"] = req.name;
  j["design"] = d.fn.name();
  JsonValue jin = JsonValue::object();
  for (const auto& [k, v] : in) jin[k] = (double)v;
  j["inputs"] = std::move(jin);
  JsonValue jout = JsonValue::object();
  for (const auto& [k, v] : res.outputs) jout[k] = (double)v;
  j["outputs"] = std::move(jout);
  j["cycles"] = (long)res.cycles;
  j["finished"] = res.finished;
  return {j.dump(), res.finished, false};
}

// ----------------------------------------------------- text renderers

std::string synthText(const SynthesisOptions& opts, const SynthesisResult& r) {
  const RtlDesign& d = r.design;
  std::ostringstream os;
  os << "design '" << d.fn.name() << "': " << d.fn.numLiveOps() << " ops in "
     << d.fn.numBlocks() << " blocks after optimization\n";
  os << "scheduler: " << schedulerName(opts.scheduler) << "; static latency "
     << r.staticLatency() << " control steps\n";
  for (const auto& blk : d.fn.blocks()) {
    if (blk.ops.empty()) continue;
    BlockDeps deps(d.fn, blk);
    os << "  " << blk.name << " (" << d.sched.of(blk.id).numSteps
       << " steps)\n"
       << renderBlockSchedule(deps, d.sched.of(blk.id));
  }
  os << "datapath: " << d.regs.numRegs << " registers, "
     << d.binding.numFus() << " functional units (";
  for (int f = 0; f < d.binding.numFus(); ++f)
    os << (f ? ", " : "")
       << d.lib.component(d.binding.fus[(std::size_t)f].comp).name;
  os << "), " << d.ic.mux2to1Count << " 2:1 muxes\n";
  os << "controller: " << d.ctrl.numStates() << " states ("
     << stateEncodingName(opts.encoding) << ", "
     << r.fsm.minimizedLogic.termCount() << " PLA terms); microcode "
     << r.microEncoded.wordWidth << "b/word encoded vs "
     << r.microHorizontal.wordWidth << "b horizontal\n";
  os << "estimates: area " << r.area.total() << ", cycle time "
     << r.timing.cycleTime << "\n";
  return os.str();
}

std::string checkText(const std::string& name, const CheckReport& rep) {
  return rep.empty() ? name + ": clean (0 findings)\n" : rep.render();
}

std::string analyzeText(const std::string& name, const AnalyzeOutcome& o,
                        bool quiet) {
  std::ostringstream os;
  if (!quiet) {
    const Function& fn = o.fn;
    os << "analysis of '" << fn.name() << "' (" << o.facts.iterations
       << " block visits):\n";
    for (const Block& blk : fn.blocks()) {
      os << "  block " << blk.name;
      if (!o.facts.blockReachable[blk.id.index()]) os << " (unreachable)";
      os << ":\n";
      for (OpId oid : blk.ops) {
        const Op& op = fn.op(oid);
        if (!op.result.valid()) continue;
        os << "    v" << op.result.get() << " = " << opName(op.kind) << " [w"
           << fn.value(op.result).width
           << "]: " << o.facts.fact(op.result).str() << "\n";
      }
    }
    for (const Variable& vr : fn.vars())
      os << "  var " << vr.name << " [w" << vr.width
         << "]: " << o.facts.varFacts[vr.id.index()].str() << "\n";
  }
  os << checkText(name, o.report);
  return os.str();
}

std::string staText(const std::string& name, const StaOutcome& o,
                    bool quiet) {
  const sta::StaResult& r = o.timing;
  std::string out = format(
      "%s: clock %.3f%s, cycle time %.3f, worst slack %+.3f,"
      " critical state %d\n",
      name.c_str(), r.clockNs, r.clockWasEstimated ? " (estimated)" : "",
      r.cycleTime, r.worstSlack, r.criticalState);
  out += format(
      "  %zu/%zu state(s) reachable, %zu endpoint(s); structural"
      " cycle time %.3f, %zu false-path endpoint(s) pruned\n",
      r.reachableStates, r.totalStates, r.endpointCount,
      r.structuralCycleTime, r.falsePathEndpoints);
  if (!quiet)
    for (const sta::TimingPath& p : r.paths) out += "  " + p.describe() + "\n";
  if (!o.lint.empty() && (!quiet || !o.lint.clean())) out += o.lint.render();
  return out;
}

std::string proveText(const std::string& name, const ProveOutcome& o,
                      bool injecting, bool quiet) {
  const bool clean = o.report.clean();
  std::string verdict;
  if (!o.applicable)
    verdict = "injection not applicable (skipped)";
  else if (injecting)
    verdict = clean ? "injected bug NOT caught"
                    : "injected bug caught (proof failed as it should)";
  else
    verdict = clean ? "proved equivalent" : "NOT proved";
  std::string out = name;
  out += ": ";
  out += verdict;
  out += "\n";
  const bool bad = injecting ? (o.applicable && clean) : !clean;
  if ((!quiet || bad) && !o.report.empty()) out += o.report.render();
  return out;
}

}  // namespace mphls::cmd
