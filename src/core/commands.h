// Shared command layer: every user-facing command (synth, lint, analyze,
// sta, prove, sim) is one compute function that returns an outcome
// struct, plus a JSON renderer and a text renderer of that outcome. The
// CLI's text output, the CLI's `--format json` and the serve daemon's POST
// endpoints all render the same outcome, so none of them can drift from
// the others; the CLI goldens (tests/fixtures/cli/), the daemon golden
// test (tests/test_serve.cpp) and the ci.sh serve smoke assert byte
// equality end to end.
//
// Every command compiles through the process-wide FrontendCache, so repeat
// traffic (a daemon serving the same source many times, a DSE sweep, the
// test battery) pays the frontend once per (source, top, opt) key.
//
// Reports are deterministic by construction: they carry no wall-clock
// times, no machine identity, and no iteration-order-dependent fields.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "check/report.h"
#include "common/bench_report.h"
#include "common/diag.h"
#include "core/inject.h"
#include "core/synthesizer.h"
#include "sta/sta.h"

namespace mphls::cmd {

/// One command invocation: the report key (`name` — the file path when the
/// CLI runs it, the client-supplied name under the daemon), the BDL source
/// to operate on, and the synthesis option vector.
struct Request {
  std::string name;
  std::string source;
  std::string top;
  SynthesisOptions opts;
};

/// A rendered command. `body` is the exact text the CLI prints on stdout
/// (trailing newline included) and the exact HTTP response body the
/// daemon returns. `ok` carries the CLI exit-0 semantics (lint findings,
/// failed proofs and negative slack make it false while the body is still
/// a well-formed report). `inputError` is set when the source itself was
/// rejected (parse/verify failure) — the daemon maps it to 422.
struct Result {
  std::string body;
  bool ok = true;
  bool inputError = false;
};

/// Why a command has no outcome: the frontend rejected the source
/// (`inputError`, with its diagnostics in `diags`) or the pipeline
/// failed. `message` is the text of the JSON error report.
struct Failure {
  std::string message;
  bool inputError = false;
  std::vector<Diagnostic> diags;
};

/// A command's outcome, or the failure that prevented it.
template <class T>
struct Outcome {
  std::optional<T> value;
  Failure failure;

  [[nodiscard]] explicit operator bool() const { return value.has_value(); }
  [[nodiscard]] const T& operator*() const { return *value; }
  [[nodiscard]] const T* operator->() const { return &*value; }
};

/// analyze: the analyzed function, its dataflow facts and the semantic
/// lint report over them.
struct AnalyzeOutcome {
  Function fn;
  AnalysisResult facts;
  CheckReport report;
};

/// sta: the timing analysis (`timing.paths` holds the requested K worst
/// paths) and the timing-closure lint of the same analysis.
struct StaOutcome {
  sta::StaResult timing;
  CheckReport lint;
};

/// prove: the equivalence report; `applicable` is false when the requested
/// injection found no site in the design.
struct ProveOutcome {
  CheckReport report;
  bool applicable = true;
};

// ----------------------------------------------------------- compute

/// Synthesize the design.
[[nodiscard]] Outcome<SynthesisResult> synth(const Request& req);

/// Synthesize with the timing check off, then run the full static
/// verification (checkDesign) on the finished design.
[[nodiscard]] Outcome<CheckReport> lint(const Request& req);

/// Abstract interpretation plus the semantic lints over the behavioral IR.
/// With `postPipeline` the configured pass pipeline runs first; the
/// narrowing pass runs when opts.narrow asks for it.
[[nodiscard]] Outcome<AnalyzeOutcome> analyze(const Request& req,
                                              bool postPipeline);

/// Path-level STA of the synthesized design at `clockNs` (<= 0: the
/// estimated clock) keeping the `maxPaths` (>= 0) worst paths, and the
/// timing lint of that same analysis.
[[nodiscard]] Outcome<StaOutcome> sta(const Request& req, double clockNs,
                                      int maxPaths);

/// Formal equivalence of the synthesized RTL against the behavior. With
/// `provePasses` each optimization pass application is also
/// translation-validated. `inject` plants a known miscompile first (the
/// gate's self-test; the proof is then expected to fail).
[[nodiscard]] Outcome<ProveOutcome> prove(const Request& req,
                                          bool provePasses,
                                          InjectedBug inject);

// ----------------------------------------------------- JSON renderers
// Each computes its command and renders the outcome (or the failure) as
// the body `mphls <command> --format json` prints for one file.

[[nodiscard]] Result synthJson(const Request& req);
[[nodiscard]] Result lintJson(const Request& req);
[[nodiscard]] Result analyzeJson(const Request& req, bool postPipeline);
[[nodiscard]] Result staJson(const Request& req, double clockNs,
                             int maxPaths);
/// A one-element array (the prove CLI convention), no injection.
[[nodiscard]] Result proveJson(const Request& req, bool provePasses);

/// Simulate the synthesized RTL on `inputs` (unset input ports default to
/// zero) and report outputs, cycle count and halt status.
[[nodiscard]] Result simJson(const Request& req,
                             const std::map<std::string, std::uint64_t>& inputs);

/// {"<key>":<name>, ...} splice of a CheckReport, shared by the lint,
/// analyze and prove renderers.
[[nodiscard]] std::string reportJson(const std::string& key,
                                     const std::string& name,
                                     const CheckReport& rep);

/// One sta report as a JsonValue: the StaResult plus the timing lint's
/// findings in the lint/prove diagnostics convention (sorted/deduped).
[[nodiscard]] JsonValue staJsonValue(const std::string& key,
                                     const std::string& name,
                                     const StaOutcome& o);

// ----------------------------------------------------- text renderers

/// The synthesis summary: shape, per-block schedules, datapath,
/// controller and estimates.
[[nodiscard]] std::string synthText(const SynthesisOptions& opts,
                                    const SynthesisResult& r);

/// "<name>: clean (0 findings)" or the rendered findings.
[[nodiscard]] std::string checkText(const std::string& name,
                                    const CheckReport& rep);

/// The per-value and per-variable facts (omitted when `quiet`) and the
/// semantic lint report.
[[nodiscard]] std::string analyzeText(const std::string& name,
                                      const AnalyzeOutcome& o, bool quiet);

/// Clock, slack and reachability summary, the worst paths (omitted when
/// `quiet`) and the timing lint's findings (when `quiet`, only if any is
/// an error).
[[nodiscard]] std::string staText(const std::string& name,
                                  const StaOutcome& o, bool quiet);

/// The verdict line and the proof findings (when `quiet`, only for an
/// unexpected verdict). `injecting`: a failed proof is the expected one.
[[nodiscard]] std::string proveText(const std::string& name,
                                    const ProveOutcome& o, bool injecting,
                                    bool quiet);

}  // namespace mphls::cmd
