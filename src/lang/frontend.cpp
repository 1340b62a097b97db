#include "lang/frontend.h"

#include "lang/lexer.h"
#include "lang/lower.h"
#include "lang/parser.h"
#include "obs/trace.h"

namespace mphls {

std::optional<Function> compileBdl(const std::string& source,
                                   DiagEngine& diags,
                                   const std::string& top) {
  std::vector<Token> tokens;
  {
    obs::TraceSpan span("lang.lex", [&] {
      return "bytes=" + std::to_string(source.size());
    });
    tokens = Lexer(source, diags).tokenize();
  }
  if (!diags.ok()) return std::nullopt;

  ast::Design design;
  {
    obs::TraceSpan span("lang.parse");
    design = Parser(std::move(tokens), diags).parseDesign();
  }
  if (!diags.ok()) return std::nullopt;
  if (design.procs.empty()) {
    diags.error({}, "no procedures in design");
    return std::nullopt;
  }

  std::string topName = top.empty() ? design.procs.back().name : top;
  // The lang.lower span's size (the ops lowered) is known only once it
  // ends, so its begin and end events are recorded then, at the clock
  // reads taken around the lowering. Lowering opens no spans of its own.
  obs::Tracer& tracer = obs::Tracer::global();
  const bool traced = tracer.enabled();
  const double start = traced ? tracer.nowMicros() : 0;
  std::optional<Function> fn = lowerDesign(design, topName, diags);
  if (traced) {
    const double end = tracer.nowMicros();
    tracer.beginSpanAt("lang.lower", start,
                       "ops=" + std::to_string(fn ? fn->numOps() : 0));
    tracer.endSpanAt("lang.lower", end);
  }
  return fn;
}

Function compileBdlOrThrow(const std::string& source, const std::string& top) {
  DiagEngine diags;
  auto fn = compileBdl(source, diags, top);
  MPHLS_CHECK(fn.has_value(), "BDL compilation failed:\n" << diags.summary());
  return std::move(*fn);
}

}  // namespace mphls
