#include "check/report.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "obs/trace.h"

namespace mphls {

std::string_view checkSeverityName(CheckSeverity s) {
  switch (s) {
    case CheckSeverity::Note: return "note";
    case CheckSeverity::Warning: return "warning";
    case CheckSeverity::Error: return "error";
  }
  return "?";
}

std::string CheckDiag::str() const {
  std::ostringstream oss;
  oss << checkSeverityName(severity) << " [" << id << "]";
  if (!where.empty()) oss << " " << where;
  oss << ": " << message;
  return oss.str();
}

std::size_t CheckReport::errorCount() const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.severity == CheckSeverity::Error) ++n;
  return n;
}

std::size_t CheckReport::warningCount() const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.severity == CheckSeverity::Warning) ++n;
  return n;
}

bool CheckReport::has(std::string_view id) const {
  for (const auto& d : diags_)
    if (d.id == id) return true;
  return false;
}

std::string CheckReport::firstError() const {
  for (const auto& d : diags_)
    if (d.severity == CheckSeverity::Error) return d.str();
  return {};
}

std::vector<CheckDiag> CheckReport::sorted() const {
  std::vector<CheckDiag> out = diags_;
  std::stable_sort(out.begin(), out.end(),
                   [](const CheckDiag& a, const CheckDiag& b) {
                     // Errors first, then warnings, then notes.
                     if (a.severity != b.severity)
                       return (int)a.severity > (int)b.severity;
                     return std::tie(a.id, a.where, a.message) <
                            std::tie(b.id, b.where, b.message);
                   });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string CheckReport::render() const {
  std::ostringstream oss;
  for (const auto& d : sorted()) oss << d.str() << "\n";
  oss << errorCount() << " error(s), " << warningCount() << " warning(s)\n";
  return oss.str();
}

std::string CheckReport::renderJson() const {
  std::string out = "{\"diagnostics\":[";
  bool first = true;
  for (const auto& d : sorted()) {
    if (!first) out += ",";
    first = false;
    out += "{\"severity\":\"";
    out += checkSeverityName(d.severity);
    out += "\",\"code\":";
    obs::appendJsonString(out, d.id);
    out += ",\"where\":";
    obs::appendJsonString(out, d.where);
    out += ",\"message\":";
    obs::appendJsonString(out, d.message);
    out += "}";
  }
  out += "],\"errors\":" + std::to_string(errorCount()) +
         ",\"warnings\":" + std::to_string(warningCount()) +
         ",\"clean\":" + (clean() ? "true" : "false") + "}";
  return out;
}

}  // namespace mphls
