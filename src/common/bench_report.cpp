#include "common/bench_report.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace mphls {

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  for (auto& [k, v] : obj_)
    if (k == key) return v;
  obj_.emplace_back(key, JsonValue());
  return obj_.back().second;
}

JsonValue& JsonValue::push(JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  arr_.push_back(std::move(v));
  return arr_.back();
}

namespace {

void appendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int prec = 6; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    double back = 0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) {
      out += probe;
      return;
    }
  }
  out += buf;
}

}  // namespace

void JsonValue::dumpTo(std::string& out, int depth) const {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string padIn(static_cast<std::size_t>(depth + 1) * 2, ' ');
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: appendNumber(out, num_); break;
    case Kind::String: appendEscaped(out, str_); break;
    case Kind::Array:
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += padIn;
        arr_[i].dumpTo(out, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += '\n';
      }
      out += pad + "]";
      break;
    case Kind::Object:
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        out += padIn;
        appendEscaped(out, obj_[i].first);
        out += ": ";
        obj_[i].second.dumpTo(out, depth + 1);
        if (i + 1 < obj_.size()) out += ',';
        out += '\n';
      }
      out += pad + "}";
      break;
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dumpTo(out, 0);
  out += '\n';
  return out;
}

BenchReporter::BenchReporter(const std::string& benchmarkName) {
  root_ = JsonValue::object();
  root_["benchmark"] = benchmarkName;
}

bool BenchReporter::writeFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << json();
  return static_cast<bool>(out);
}

}  // namespace mphls
