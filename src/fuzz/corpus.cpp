#include "fuzz/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/options.h"

namespace mphls::fuzz {

namespace {

constexpr const char* kTag = "# mphls-fuzz ";

std::string oneLine(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

}  // namespace

std::string renderEntry(const CorpusEntry& entry,
                        const std::string& program) {
  std::ostringstream oss;
  oss << kTag << "seed: " << entry.seed << "\n";
  oss << kTag << "kind: " << oneLine(entry.kind) << "\n";
  if (!entry.point.empty())
    oss << kTag << "point: " << oneLine(entry.point) << "\n";
  if (!entry.note.empty())
    oss << kTag << "note: " << oneLine(entry.note) << "\n";
  oss << program;
  if (program.empty() || program.back() != '\n') oss << "\n";
  return oss.str();
}

CorpusEntry parseEntry(const std::string& text, const std::string& name) {
  CorpusEntry e;
  e.name = name;
  e.source = text;
  std::istringstream iss(text);
  std::string line;
  while (std::getline(iss, line)) {
    if (line.rfind(kTag, 0) != 0) continue;
    std::string rest = line.substr(std::string(kTag).size());
    auto colon = rest.find(':');
    if (colon == std::string::npos) continue;
    std::string key = rest.substr(0, colon);
    std::string val = rest.substr(colon + 1);
    if (!val.empty() && val[0] == ' ') val.erase(0, 1);
    if (key == "seed") {
      if (!parseU64(val, e.seed))
        e.corrupt = "seed tag '" + val + "' is not a 64-bit number";
    } else if (key == "kind") {
      e.kind = val;
    } else if (key == "point") {
      e.point = val;
    } else if (key == "note") {
      e.note = val;
    }
  }
  return e;
}

std::optional<std::string> saveEntry(const std::string& dir,
                                     const CorpusEntry& entry,
                                     const std::string& program) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return std::nullopt;
  const std::string path =
      (std::filesystem::path(dir) / (entry.name + ".bdl")).string();
  std::ofstream out(path);
  if (!out) return std::nullopt;
  out << renderEntry(entry, program);
  return out ? std::optional<std::string>(path) : std::nullopt;
}

std::vector<CorpusEntry> loadCorpus(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    if (!de.is_regular_file()) continue;
    if (de.path().extension() == ".bdl") files.push_back(de.path());
  }
  std::sort(files.begin(), files.end());

  std::vector<CorpusEntry> entries;
  for (const auto& f : files) {
    std::ifstream in(f);
    if (!in) continue;
    std::stringstream buf;
    buf << in.rdbuf();
    entries.push_back(parseEntry(buf.str(), f.stem().string()));
  }
  return entries;
}

}  // namespace mphls::fuzz
