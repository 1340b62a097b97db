// Byte-identity net for the timing report and the netlist lint beyond the
// builtins: every distinct design of the standard fuzz matrix over 24
// generated programs and the checked-in regression corpus is synthesized,
// and two renderings per design are hashed (FNV-1a, 64 bit):
//
//   sta   staReportJson at K in {0, 5, all} x clock {estimated, tight}
//   lint  the CheckReport JSON of lintVerilog(emitVerilog(design))
//
// The expected lines live in tests/fixtures/sta_lint_digest.txt. A
// mismatch names the first design that differs and writes the whole
// actual listing to sta_lint_digest.actual in the working directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "check/lint_verilog.h"
#include "check/report.h"
#include "core/synthesizer.h"
#include "fuzz/bdl_gen.h"
#include "fuzz/corpus.h"
#include "fuzz/diff_runner.h"
#include "rtl/verilog.h"
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
  std::vector<std::pair<std::string, std::string>> sources;
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    sources.emplace_back("seed=" + std::to_string(seed),
                         fuzz::generateProgram(seed).render());
  for (const fuzz::CorpusEntry& e :
       fuzz::loadCorpus(std::string(MPHLS_FIXTURE_DIR) + "/fuzz"))
    sources.emplace_back("corpus=" + e.name, e.source);

  std::vector<std::string> actual;
  for (const auto& [tag, src] : sources)
    for (const fuzz::MatrixPoint& p : distinctPoints())
      actual.push_back(digestLine(tag, src, p));

  std::vector<std::string> expected;
  {
    std::ifstream in(std::string(MPHLS_FIXTURE_DIR) + "/sta_lint_digest.txt");
    ASSERT_TRUE(in.good()) << "missing fixture sta_lint_digest.txt";
    for (std::string l; std::getline(in, l);)
      if (!l.empty() && l[0] != '#') expected.push_back(l);
  }
  if (actual != expected) {
    std::ofstream out("sta_lint_digest.actual");
    for (const std::string& l : actual) out << l << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i)
    ASSERT_EQ(actual[i], expected[i]) << "first differing design, line " << i;
}

}  // namespace
}  // namespace mphls
