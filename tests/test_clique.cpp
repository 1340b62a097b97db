// Clique partitioning against its oracle: the bitset Tseng–Siewiorek
// greedy (src/alloc/clique.cpp) must return exactly the cover of the
// original O(n^4) loop (tests/clique_reference.cpp) on seeded random and
// interval graphs, and clique-allocated designs must emit byte-identical
// Verilog to the goldens under tests/fixtures/clique/.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/clique.h"
#include "clique_reference.h"
#include "common/interval.h"
#include "core/designs.h"
#include "core/synthesizer.h"
#include "fuzz/bdl_gen.h"
#include "rtl/verilog.h"

namespace mphls {
namespace {

void expectSameCover(const CompatGraph& g, const std::string& what) {
  const CliqueCover fast = cliquePartition(g);
  const CliqueCover ref = cliquePartitionReference(g);
  EXPECT_EQ(fast.count, ref.count) << what;
  EXPECT_EQ(fast.group, ref.group) << what;
}

/// Random graph: each pair compatible with probability permille / 1000.
CompatGraph randomGraph(std::size_t n, std::size_t permille, fuzz::Rng& rng) {
  CompatGraph g(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.below(1000) < permille) g.addEdge(i, j);
  return g;
}

TEST(CliqueOracle, RandomGraphsMatchReference) {
  // Every size up to 40 (several graphs each, where ties are common), then
  // sizes on both sides of the 64- and 128-bit row-word boundaries. The
  // oracle is O(n^4), which bounds how many large graphs are affordable.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  for (std::size_t n : {48, 56, 63, 64, 65, 72, 80, 96, 112, 127, 128, 129,
                        130})
    sizes.push_back(n);
  fuzz::Rng rng(0xC11C);
  for (std::size_t n : sizes) {
    const int graphs = n <= 40 ? 8 : 1;
    for (std::size_t permille : {0, 100, 500, 900, 1000})
      for (int k = 0; k < graphs; ++k)
        expectSameCover(randomGraph(n, permille, rng),
                        "n=" + std::to_string(n) +
                            " density=" + std::to_string(permille) +
                            " graph=" + std::to_string(k));
  }
}

TEST(CliqueOracle, EmptyAndCompleteGraphs) {
  for (std::size_t n : {0, 1, 2, 63, 64, 65, 127, 128, 129}) {
    CompatGraph empty(n);
    const CliqueCover e = cliquePartition(empty);
    EXPECT_EQ(e.count, n);
    expectSameCover(empty, "empty n=" + std::to_string(n));

    CompatGraph complete(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) complete.addEdge(i, j);
    EXPECT_EQ(cliquePartition(complete).count, n == 0 ? 0u : 1u);
    expectSameCover(complete, "complete n=" + std::to_string(n));
  }
}

TEST(CliqueOracle, LifetimeIntervalGraphsMatchReference) {
  // Register allocation's compatibility graph: values are compatible when
  // their half-open lifetimes do not overlap. Some lifetimes are empty.
  fuzz::Rng rng(1988);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.below(130);
    const int span = 4 + (int)rng.below(60);
    std::vector<LiveInterval> live(n);
    for (auto& li : live) {
      li.birth = (int)rng.below((std::size_t)span);
      li.death = rng.chance(10) ? li.birth
                                : li.birth + 1 + (int)rng.below(12);
    }
    CompatGraph g(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (!live[i].overlaps(live[j])) g.addEdge(i, j);
    expectSameCover(g, "interval trial " + std::to_string(trial));
  }
}

TEST(CliqueOracle, EdgeCountCountsEachEdgeOnce) {
  CompatGraph g(130);
  g.addEdge(0, 129);
  g.addEdge(129, 0);
  g.addEdge(63, 64);
  g.addEdge(5, 5);  // self-loops are ignored
  EXPECT_EQ(g.edgeCount(), 2u);
  EXPECT_TRUE(g.compatible(129, 0));
  EXPECT_FALSE(g.compatible(5, 5));
}

// ------------------------------------------------------- Verilog goldens

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// What `mphls synth --fu-alloc clique --reg-alloc clique --verilog F`
/// writes for `source`.
std::string cliqueVerilog(const std::string& source) {
  SynthesisOptions o;
  o.resources = ResourceLimits::universalSet(2);
  o.fuMethod = FuAllocMethod::Clique;
  o.regMethod = RegAllocMethod::Clique;
  Synthesizer synth(o);
  return emitVerilog(synth.synthesizeSource(source).design);
}

const std::string kGoldenDir = std::string(MPHLS_FIXTURE_DIR) + "/clique/";

TEST(CliqueGolden, BuiltinsMatchGoldenVerilog) {
  for (const auto& d : designs::all())
    EXPECT_EQ(cliqueVerilog(d.source),
              readFile(kGoldenDir + d.name + ".v"))
        << d.name;
}

TEST(CliqueGolden, FuzzFixturesMatchGoldenVerilog) {
  for (const char* name :
       {"deep-nesting", "dep-cycle-self-xor", "dep-cycle-wiring-chain",
        "div-corners", "extreme-widths", "freedom-stretch",
        "narrow-eq-refine", "self-store-then-overwrite", "zero-trip"}) {
    const std::string src = readFile(std::string(MPHLS_FIXTURE_DIR) +
                                     "/fuzz/" + name + ".bdl");
    EXPECT_EQ(cliqueVerilog(src), readFile(kGoldenDir + name + ".v"))
        << name;
  }
}

TEST(CliqueGolden, Chain400MatchesGoldenVerilog) {
  // The 400-op scaling-guard design (the O(n^4) loop needs tens of
  // seconds for it).
  EXPECT_EQ(cliqueVerilog(readFile(kGoldenDir + "chain400.bdl")),
            readFile(kGoldenDir + "chain400.v"));
}

}  // namespace
}  // namespace mphls
