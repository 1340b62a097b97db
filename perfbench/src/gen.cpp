#include "gen.h"

#include <algorithm>
#include <cmath>

#include "fuzz/bdl_gen.h"
#include "oracle.h"

namespace perfbench {

namespace {

using mphls::fuzz::Rng;

constexpr int kInputs = 8;

std::string var(const char* prefix, int i) {
  return prefix + std::to_string(i);
}

/// Binary operator with the chain/loop weights: + 30, - 20, * 15, & 10,
/// | 10, ^ 15 (percent).
const char* pickOp(Rng& rng) {
  const std::size_t r = rng.below(100);
  if (r < 30) return "+";
  if (r < 50) return "-";
  if (r < 65) return "*";
  if (r < 75) return "&";
  if (r < 85) return "|";
  return "^";
}

/// Odd 8-bit constant (never 0 or 1, never a power of two), so no operand
/// folds away and no multiply degenerates into a shift.
std::string pickConst(Rng& rng) {
  return std::to_string(3 + 2 * rng.below(126));
}

std::string header(const std::string& name, int inputs, int outputs) {
  std::string s = "proc " + name + "(";
  for (int i = 0; i < inputs; ++i) s += "in " + var("i", i) + ": uint<16>, ";
  for (int o = 0; o < outputs; ++o) {
    if (o > 0) s += ", ";
    s += "out " + var("o", o) + ": uint<16>";
  }
  return s + ") {\n";
}

std::string declare(const char* prefix, int n, const char* type) {
  std::string s;
  for (int i = 0; i < n; ++i)
    s += "  var " + var(prefix, i) + ": " + type + ";\n";
  return s;
}

/// `n` chained assignments t0..t{n-1}: t0 = first OP second, each later
/// t_k = t_{k-1} OP (a recent t, one of `pool`, or a constant).
std::string chainBody(Rng& rng, int n, const std::string& first,
                      const std::string& second,
                      const std::vector<std::string>& pool,
                      const std::string& indent) {
  std::string s = indent + "t0 = " + first + " + " + second + ";\n";
  for (int k = 1; k < n; ++k) {
    std::string y;
    const std::size_t r = rng.below(100);
    if (r < 60 && k >= 2) {
      const int lo = std::max(0, k - 12);
      y = var("t", lo + (int)rng.below((std::size_t)(k - 1 - lo)));
    } else if (r < 85) {
      y = pool[rng.below(pool.size())];
    } else {
      y = pickConst(rng);
    }
    s += indent + var("t", k) + " = " + var("t", k - 1) + " " + pickOp(rng) +
         " " + y + ";\n";
  }
  return s;
}

std::vector<std::string> inputNames() {
  std::vector<std::string> v;
  for (int i = 0; i < kInputs; ++i) v.push_back(var("i", i));
  return v;
}

Design chain(const std::string& name, int n, Rng& rng) {
  Design d;
  d.inputs = inputNames();
  std::string s = header(name, kInputs, 2);
  s += declare("t", n, "uint<16>");
  s += chainBody(rng, n, "i0", "i1", d.inputs, "  ");
  s += "  o0 = " + var("t", n - 1) + ";\n";
  s += "  o1 = " + var("t", n / 2) + ";\n";
  d.source = s + "}\n";
  return d;
}

Design tree(const std::string& name, int n, Rng& rng) {
  Design d;
  d.inputs = inputNames();
  const int leaves = std::max(2, (n + 1) / 2);
  std::string s;  // body; declarations are prepended once `next` is known
  static const char* kLeafOps[] = {"+", "^", "*", "-"};
  for (int k = 0; k < leaves; ++k)
    s += "  " + var("v", k) + " = " + var("i", (int)rng.below(kInputs)) +
         " " + kLeafOps[rng.below(4)] + " " + pickConst(rng) + ";\n";
  // Pairwise reduction, level by level: nodes [lo, hi) combine into hi...
  int lo = 0, hi = leaves, next = leaves;
  while (hi - lo > 1) {
    for (int k = lo; k + 1 < hi; k += 2)
      s += "  " + var("v", next++) + " = " + var("v", k) + " " +
           pickOp(rng) + " " + var("v", k + 1) + ";\n";
    if ((hi - lo) % 2 == 1)  // odd node out joins the next level
      s += "  " + var("v", next++) + " = " + var("v", hi - 1) + " + " +
           pickConst(rng) + ";\n";
    lo = hi;
    hi = next;
  }
  s += "  o0 = " + var("v", next - 1) + ";\n";
  s += "  o1 = " + var("v", leaves + leaves / 2) + ";\n";
  d.source = header(name, kInputs, 2) + declare("v", next, "uint<16>") + s +
             "}\n";
  return d;
}

Design loop(const std::string& name, int n, Rng& rng) {
  constexpr int kState = 6;
  Design d;
  d.inputs = inputNames();
  const int body = std::max(kState + 2, n - 2 * kState);
  std::string s = header(name, kInputs, 2);
  s += declare("s", kState, "uint<16>");
  s += declare("t", body, "uint<16>");
  s += "  var k: uint<4>;\n";
  std::vector<std::string> pool;
  for (int j = 0; j < kState; ++j) {
    s += "  " + var("s", j) + " = " + var("i", j) + ";\n";
    pool.push_back(var("s", j));
  }
  pool.push_back("i6");
  pool.push_back("i7");
  s += "  k = 0;\n  do {\n";
  s += chainBody(rng, body, "s0", "s1", pool, "    ");
  for (int j = 0; j < kState; ++j)
    s += "    " + var("s", j) + " = " + var("t", body - 1 - j) + ";\n";
  s += "    k = k + 1;\n  } until (k == 3);\n";
  s += "  o0 = s0 ^ s1;\n  o1 = s2 + s3;\n";
  d.source = s + "}\n";
  return d;
}

Design genOnce(const std::string& name, int n, std::uint64_t seed) {
  mphls::fuzz::GenOptions o;
  // Nested statements make each top-level statement worth ~20 operations
  // after optimization; loops stay short so co-simulation is cheap.
  o.minStmts = std::max(2, n / 25);
  o.maxStmts = std::max(3, n / 20);
  o.maxExprDepth = 3;
  o.minVars = 4;
  o.maxVars = 8;
  o.minInputs = 4;
  o.maxInputs = 6;
  o.maxTrip = 3;
  mphls::fuzz::GenProgram p = mphls::fuzz::generateProgram(seed, o);
  p.procName = name;
  Design d;
  d.source = p.render();
  d.inputs = p.inputNames();
  return d;
}

/// The random generator's size spreads widely, so draw up to eight
/// programs and keep the one whose optimized size is nearest `n`.
Design gen(const std::string& name, int n, std::uint64_t seed) {
  Design best;
  double bestErr = 1e9;
  for (std::uint64_t k = 0; k < 8 && bestErr > 0.15; ++k) {
    Design d = genOnce(name, n, mixSeed(seed, k));
    const double err =
        std::abs((double)opsAfterOpt(d.source) - (double)n) / (double)n;
    if (err < bestErr) {
      bestErr = err;
      best = std::move(d);
    }
  }
  return best;
}

const char* templateName(Template t) {
  switch (t) {
    case Template::Chain: return "chain";
    case Template::Tree: return "tree";
    case Template::Loop: return "loop";
    case Template::Gen: return "gen";
  }
  return "?";
}

}  // namespace

std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0x9E3779B97F4A7C15ull));
  return r.next();
}

Design makeDesign(Template t, int nominalOps, std::uint64_t seed) {
  const std::string name = std::string(templateName(t)) + "_" +
                           std::to_string(nominalOps) + "_" +
                           std::to_string(seed % 1000000007ull);
  Rng rng(seed);
  Design d;
  switch (t) {
    case Template::Chain: d = chain(name, nominalOps, rng); break;
    case Template::Tree: d = tree(name, nominalOps, rng); break;
    case Template::Loop: d = loop(name, nominalOps, rng); break;
    case Template::Gen: d = gen(name, nominalOps, seed); break;
  }
  d.name = name;
  d.nominalOps = nominalOps;
  return d;
}

std::map<std::string, std::uint64_t> stimulus(const Design& d,
                                              std::uint64_t seed, int trial) {
  // Ports are at most 32 bits wide; keeping values below 2^32 also keeps
  // them exact through a JSON request body.
  auto in = mphls::fuzz::randomInputs(d.inputs, seed, trial);
  for (auto& [name, v] : in) v &= 0xFFFFFFFFull;
  return in;
}

}  // namespace perfbench
