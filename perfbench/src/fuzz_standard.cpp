// fuzz_standard: the team's verification throughput.
//
// One caller in a closed loop runs fuzz::runCampaign with jobs = nproc, as
// `mphls fuzz --jobs N` does, over batches of 2 x nproc consecutive seeds,
// so the campaign's own ThreadPool and parallelFor schedule the seeds. A
// unit of work is one batch, one campaign call: latencies are per batch,
// throughput is the median batch's seeds per second. Programs are the generator's default small ones;
// every seed runs the standard 24-point matrix with its checkers and
// co-simulation oracle. Batches come from a 64-batch plan spread evenly
// over program size, taken in order (wrapping) until --seconds have passed;
// its 512 programs are more than a run reaches and far more than the
// 64-entry frontend cache holds.
//
// The traced run measures the plan's first eight batches through
// runCampaign, then replays their seeds on nproc benchmark threads through
// the two calls a campaign makes per seed, generateProgram and runSource:
// once untraced, for the per-seed time pool.busy_frac sets against the
// campaign's wall time and capacity, and once inside spans, reading the
// program's published MetricsRegistry for the shares and per-point run
// counts.
#include <algorithm>
#include <atomic>
#include <thread>

#include "calibrate.h"
#include "core/frontend_cache.h"
#include "fuzz/campaign.h"
#include "gen.h"
#include "obs/metrics.h"
#include "rollup.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mphls;

/// Counter values and histogram sums of the registry instruments the
/// per-layer metrics are derived from.
struct RegistryReading {
  double synthRuns = 0, staRuns = 0, vmCompiles = 0, vmRtlRuns = 0;
  double synthSeconds = 0, staSeconds = 0, passSeconds = 0;
  double cacheHits = 0, cacheMisses = 0;

  static RegistryReading take() {
    auto& mr = obs::MetricsRegistry::global();
    RegistryReading r;
    r.synthRuns = (double)mr.counter("synth.runs").value();
    r.staRuns = (double)mr.counter("sta.runs").value();
    r.vmCompiles = (double)mr.counter("vm.compiles").value();
    r.vmRtlRuns = (double)mr.counter("vm.rtl_runs").value();
    r.synthSeconds = mr.histogram("synth.total_seconds").stats().sum;
    r.staSeconds = mr.histogram("sta.seconds").stats().sum;
    for (const auto& [name, st] : mr.snapshot().histograms)
      if (name.rfind("pass.", 0) == 0 &&
          name.size() > 8 && name.substr(name.size() - 8) == ".seconds")
        r.passSeconds += st.sum;
    r.cacheHits = (double)FrontendCache::global().hits();
    r.cacheMisses = (double)FrontendCache::global().misses();
    return r;
  }
};

struct SeedResult {
  double seconds = 0;
  int points = 0;
  std::string failure;  ///< empty when the seed passed
};

/// `fn(seed)` for every seed, on `threads` threads taking the next seed as
/// they finish one; results in seed order.
template <typename F>
std::vector<SeedResult> onThreads(int threads,
                                  const std::vector<std::uint64_t>& seeds,
                                  F&& fn) {
  std::vector<SeedResult> out(seeds.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < seeds.size();)
        out[i] = fn(seeds[i]);
    });
  for (auto& th : pool) th.join();
  return out;
}

/// The seeds a run draws on, chosen from 4n adjacent batches of `size`
/// consecutive seeds by their programs' source length, which keeps the
/// seed-to-seed spread of the mix small.
struct Plan {
  /// First seeds of n batches spread evenly over the batches' total source
  /// length, in an order whose every prefix is spread too.
  std::vector<std::uint64_t> batches;
  /// n * size programs spread evenly over source length, for the result
  /// quality figures.
  std::vector<std::uint64_t> qorSeeds;
};

/// The entries of every fourth rank of `ranked` (ranked by its first
/// member), `count` of them, in bit-reversed rank order.
std::vector<std::uint64_t> everyFourthRank(
    std::vector<std::pair<std::size_t, std::uint64_t>> ranked, int count) {
  std::sort(ranked.begin(), ranked.end());
  int bits = 0;
  while ((1 << bits) < count) ++bits;
  std::vector<std::uint64_t> out;
  for (int j = 0; j < (1 << bits); ++j) {
    int r = 0;
    for (int b = 0; b < bits; ++b) r |= ((j >> b) & 1) << (bits - 1 - b);
    if (r < count) out.push_back(ranked[(std::size_t)(4 * r + 2)].second);
  }
  return out;
}

Plan makePlan(std::uint64_t base, int n, int size) {
  std::vector<std::pair<std::size_t, std::uint64_t>> programs, batches;
  for (int i = 0; i < 4 * n * size; ++i) {
    const std::uint64_t seed = base + (std::uint64_t)i;
    programs.emplace_back(fuzz::generateProgram(seed, {}).render().size(),
                          seed);
    if (i % size == 0) batches.emplace_back(0, seed);
    batches.back().first += programs.back().first;
  }
  return {everyFourthRank(std::move(batches), n),
          everyFourthRank(std::move(programs), n * size)};
}

struct BatchResult {
  double seconds = 0;
  int failedSeeds = 0;
  std::string failure;  ///< the first failure, empty when all passed
};

BatchResult campaignBatch(std::uint64_t base, int seeds, int jobs) {
  fuzz::CampaignOptions o;
  o.seedBase = base;
  o.seeds = seeds;
  o.jobs = jobs;
  BatchResult r;
  const double t0 = now();
  try {
    const fuzz::CampaignResult c = fuzz::runCampaign(o);
    r.failedSeeds = c.failedPrograms;
    if (!c.clean()) {
      r.failure = "batch " + std::to_string(base) + ": campaign failed";
      if (!c.failures.empty() && !c.failures[0].verdict.failures.empty()) {
        const fuzz::PointFailure& f = c.failures[0].verdict.failures[0];
        r.failure += " (seed " + std::to_string(c.failures[0].verdict.seed) +
                     ", " + f.kind + " at " + f.pointLabel() + ": " +
                     f.detail.substr(0, 200) + ")";
      }
    }
  } catch (const std::exception& e) {
    r.failedSeeds = seeds;
    r.failure = "batch " + std::to_string(base) + ": " + e.what();
  }
  r.seconds = now() - t0;
  return r;
}

/// One seed the way a campaign runs it, generateProgram then runSource,
/// each inside a span when the tracer is on.
SeedResult replaySeed(std::uint64_t seed) {
  SeedResult r;
  const double t0 = now();
  try {
    obs::TraceSpan unit("pb.fuzz.seed");
    std::string source;
    {
      obs::TraceSpan s("pb.fuzz.gen");
      source = fuzz::generateProgram(seed, fuzz::GenOptions{}).render();
    }
    obs::TraceSpan s("pb.fuzz.run_source");
    const fuzz::ProgramVerdict v =
        fuzz::runSource(source, seed, fuzz::DiffOptions{});
    r.points = v.pointsRun;
    if (!v.ok()) r.failure = "seed " + std::to_string(seed) + " (replay) failed";
  } catch (const std::exception& e) {
    r.failure = "seed " + std::to_string(seed) + " (replay): " + e.what();
  }
  r.seconds = now() - t0;
  return r;
}

}  // namespace

Outcome runFuzzStandard(const RunConfig& cfg) {
  Outcome out;
  // Campaign seeds are drawn far apart per benchmark seed.
  const std::uint64_t base = 1000 + mixSeed(cfg.seed, 0xF0) % 1000000000ull;
  const int batch = 2 * cfg.jobs;
  const int planSize = cfg.tiny ? 1 : 64;
  Plan plan;
  const double setup = timedSetup(cfg.tiny ? 1 : 5, [&] {
    plan = makePlan(base, planSize, batch);
    // Warm up with the plan's first batch; the frontend cache starts the
    // measurement empty.
    if (campaignBatch(plan.batches[0], batch, cfg.jobs).failedSeeds != 0)
      out.fail("warm-up batch failed");
    FrontendCache::global().clear();
  });

  // Batches in plan order (wrapping) until --seconds have passed; a traced
  // run measures the first eight.
  const long maxBatches = cfg.tiny ? 1 : cfg.trace ? 8 : 1000000;
  const double stopAt = now() + cfg.seconds;
  std::vector<double> batchMs, batchRates;
  double wall = 0;
  for (long i = 0; i < maxBatches && (cfg.trace || now() < stopAt); ++i) {
    if (cfg.calibrator) cfg.calibrator->sample();
    const BatchResult r = campaignBatch(
        plan.batches[(std::size_t)i % plan.batches.size()], batch, cfg.jobs);
    out.attempted += batch;
    out.failed += r.failedSeeds;
    if (!r.failure.empty() && out.failures.size() < 8)
      out.failures.push_back(r.failure);
    batchMs.push_back(r.seconds * 1e3);
    batchRates.push_back(batch / r.seconds);
    wall += r.seconds;
  }

  // Result quality and sizes of the plan's programs under the default CLI
  // configuration (outside timing).
  std::vector<double> area, execNs, ops, states;
  for (const std::uint64_t seed : plan.qorSeeds) {
    try {
      SynthesisOptions o;
      o.resources = ResourceLimits::universalSet(2);
      const SynthesisResult r = Synthesizer(o).synthesizeSource(
          fuzz::generateProgram(seed, {}).render());
      area.push_back(r.area.total());
      execNs.push_back(std::max(1, r.staticLatency()) * r.timing.cycleTime);
      ops.push_back((double)r.design.fn.numLiveOps());
      states.push_back((double)r.design.ctrl.numStates());
    } catch (const std::exception& e) {
      out.fail(std::string("qor synthesis: ") + e.what());
    }
  }
  out.note("ops_after_opt", distributionJson(ops));
  out.note("fsm_states", distributionJson(states));

  const Tail t = tail(batchMs);
  out.set("setup_s", setup, "s");
  // The median batch's rate resists the few heavy programs of a draw.
  out.set("throughput_per_s", median(batchRates), "1/s");
  out.set("latency_p50_ms", median(batchMs), "ms");
  out.set("latency_tail_ms", t.value, "ms");
  // Every seed's program is new to the frontend cache.
  out.set("cold_latency_p50_ms", median(batchMs), "ms");
  out.set("qor_area_geomean", geomean(area), "area");
  out.set("qor_exec_ns_geomean", geomean(execNs), "ns");
  out.note("unit", str("one runCampaign call over a batch of seeds, each "
                       "generated and run through the 24-point matrix"));
  out.note("batch_seeds", num(batch));
  out.note("campaign_jobs", num(cfg.jobs));
  out.note("plan_batches", num((double)plan.batches.size()));
  out.note("latency_tail", tailJson(t));
  if (!cfg.trace) return out;

  // The measured batches' seeds, replayed one per thread at a time, from
  // an empty frontend cache as the campaigns had: first untraced, then
  // traced.
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < batchMs.size(); ++i)
    for (int k = 0; k < batch; ++k)
      seeds.push_back(plan.batches[i % plan.batches.size()] +
                      (std::uint64_t)k);
  FrontendCache::global().clear();
  double busy = 0;
  for (const SeedResult& r : onThreads(cfg.jobs, seeds, replaySeed)) {
    if (!r.failure.empty()) out.fail(r.failure);
    busy += r.seconds;
  }
  out.set("pool.busy_frac", busy / (wall * cfg.jobs), "ratio");

  FrontendCache::global().clear();
  const RegistryReading before = RegistryReading::take();
  beginTrace();
  const std::vector<SeedResult> traced = onThreads(cfg.jobs, seeds, replaySeed);
  const std::map<std::string, SpanTotals> spans = rollUp(endTrace());
  const RegistryReading after = RegistryReading::take();
  double points = 0;
  for (const SeedResult& r : traced) {
    if (!r.failure.empty()) out.fail(r.failure);
    points += r.points;
  }
  points = std::max(points, 1.0);
  auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const double n = (double)std::max<std::size_t>(traced.size(), 1);
  const double runSource = span("fuzz.run_source").total;
  out.set("fuzz.gen_s", span("fuzz.gen").self / n, "s");
  out.set("fuzz.run_source_s", runSource / n, "s");
  out.set("fuzz.synth_share",
          (after.synthSeconds - before.synthSeconds) / runSource, "ratio");
  out.set("fuzz.sta_share", (after.staSeconds - before.staSeconds) / runSource,
          "ratio");
  out.set("fuzz.opt_share",
          (after.passSeconds - before.passSeconds) / runSource, "ratio");
  out.set("fuzz.synth_runs_per_point",
          (after.synthRuns - before.synthRuns) / points, "count");
  out.set("fuzz.sta_runs_per_point", (after.staRuns - before.staRuns) / points,
          "count");
  out.set("vm.compiles_per_point",
          (after.vmCompiles - before.vmCompiles) / points, "count");
  out.set("vm.rtl_runs_per_point",
          (after.vmRtlRuns - before.vmRtlRuns) / points, "count");
  const double hits = after.cacheHits - before.cacheHits;
  const double misses = after.cacheMisses - before.cacheMisses;
  out.set("frontend_cache.hits", hits, "count");
  out.set("frontend_cache.misses", misses, "count");
  out.set("frontend_cache.hit_ratio", hits / std::max(1.0, hits + misses),
          "ratio");

  const SpanTotals units = span("fuzz.seed");
  out.set("trace.unattributed_frac", units.self / units.total, "ratio");
  out.set("trace.overhead_frac", units.total / busy - 1.0, "ratio");
  writeTrace(cfg.outDir + "/trace-fuzz_standard-" + std::to_string(cfg.seed) +
             ".json");
  return out;
}

}  // namespace perfbench
