// serve_mixed: the synthesis daemon under a mixed, partly cold load.
//
// An in-process serve::Server on loopback with nproc/2 workers, driven by the
// other nproc/2 as closed-loop clients on one keep-alive connection each, so
// server workers plus client threads stay within nproc. The request mix is
// drawn per request from the seed. The endpoints are equally likely, as in
// `mphls loadgen`'s default synth:lint:sim mix, extended to sta. The sources
// are the five builtins (40%), eight warm generated mid-size designs (40%),
// and generated sources never sent before (20%), which miss the frontend
// cache. Those source shares are an assumption, not a measurement of real
// traffic: they keep warm requests the majority, as in loadgen, while the
// cold fifth gives every run hundreds of cold samples. All requests use the
// daemon's default options (list, greedy, left-edge, two FUs). A unit of
// work is one request.
//
// The load runs in rounds: every client sends kRoundRequests requests,
// then all wait while the host-speed calibration samples with the daemon
// idle (calibrate.h).
//
// Every response must be 200 with a clean report; a seeded sample of
// responses is byte-compared against the matching cmd::*Json result
// computed in process after the run.
#include <memory>
#include <mutex>
#include <thread>

#include "calibrate.h"
#include "core/commands.h"
#include "core/designs.h"
#include "core/frontend_cache.h"
#include "fuzz/bdl_gen.h"
#include "gen.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "rollup.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mphls;

enum Endpoint { kSynth, kLint, kSim, kSta, kEndpoints };
constexpr const char* kEndpointNames[kEndpoints] = {"synth", "lint", "sim",
                                                    "sta"};

struct Source {
  std::string builtin;  ///< builtin design name, or empty
  std::string text;     ///< BDL source
  std::map<std::string, std::uint64_t> inputs;
  bool cold = false;
};

struct Planned {
  Endpoint ep = kSynth;
  std::size_t source = 0;
  std::string name;
  std::string body;
  bool sampled = false;
};

SynthesisOptions serverDefaults() {
  SynthesisOptions o;
  o.resources = ResourceLimits::universalSet(2);
  return o;
}

/// The daemon on its own event-loop thread; stopped and joined on
/// destruction.
class RunningServer {
 public:
  explicit RunningServer(int jobs) : server_(options(jobs)) {
    std::string err;
    if (!server_.start(err))
      throw std::runtime_error("serve: cannot start: " + err);
    loop_ = std::thread([this] { server_.run(); });
  }
  ~RunningServer() {
    server_.requestStop();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] int port() const { return server_.port(); }

 private:
  static serve::ServerOptions options(int jobs) {
    serve::ServerOptions o;
    o.jobs = jobs;
    o.service.defaults = serverDefaults();
    return o;
  }

  serve::Server server_;
  std::thread loop_;
};

struct Inputs {
  std::vector<Source> sources;
  std::vector<Planned> plan;
  std::size_t warm = 0;  ///< sources[0, warm) are builtins + warm generated
};

std::string inputsJson(const std::map<std::string, std::uint64_t>& in) {
  std::string s = "{";
  for (const auto& [k, v] : in)
    s += (s.size() > 1 ? "," : "") + str(k) + ":" + std::to_string(v);
  return s + "}";
}

Inputs makeInputs(const RunConfig& cfg) {
  Inputs in;
  for (const auto& b : designs::all())
    in.sources.push_back({b.name, b.source, b.sampleInputs, false});
  const std::size_t builtins = in.sources.size();
  // Generated designs use the three size-exact templates at sizes spread
  // over 48..111 nominal ops, so every seed serves the same mix of sizes.
  static constexpr Template kTemplates[] = {Template::Chain, Template::Tree,
                                            Template::Loop};
  auto generated = [&](std::uint64_t i, bool cold) {
    const std::uint64_t s = mixSeed(cfg.seed, (cold ? 0xC01D0000 : 0x5E00) + i);
    const Design d = makeDesign(kTemplates[i % 3], 48 + (int)(i * 37 % 64), s);
    return Source{"", d.source, stimulus(d, cfg.seed, 2), cold};
  };
  for (std::uint64_t i = 0; i < 8; ++i)
    in.sources.push_back(generated(i, false));
  in.warm = in.sources.size();

  const std::size_t plan = cfg.tiny ? 64 : 4096;
  fuzz::Rng rng(mixSeed(cfg.seed, 0x5EAA));
  std::uint64_t cold = 0;
  for (std::size_t i = 0; i < plan; ++i) {
    Planned p;
    p.ep = (Endpoint)rng.below(kEndpoints);
    const std::size_t c = rng.below(100);
    if (c < 40) {
      p.source = rng.below(builtins);
    } else if (c < 80) {
      p.source = builtins + rng.below(in.warm - builtins);
    } else {
      // A source nothing has sent before: a fresh seeded design.
      in.sources.push_back(generated(cold++, true));
      p.source = in.sources.size() - 1;
    }
    const Source& s = in.sources[p.source];
    p.name = "r" + std::to_string(i);
    p.body = "{\"name\":" + str(p.name) + "," +
             (s.builtin.empty() ? "\"source\":" + str(s.text)
                                : "\"design\":" + str(s.builtin));
    if (p.ep == kSim) p.body += ",\"inputs\":" + inputsJson(s.inputs);
    p.body += "}";
    p.sampled = mixSeed(cfg.seed, i) % 16 == 0;
    in.plan.push_back(std::move(p));
  }
  return in;
}

/// The in-process result the daemon's response must equal byte for byte.
std::string expectedBody(const Planned& p, const Source& s) {
  cmd::Request req{p.name, s.text, "", serverDefaults()};
  switch (p.ep) {
    case kSynth: return cmd::synthJson(req).body;
    case kLint: return cmd::lintJson(req).body;
    case kSim: return cmd::simJson(req, s.inputs).body;
    default: return cmd::staJson(req, 0, 5).body;
  }
}

struct Sample {
  Endpoint ep = kSynth;
  bool cold = false;
  double ms = 0;
};

struct LoadResult {
  std::vector<Sample> samples;
  std::map<std::size_t, std::string> sampledBodies;  ///< by plan index
  std::vector<std::string> failures;
  long failed = 0;
  double wall = 0;
};

/// Requests each client sends per round.
constexpr std::size_t kRoundRequests = 48;

/// `clients` closed-loop clients, client c sending plan entries c,
/// c + clients, ... (wrapping), in rounds until `seconds` have passed. The
/// calibrator samples between rounds, while no request is in flight; the
/// wall time counts the rounds only.
LoadResult drive(const Inputs& in, int port, int clients, double seconds,
                 Calibrator* calibrator) {
  LoadResult res;
  std::mutex m;
  std::vector<std::unique_ptr<serve::HttpClient>> conns;
  for (int c = 0; c < clients; ++c)
    conns.push_back(std::make_unique<serve::HttpClient>("127.0.0.1", port));
  const double stopAt = now() + seconds;
  for (std::size_t round = 0; now() < stopAt; ++round) {
    if (calibrator) calibrator->sample();
    const double t0 = now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        std::vector<Sample> mine;
        std::vector<std::pair<std::size_t, std::string>> bodies;
        std::vector<std::string> bad;
        for (std::size_t j = 0; j < kRoundRequests; ++j) {
          const std::size_t k =
              (round * kRoundRequests + j) * (std::size_t)clients +
              (std::size_t)c;
          const std::size_t idx = k % in.plan.size();
          const Planned& p = in.plan[idx];
          const double r0 = now();
          serve::ClientResponse r;
          {
            obs::TraceSpan s("pb.serve.request");
            r = conns[(std::size_t)c]->post(
                std::string("/") + kEndpointNames[p.ep], p.body);
          }
          mine.push_back(
              {p.ep, in.sources[p.source].cold, (now() - r0) * 1e3});
          if (!r.ok) bad.push_back(p.name + ": transport: " + r.error);
          else if (r.status != 200)
            bad.push_back(p.name + ": HTTP " + std::to_string(r.status));
          else if (r.body.find("\"clean\":false") != std::string::npos ||
                   r.body.find("\"clean\": false") != std::string::npos ||
                   r.body.find("\"finished\": false") != std::string::npos)
            bad.push_back(p.name + ": report not clean");
          else if (p.sampled && k < in.plan.size())
            bodies.emplace_back(idx, std::move(r.body));
        }
        std::lock_guard<std::mutex> lk(m);
        res.samples.insert(res.samples.end(), mine.begin(), mine.end());
        for (auto& [i, b] : bodies) res.sampledBodies.emplace(i, std::move(b));
        res.failed += (long)bad.size();
        for (auto& b : bad)
          if (res.failures.size() < 8) res.failures.push_back(std::move(b));
      });
    for (auto& t : threads) t.join();
    res.wall += now() - t0;
  }
  return res;
}

/// The daemon's handle-time histogram of endpoint `e`.
std::string handleHistogram(int e) {
  return std::string("serve./") + kEndpointNames[e] + ".seconds";
}

double histogramSum(const std::string& name) {
  return obs::MetricsRegistry::global().histogram(name).stats().sum;
}
double histogramCount(const std::string& name) {
  return (double)obs::MetricsRegistry::global().histogram(name).stats().count;
}
double counter(const std::string& name) {
  return (double)obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

Outcome runServeMixed(const RunConfig& cfg) {
  Outcome out;
  const int serverJobs = std::max(1, cfg.jobs / 2);
  const int clients = std::max(1, cfg.jobs - serverJobs);
  Inputs in;
  std::unique_ptr<RunningServer> server;
  const double setup = timedSetup(cfg.tiny ? 1 : 5, [&] {
    server.reset();
    FrontendCache::global().clear();
    in = makeInputs(cfg);
    server = std::make_unique<RunningServer>(serverJobs);
    serve::HttpClient warm("127.0.0.1", server->port());
    for (std::size_t s = 0; s < in.warm; ++s) {
      const Source& src = in.sources[s];
      const std::string body =
          src.builtin.empty() ? "{\"source\":" + str(src.text) + "}"
                              : "{\"design\":" + str(src.builtin) + "}";
      if (warm.post("/synth", body).status != 200)
        throw std::runtime_error("serve: warm-up request failed");
    }
  });

  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const LoadResult load =
      drive(in, server->port(), clients, budget, cfg.calibrator);
  out.attempted = (long)load.samples.size();
  out.failed = load.failed;
  out.failures = load.failures;

  // Byte-compare the sampled responses with the in-process commands.
  for (const auto& [idx, body] : load.sampledBodies) {
    const Planned& p = in.plan[idx];
    if (body != expectedBody(p, in.sources[p.source]))
      out.fail(p.name + ": response differs from cmd::" +
               kEndpointNames[p.ep] + "Json");
  }

  // Result quality and sizes of the served designs (builtins, warm, and
  // the first cold ones) under the daemon's default options.
  std::vector<double> area, execNs, ops, states;
  for (std::size_t s = 0; s < std::min(in.sources.size(), in.warm + 32); ++s) {
    try {
      const SynthesisResult r =
          Synthesizer(serverDefaults()).synthesizeSource(in.sources[s].text);
      area.push_back(r.area.total());
      execNs.push_back(r.staticLatency() * r.timing.cycleTime);
      ops.push_back((double)r.design.fn.numLiveOps());
      states.push_back((double)r.design.ctrl.numStates());
    } catch (const std::exception& e) {
      out.fail(std::string("qor synthesis: ") + e.what());
    }
  }
  out.note("ops_after_opt", distributionJson(ops));
  out.note("fsm_states", distributionJson(states));

  std::vector<double> all, cold;
  std::vector<double> byEndpoint[kEndpoints];
  for (const Sample& s : load.samples) {
    all.push_back(s.ms);
    if (s.cold) cold.push_back(s.ms);
    byEndpoint[s.ep].push_back(s.ms);
  }
  const Tail t = tail(all);
  out.set("setup_s", setup, "s");
  out.set("throughput_per_s", (double)all.size() / load.wall, "1/s");
  out.set("latency_p50_ms", median(all), "ms");
  out.set("latency_tail_ms", t.value, "ms");
  out.set("cold_latency_p50_ms", median(cold), "ms");
  out.set("qor_area_geomean", geomean(area), "area");
  out.set("qor_exec_ns_geomean", geomean(execNs), "ns");
  out.note("unit", str("one HTTP request"));
  out.note("server_jobs", num(serverJobs));
  out.note("clients", num(clients));
  out.note("latency_tail", tailJson(t));
  out.note("cold_requests", num((double)cold.size()));
  out.note("sampled_responses", num((double)load.sampledBodies.size()));
  for (int e = 0; e < kEndpoints; ++e)
    out.set(std::string("serve.") + kEndpointNames[e] + ".p50_ms",
            median(byEndpoint[e]), "ms");
  if (!cfg.trace) return out;

  // Traced half: the same load with a span per request, reading the
  // daemon's own per-endpoint handle-time histograms around it.
  double serverBefore[kEndpoints], countBefore[kEndpoints];
  for (int e = 0; e < kEndpoints; ++e) {
    const std::string h = handleHistogram(e);
    serverBefore[e] = histogramSum(h);
    countBefore[e] = histogramCount(h);
  }
  const double errors0 = counter("serve.errors");
  const double rejected0 = counter("serve.rejected_sessions");
  const double hits0 = (double)FrontendCache::global().hits();
  const double misses0 = (double)FrontendCache::global().misses();
  beginTrace();
  const LoadResult traced = drive(in, server->port(), clients, budget, nullptr);
  const std::map<std::string, SpanTotals> spans = rollUp(endTrace());
  out.failed += traced.failed;
  double serverTotal = 0;
  for (int e = 0; e < kEndpoints; ++e) {
    const std::string h = handleHistogram(e);
    const double s = histogramSum(h) - serverBefore[e];
    const double n = histogramCount(h) - countBefore[e];
    serverTotal += s;
    out.set(std::string("serve.") + kEndpointNames[e] + ".server_s",
            n > 0 ? s / n : 0, "s");
  }
  const SpanTotals roots =
      spans.count("serve.request") ? spans.at("serve.request") : SpanTotals{};
  out.set("serve.wait_ms_mean",
          (roots.total - serverTotal) / (double)roots.count * 1e3, "ms");
  out.set("serve.errors", counter("serve.errors") - errors0, "count");
  out.set("serve.rejected_sessions",
          counter("serve.rejected_sessions") - rejected0, "count");
  const double hits = (double)FrontendCache::global().hits() - hits0;
  const double misses = (double)FrontendCache::global().misses() - misses0;
  out.set("frontend_cache.hits", hits, "count");
  out.set("frontend_cache.misses", misses, "count");
  out.set("frontend_cache.hit_ratio", hits / std::max(1.0, hits + misses),
          "ratio");
  out.set("trace.unattributed_frac", 1.0 - serverTotal / roots.total,
          "ratio");
  out.set("trace.overhead_frac",
          (roots.total / (double)roots.count) / (sum(all) / 1e3 / all.size()) -
              1.0,
          "ratio");
  writeTrace(cfg.outDir + "/trace-serve_mixed-" + std::to_string(cfg.seed) +
             ".json");
  return out;
}

}  // namespace perfbench
