#include "serve/service.h"

#include "common/json_reader.h"
#include "core/commands.h"
#include "core/designs.h"
#include "core/options.h"
#include "core/frontend_cache.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mphls::serve {

namespace {

/// Shared POST-body decode: name/source/design/top/options.
struct DecodedBody {
  std::unique_ptr<json::Node> doc;  ///< keeps route-extra nodes alive
  cmd::Request req;
  std::string error;  ///< non-empty: reject with 400
};

DecodedBody decodeBody(const HttpRequest& http, const SynthesisOptions& base) {
  DecodedBody d;
  d.req.opts = base;
  json::ParseError perr;
  d.doc = json::parseOrError(http.body, perr);
  if (!d.doc) {
    d.error = "invalid JSON body: " + perr.message + " at offset " +
              std::to_string(perr.offset);
    return d;
  }
  if (!d.doc->isObject()) {
    d.error = "request body must be a JSON object";
    return d;
  }
  const json::Node& o = *d.doc;
  d.req.top = o.getString("top");
  if (const json::Node* design = o.get("design")) {
    if (!design->isString()) {
      d.error = "\"design\" must be a string";
      return d;
    }
    for (const auto& b : designs::all())
      if (design->str() == b.name) d.req.source = b.source;
    if (d.req.source.empty()) {
      d.error = "unknown builtin design: " + design->str();
      return d;
    }
    d.req.name = o.getString("name", design->str());
  } else if (const json::Node* source = o.get("source")) {
    if (!source->isString()) {
      d.error = "\"source\" must be a string";
      return d;
    }
    d.req.source = source->str();
    d.req.name = o.getString("name", "request");
  } else {
    d.error = "request needs \"source\" or \"design\"";
    return d;
  }
  if (const json::Node* opts = o.get("options")) {
    if (!opts->isObject()) {
      d.error = "\"options\" must be an object";
      return d;
    }
    d.error = applyJsonOptions(*opts, d.req.opts);
  }
  return d;
}

/// Whether `v` is a number inside `range` (checked before any cast).
bool inRange(const json::Node& v, const NumRange& range) {
  return v.isNumber() && range.contains(v.number());
}

ServiceResponse fromResult(cmd::Result r) {
  return {r.inputError ? 422 : 200, std::move(r.body)};
}

ServiceResponse errorResponse(int status, const std::string& reason) {
  std::string body = "{\"error\":";
  obs::appendJsonString(body, reason);
  body += "}\n";
  return {status, std::move(body)};
}

/// Value of `key` in an application/x-www-form-urlencoded query string
/// ("a=1&b=2"). No %-decoding — our parameter values never need it.
std::string queryParam(const std::string& query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        std::string_view(query).substr(pos, eq - pos) == key)
      return query.substr(eq + 1, amp - eq - 1);
    pos = amp + 1;
  }
  return "";
}

ServiceResponse handleMetrics(const std::string& query) {
  // Surface the frontend cache through the snapshot: the loadgen reads
  // its hit rate from here, and `serve.cache.*` keeps the naming parallel
  // with the serve.* request instruments.
  auto& mr = obs::MetricsRegistry::global();
  const FrontendCache& cache = FrontendCache::global();
  const double hits = (double)cache.hits();
  const double misses = (double)cache.misses();
  mr.gauge("serve.cache.hits").set(hits);
  mr.gauge("serve.cache.misses").set(misses);
  mr.gauge("serve.cache.entries").set((double)cache.size());
  mr.gauge("serve.cache.hit_rate")
      .set(hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const std::string format = queryParam(query, "format");
  if (format == "prometheus")
    return {200, mr.toPrometheus(),
            "text/plain; version=0.0.4; charset=utf-8"};
  if (!format.empty() && format != "json")
    return errorResponse(400, "unknown metrics format: " + format);
  return {200, mr.toJson()};
}

ServiceResponse handleDesigns() {
  JsonValue arr = JsonValue::array();
  for (const auto& d : designs::all()) {
    JsonValue o = JsonValue::object();
    o["name"] = std::string(d.name);
    o["source"] = std::string(d.source);
    JsonValue in = JsonValue::object();
    for (const auto& [k, v] : d.sampleInputs) in[k] = (double)v;
    o["sample_inputs"] = std::move(in);
    arr.push(std::move(o));
  }
  return {200, arr.dump()};
}

}  // namespace

Service::Service(ServiceOptions opts) : opts_(std::move(opts)) {}

std::uint64_t Service::requestCount() const {
  return obs::MetricsRegistry::global().counter("serve.requests").value();
}

ServiceResponse Service::handle(const HttpRequest& req,
                                std::uint64_t sessionId) const {
  auto& mr = obs::MetricsRegistry::global();
  mr.counter("serve.requests").add();
  WallTimer wallTimer;
  FrontendCache::clearThreadStats();

  // The route is the target's path; the query string selects variants
  // of an endpoint (e.g. /metrics?format=prometheus) and must not leak
  // into route matching or per-endpoint metric names.
  const std::size_t qpos = req.target.find('?');
  const std::string path =
      qpos == std::string::npos ? req.target : req.target.substr(0, qpos);
  const std::string query =
      qpos == std::string::npos ? "" : req.target.substr(qpos + 1);

  // Route match before method match: a POST to /healthz must say 405, not
  // 404. The route name keys the per-endpoint latency histogram.
  static constexpr std::string_view kGetRoutes[] = {
      "/healthz", "/metrics", "/designs", "/debug/flight"};
  static constexpr std::string_view kPostRoutes[] = {
      "/synth", "/lint", "/analyze", "/sta", "/prove", "/sim"};
  bool isGet = false, isPost = false;
  for (std::string_view r : kGetRoutes) isGet |= path == r;
  for (std::string_view r : kPostRoutes) isPost |= path == r;

  ServiceResponse resp;
  if (!isGet && !isPost) {
    resp = errorResponse(404, "no such endpoint: " + path);
  } else if ((isGet && req.method != "GET") ||
             (isPost && req.method != "POST")) {
    resp = errorResponse(405, req.method + " not allowed on " + path);
  } else {
    WallTimer timer;
    obs::TraceSpan span("serve" + path,
                        "session " + std::to_string(sessionId));
    try {
      if (path == "/healthz") {
        resp = {200, "{\"status\":\"ok\"}\n"};
      } else if (path == "/metrics") {
        resp = handleMetrics(query);
      } else if (path == "/designs") {
        resp = handleDesigns();
      } else if (path == "/debug/flight") {
        resp = {200, obs::FlightRecorder::global().toJson()};
      } else {
        DecodedBody d = decodeBody(req, opts_.defaults);
        if (!d.error.empty()) {
          resp = errorResponse(400, d.error);
        } else if (path == "/synth") {
          resp = fromResult(cmd::synthJson(d.req));
        } else if (path == "/lint") {
          resp = fromResult(cmd::lintJson(d.req));
        } else if (path == "/analyze") {
          const bool post = d.doc->getBool(
              "post_pipeline", d.doc->get("options") != nullptr &&
                                   d.doc->get("options")->has("opt"));
          resp = fromResult(cmd::analyzeJson(d.req, post));
        } else if (path == "/sta") {
          const json::Node* clock = d.doc->get("clock");
          const json::Node* paths = d.doc->get("paths");
          if (clock && !inRange(*clock, kClockRange)) {
            resp = errorResponse(400, "\"clock\" must be a number in 0..1e6"
                                      " (0: the estimated clock)");
          } else if (paths && !inRange(*paths, kPathsRange)) {
            resp = errorResponse(400, "\"paths\" must be an integer >= 0");
          } else {
            resp = fromResult(cmd::staJson(
                d.req, clock ? clock->number() : 0,
                paths ? (int)paths->number() : 5));
          }
        } else if (path == "/prove") {
          resp = fromResult(
              cmd::proveJson(d.req, d.doc->getBool("prove_passes")));
        } else {  // "/sim"
          std::map<std::string, std::uint64_t> inputs;
          bool badInputs = false;
          if (const json::Node* in = d.doc->get("inputs")) {
            badInputs = !in->isObject();
            for (const auto& [k, v] : in->members()) {
              if (!inRange(*v, kInputRange)) {
                badInputs = true;
                break;
              }
              inputs[k] = (std::uint64_t)v->number();
            }
          }
          resp = badInputs
                     ? errorResponse(400, "\"inputs\" must map ports to"
                                          " integers in 0..2^64-1")
                     : fromResult(cmd::simJson(d.req, inputs));
        }
      }
    } catch (const std::exception& e) {
      resp = errorResponse(500, e.what());
    } catch (...) {
      resp = errorResponse(500, "unknown internal error");
    }
    // One latency histogram per endpoint ("serve./synth.seconds").
    mr.histogram("serve." + path + ".seconds").observe(timer.seconds());
  }

  if (resp.status >= 400) mr.counter("serve.errors").add();
  mr.counter("serve.status." + std::to_string(resp.status)).add();

  // Access log: one structured record per request, every status
  // included, so the flight recorder's last events name the request
  // that preceded a crash.
  auto& lg = obs::Logger::global();
  if (lg.enabled(obs::LogLevel::Info)) {
    lg.info("serve", "request",
            {{"session", sessionId},
             {"method", req.method},
             {"endpoint", path},
             {"status", resp.status},
             {"ms", wallTimer.seconds() * 1e3},
             {"cache_hit", FrontendCache::threadSawHit() &&
                               !FrontendCache::threadSawMiss()}});
  }
  return resp;
}

}  // namespace mphls::serve
