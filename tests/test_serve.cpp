// Serve-layer battery: HTTP parser protocol conformance (malformed
// request lines, framing limits, partial and pipelined reads,
// keep-alive accounting), the JSON reader, service routing and input
// validation, golden byte-equality between daemon endpoint bodies and
// the shared command layer the offline CLI prints from, and a
// concurrency soak over a real socket (N loadgen clients x mixed
// endpoints, zero errors, warm cache, graceful drain).
//
// Every suite name starts with "Serve" so the TSan CI stage can run the
// whole battery with --gtest_filter='Serve*'.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.h"
#include "core/commands.h"
#include "core/designs.h"
#include "core/frontend_cache.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/service.h"

namespace mphls {
namespace {

using serve::HttpParser;
using serve::HttpRequest;
using Status = serve::HttpParser::Status;

// ------------------------------------------------------ http parser

TEST(ServeHttpParser, ParsesSimpleGet) {
  HttpParser p;
  p.feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Ready);
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/healthz");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_TRUE(r.keepAlive);
  EXPECT_TRUE(r.body.empty());
  ASSERT_NE(r.header("host"), nullptr);
  EXPECT_EQ(*r.header("host"), "x");
  EXPECT_EQ(p.next(r), Status::NeedMore);
}

TEST(ServeHttpParser, ParsesPostBodyByContentLength) {
  HttpParser p;
  p.feed("POST /synth HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Ready);
  EXPECT_EQ(r.body, "hello");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(ServeHttpParser, ByteAtATimeFeedStillParses) {
  const std::string wire =
      "POST /lint HTTP/1.1\r\nContent-Length: 4\r\nX-A: b\r\n\r\nabcd";
  HttpParser p;
  HttpRequest r;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    p.feed(std::string_view(&wire[i], 1));
    ASSERT_EQ(p.next(r), Status::NeedMore) << "at byte " << i;
  }
  p.feed(std::string_view(&wire[wire.size() - 1], 1));
  ASSERT_EQ(p.next(r), Status::Ready);
  EXPECT_EQ(r.body, "abcd");
}

TEST(ServeHttpParser, PipelinedRequestsComeOutInOrder) {
  HttpParser p;
  p.feed(
      "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy"
      "GET /b HTTP/1.1\r\n\r\n");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Ready);
  EXPECT_EQ(r.target, "/a");
  EXPECT_EQ(r.body, "xy");
  ASSERT_EQ(p.next(r), Status::Ready);
  EXPECT_EQ(r.target, "/b");
  EXPECT_EQ(p.next(r), Status::NeedMore);
}

TEST(ServeHttpParser, PartialBodyNeedsMoreThenCompletes) {
  HttpParser p;
  p.feed("POST /sim HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::NeedMore);
  p.feed("67890");
  ASSERT_EQ(p.next(r), Status::Ready);
  EXPECT_EQ(r.body, "1234567890");
}

TEST(ServeHttpParser, MalformedRequestLinesAre400) {
  const char* bad[] = {
      "GARBAGE\r\n\r\n",                      // no spaces
      "GET /x\r\n\r\n",                       // one token short
      "GET /x HTTP/1.1 extra\r\n\r\n",        // too many tokens
      "GET nopath HTTP/1.1\r\n\r\n",          // target without leading /
      " GET /x HTTP/1.1\r\n\r\n",             // empty method
      "G@T /x HTTP/1.1\r\n\r\n",              // non-tchar method
      "GET /x HTTP/2.0\r\n\r\n",              // unsupported version
      "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",  // malformed header
      "GET /x HTTP/1.1\r\n: novalue\r\n\r\n",    // empty header name
  };
  for (const char* wire : bad) {
    HttpParser p;
    p.feed(wire);
    HttpRequest r;
    ASSERT_EQ(p.next(r), Status::Error) << wire;
    EXPECT_EQ(p.errorCode(), 400) << wire;
    // Poisoned: further feeds stay in error.
    p.feed("GET /ok HTTP/1.1\r\n\r\n");
    EXPECT_EQ(p.next(r), Status::Error) << wire;
  }
}

TEST(ServeHttpParser, PostWithoutContentLengthIs411) {
  HttpParser p;
  p.feed("POST /synth HTTP/1.1\r\n\r\n");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Error);
  EXPECT_EQ(p.errorCode(), 411);
}

TEST(ServeHttpParser, NonNumericContentLengthIs400) {
  HttpParser p;
  p.feed("POST /synth HTTP/1.1\r\nContent-Length: 12x\r\n\r\n");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Error);
  EXPECT_EQ(p.errorCode(), 400);
}

TEST(ServeHttpParser, OversizedBodyIs413BeforeBodyArrives) {
  serve::HttpLimits limits;
  limits.maxBodyBytes = 64;
  HttpParser p(limits);
  p.feed("POST /synth HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Error);
  EXPECT_EQ(p.errorCode(), 413);

  // Absurd lengths must not overflow the digit accumulator.
  HttpParser p2(limits);
  p2.feed(
      "POST /synth HTTP/1.1\r\n"
      "Content-Length: 99999999999999999999999999\r\n\r\n");
  ASSERT_EQ(p2.next(r), Status::Error);
  EXPECT_EQ(p2.errorCode(), 413);
}

TEST(ServeHttpParser, RunawayHeaderSectionIs431) {
  serve::HttpLimits limits;
  limits.maxRequestLine = 128;
  limits.maxHeaderBytes = 128;
  HttpParser p(limits);
  std::string wire = "GET /x HTTP/1.1\r\n";
  for (int i = 0; i < 64; ++i) wire += "X-Pad: aaaaaaaaaaaaaaaa\r\n";
  wire += "\r\n";
  p.feed(wire);
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Error);
  EXPECT_EQ(p.errorCode(), 431);
}

TEST(ServeHttpParser, ChunkedTransferEncodingIs501) {
  HttpParser p;
  p.feed("POST /synth HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  HttpRequest r;
  ASSERT_EQ(p.next(r), Status::Error);
  EXPECT_EQ(p.errorCode(), 501);
}

TEST(ServeHttpParser, KeepAliveDefaultsPerVersion) {
  struct Case {
    const char* wire;
    bool keep;
  } cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false},  // case-insens.
  };
  for (const Case& c : cases) {
    HttpParser p;
    p.feed(c.wire);
    HttpRequest r;
    ASSERT_EQ(p.next(r), Status::Ready) << c.wire;
    EXPECT_EQ(r.keepAlive, c.keep) << c.wire;
  }
}

TEST(ServeHttpParser, ResponseRenderingFramesBody) {
  const std::string resp = serve::renderResponse(200, "{}\n", true);
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 3), "{}\n");
  // Deterministic responses: no Date header ever.
  EXPECT_EQ(resp.find("Date:"), std::string::npos);
}

// ------------------------------------------------------ json reader

TEST(ServeJsonReader, ParsesScalarsAndNesting) {
  const auto doc = json::parse(
      "{\"a\": 1.5, \"b\": [true, null, \"x\\n\"], \"c\": {\"d\": -2e3}}");
  ASSERT_NE(doc, nullptr);
  EXPECT_DOUBLE_EQ(doc->getNumber("a"), 1.5);
  const json::Node* b = doc->get("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->size(), 3u);
  EXPECT_TRUE(b->at(0)->boolean());
  EXPECT_TRUE(b->at(1)->isNull());
  EXPECT_EQ(b->at(2)->str(), "x\n");
  ASSERT_NE(doc->get("c"), nullptr);
  EXPECT_DOUBLE_EQ(doc->get("c")->getNumber("d"), -2000.0);
}

TEST(ServeJsonReader, DecodesSurrogatePairsToUtf8) {
  const auto doc = json::parse("\"\\ud83d\\ude00\"");  // U+1F600
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->str(), "\xF0\x9F\x98\x80");
}

TEST(ServeJsonReader, RejectsMalformedDocuments) {
  const char* bad[] = {"",       "{",          "[1,]",    "{\"a\":}",
                       "01",     "1.",         "+1",      "\"\\x\"",
                       "tru",    "{\"a\":1,}", "[1] []",  "nulll",
                       "\"\\ud83d\"" /* lone surrogate */};
  for (const char* t : bad) {
    json::ParseError e;
    EXPECT_EQ(json::parseOrError(t, e), nullptr) << t;
    EXPECT_FALSE(json::valid(t)) << t;
  }
}

TEST(ServeJsonReader, EveryCommandBodyRoundTrips) {
  // The builder side (JsonValue) and the hand-rolled renderers must both
  // produce documents the reader accepts — the soak test depends on it.
  cmd::Request req;
  req.name = "sqrt";
  req.source = designs::sqrtSource();
  req.opts.resources = ResourceLimits::universalSet(2);
  EXPECT_TRUE(json::valid(cmd::synthJson(req).body));
  EXPECT_TRUE(json::valid(cmd::lintJson(req).body));
  EXPECT_TRUE(json::valid(cmd::analyzeJson(req, false).body));
  EXPECT_TRUE(json::valid(cmd::staJson(req, 10.0, 3).body));
  EXPECT_TRUE(json::valid(cmd::proveJson(req, false).body));
  EXPECT_TRUE(json::valid(cmd::simJson(req, {}).body));
}

// --------------------------------------------------------- service

HttpRequest makePost(const std::string& target, const std::string& body) {
  HttpRequest r;
  r.method = "POST";
  r.target = target;
  r.version = "HTTP/1.1";
  r.body = body;
  return r;
}

serve::Service makeService() {
  serve::ServiceOptions so;
  so.defaults.resources = ResourceLimits::universalSet(2);
  return serve::Service(so);
}

TEST(ServeService, UnknownRouteIs404WrongMethodIs405) {
  const serve::Service svc = makeService();
  EXPECT_EQ(svc.handle(makePost("/nope", "{}"), 1).status, 404);
  EXPECT_EQ(svc.handle(makePost("/healthz", "{}"), 1).status, 405);
  HttpRequest get;
  get.method = "GET";
  get.target = "/synth";
  get.version = "HTTP/1.1";
  EXPECT_EQ(svc.handle(get, 1).status, 405);
}

TEST(ServeService, MalformedBodiesAre400) {
  const serve::Service svc = makeService();
  // Broken JSON, non-object, missing source, unknown builtin, bad option
  // key, bad option value, non-object options, bad /sim inputs, and
  // hostile numbers: out-of-range or non-integral values are rejected
  // before any cast instead of being truncated or overflowed.
  const std::pair<const char*, const char*> bad[] = {
      {"/synth", "{not json"},
      {"/synth", "[1,2]"},
      {"/synth", "{}"},
      {"/synth", "{\"design\": \"no-such-design\"}"},
      {"/synth", "{\"design\": \"sqrt\", \"options\": {\"optlevel\": \"none\"}}"},
      {"/synth", "{\"design\": \"sqrt\", \"options\": {\"scheduler\": \"magic\"}}"},
      {"/synth", "{\"design\": \"sqrt\", \"options\": [1]}"},
      {"/sim", "{\"design\": \"sqrt\", \"inputs\": {\"x\": \"ten\"}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"fus\": 1e12}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"fus\": 2.5}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"fus\": 0}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"time_constraint\": -5}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"time_constraint\": 3e9}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"time_constraint\": 1025}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"narrow\": 1}}"},
      {"/sta", "{\"design\": \"gcd\", \"paths\": 2.5}"},
      {"/sta", "{\"design\": \"gcd\", \"paths\": -1}"},
      {"/sta", "{\"design\": \"gcd\", \"paths\": 1e12}"},
      {"/sta", "{\"design\": \"gcd\", \"clock\": -1}"},
      {"/sta", "{\"design\": \"gcd\", \"clock\": 1e300}"},
      {"/sta", "{\"design\": \"gcd\", \"clock\": \"fast\"}"},
      {"/sim", "{\"design\": \"gcd\", \"inputs\": {\"a0\": 1e30}}"},
      {"/sim", "{\"design\": \"gcd\", \"inputs\": {\"a0\": 2.5}}"},
      {"/sim", "{\"design\": \"gcd\", \"inputs\": {\"a0\": -1}}"},
  };
  for (const auto& [target, body] : bad) {
    const serve::ServiceResponse r = svc.handle(makePost(target, body), 1);
    EXPECT_EQ(r.status, 400) << target << " " << body << " -> " << r.body;
    EXPECT_TRUE(json::valid(r.body)) << r.body;
  }
}

TEST(ServeService, BoundaryNumbersAreAccepted) {
  const serve::Service svc = makeService();
  const std::pair<const char*, const char*> good[] = {
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"fus\": 1}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"fus\": 2147483647}}"},
      {"/synth", "{\"design\": \"gcd\", \"options\": {\"scheduler\": \"force\","
                 " \"time_constraint\": 1024}}"},
      {"/sta", "{\"design\": \"gcd\", \"clock\": 0, \"paths\": 0}"},
      {"/sim", "{\"design\": \"gcd\", \"inputs\": {\"a0\": 9223372036854775808,"
               " \"b0\": 0}}"},
  };
  for (const auto& [target, body] : good) {
    const serve::ServiceResponse r = svc.handle(makePost(target, body), 1);
    EXPECT_EQ(r.status, 200) << target << " " << body << " -> " << r.body;
  }
}

TEST(ServeService, CompileErrorsAre422) {
  const serve::Service svc = makeService();
  const serve::ServiceResponse r = svc.handle(
      makePost("/synth", "{\"source\": \"proc p { not bdl }\"}"), 1);
  EXPECT_EQ(r.status, 422);
  EXPECT_TRUE(json::valid(r.body));
  const auto doc = json::parse(r.body);
  ASSERT_NE(doc, nullptr);
  EXPECT_TRUE(doc->has("error"));
}

TEST(ServeService, HealthzAndMetricsRespond) {
  const serve::Service svc = makeService();
  HttpRequest get;
  get.method = "GET";
  get.version = "HTTP/1.1";
  get.target = "/healthz";
  EXPECT_EQ(svc.handle(get, 1).body, "{\"status\":\"ok\"}\n");
  get.target = "/metrics";
  const serve::ServiceResponse m = svc.handle(get, 1);
  EXPECT_EQ(m.status, 200);
  const auto doc = json::parse(m.body);
  ASSERT_NE(doc, nullptr);
  EXPECT_TRUE(doc->has("counters"));
  EXPECT_TRUE(doc->has("gauges"));
  EXPECT_TRUE(doc->has("histograms"));
  // The request instrumentation publishes through the shared registry.
  EXPECT_GT(svc.requestCount(), 0u);
}

// ---------------------------------------------- golden differential

// Daemon endpoint bodies must be byte-identical to the shared command
// layer the CLI's --format json paths print — the wiring can transform
// routes and status codes, never the payload. (ci.sh closes the loop by
// diffing daemon bytes against the actual `mphls ... --format json`
// process output over a real socket.)
TEST(ServeGolden, EndpointBodiesMatchCommandLayerForBuiltins) {
  const serve::Service svc = makeService();
  for (const auto& d : designs::all()) {
    cmd::Request req;
    req.name = d.name;
    req.source = d.source;
    req.opts.resources = ResourceLimits::universalSet(2);

    const std::string base =
        std::string("{\"design\": \"") + d.name + "\"";
    EXPECT_EQ(svc.handle(makePost("/synth", base + "}"), 1).body,
              cmd::synthJson(req).body)
        << d.name;
    EXPECT_EQ(svc.handle(makePost("/lint", base + "}"), 1).body,
              cmd::lintJson(req).body)
        << d.name;
    EXPECT_EQ(svc.handle(makePost("/analyze", base + "}"), 1).body,
              cmd::analyzeJson(req, false).body)
        << d.name;
    EXPECT_EQ(
        svc.handle(makePost("/sta", base + ", \"clock\": 10}"), 1).body,
        cmd::staJson(req, 10.0, 5).body)
        << d.name;
    EXPECT_EQ(svc.handle(makePost("/prove", base + "}"), 1).body,
              cmd::proveJson(req, false).body)
        << d.name;
    EXPECT_EQ(svc.handle(makePost("/sim", base + "}"), 1).body,
              cmd::simJson(req, {}).body)
        << d.name;
  }
}

// ----------------------------------------------------- socket layer

/// A live daemon on an ephemeral port for socket-level cases.
class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServerOptions so;
    so.port = 0;
    so.jobs = 2;
    so.service.defaults.resources = ResourceLimits::universalSet(2);
    server_ = std::make_unique<serve::Server>(so);
    std::string err;
    ASSERT_TRUE(server_->start(err)) << err;
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->requestStop();
    thread_.join();
    server_.reset();
  }

  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

TEST_F(ServeSocketTest, KeepAliveConnectionServesManyRequests) {
  serve::HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 3; ++i) {
    const serve::ClientResponse r = client.get("/healthz");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "{\"status\":\"ok\"}\n");
    EXPECT_TRUE(client.connected());  // same connection each lap
  }
  const serve::ClientResponse p =
      client.post("/synth", "{\"design\": \"gcd\"}");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.status, 200);
  EXPECT_TRUE(json::valid(p.body));
}

TEST_F(ServeSocketTest, MalformedWireRequestsGetPrecise4xx) {
  struct Case {
    const char* wire;
    int status;
  } cases[] = {
      {"BOGUS LINE\r\n\r\n", 400},
      {"POST /synth HTTP/1.1\r\n\r\n", 411},
      {"POST /synth HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"GET /definitely-not-a-route HTTP/1.1\r\n\r\n", 404},
      // Lying (short) Content-Length with half-closed write side: the
      // daemon must not hang; EOF before the promised body closes it.
  };
  for (const Case& c : cases) {
    serve::HttpClient client("127.0.0.1", server_->port());
    const serve::ClientResponse r = client.raw(c.wire);
    ASSERT_TRUE(r.ok) << c.wire << ": " << r.error;
    EXPECT_EQ(r.status, c.status) << c.wire;
    EXPECT_TRUE(json::valid(r.body)) << r.body;
  }
}

TEST_F(ServeSocketTest, LyingContentLengthClosesWithoutResponse) {
  serve::HttpClient client("127.0.0.1", server_->port());
  // Promises 100 bytes, delivers 5, then EOF: the request can never
  // complete, so the daemon just drops the session (no bytes owed).
  const serve::ClientResponse r =
      client.raw("POST /synth HTTP/1.1\r\nContent-Length: 100\r\n\r\nhello");
  EXPECT_FALSE(r.ok);
  // The daemon must still be alive for other clients.
  serve::HttpClient probe("127.0.0.1", server_->port());
  const serve::ClientResponse h = probe.get("/healthz");
  ASSERT_TRUE(h.ok) << h.error;
  EXPECT_EQ(h.status, 200);
}

TEST_F(ServeSocketTest, OversizedBodyIsRejectedWith413) {
  serve::HttpClient client("127.0.0.1", server_->port());
  const serve::ClientResponse r = client.raw(
      "POST /synth HTTP/1.1\r\nContent-Length: 104857600\r\n\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 413);
}

TEST_F(ServeSocketTest, FragmentedRequestAcrossManyWritesParses) {
  // Raw socket writes split mid-request-line, mid-header and mid-body
  // still produce one well-formed response (incremental parser).
  serve::HttpClient client("127.0.0.1", server_->port());
  const serve::ClientResponse warm = client.get("/healthz");
  ASSERT_TRUE(warm.ok) << warm.error;
  const std::string body = "{\"design\": \"gcd\"}";
  const std::string wire =
      "POST /lint HTTP/1.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  // client.raw sends in one write; emulate fragmentation via many raw
  // sessions cut at every third byte using a plain blocking socket is
  // already covered in-parser; here assert the full wire works end to end.
  const serve::ClientResponse r = client.raw(wire);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(json::valid(r.body));
}

// ------------------------------------------------- concurrency soak

TEST(ServeSoak, ConcurrentMixedLoadZeroErrorsWarmCacheCleanDrain) {
  serve::ServerOptions so;
  so.port = 0;
  so.jobs = 4;
  so.service.defaults.resources = ResourceLimits::universalSet(2);
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  std::thread loop([&] { server.run(); });

  const std::size_t hitsBefore = FrontendCache::global().hits();
  serve::LoadgenOptions lo;
  lo.url = "http://127.0.0.1:" + std::to_string(server.port());
  lo.clients = 6;
  lo.requests = 60;
  lo.mix = "synth:lint:sim:sta:analyze";
  lo.seed = 42;
  lo.reportPath.clear();  // in-process: no report file
  const serve::LoadgenReport rep = serve::runLoadgen(lo);

  EXPECT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_EQ(rep.transportErrors, 0);
  EXPECT_EQ(rep.httpErrors, 0);
  EXPECT_EQ(rep.invalidJson, 0);
  EXPECT_TRUE(rep.clean());
  // Identical sources hammered from many sessions: the shared frontend
  // cache must be doing the deduplication.
  EXPECT_GT(FrontendCache::global().hits(), hitsBefore);
  EXPECT_GT(rep.cacheHitRate, 0.0);

  // Graceful drain: stop returns and the loop thread joins.
  server.requestStop();
  loop.join();
}

TEST(ServeSoak, DeterministicSeedSendsSameSchedule) {
  // Same seed -> byte-identical planned request set. Observed through
  // the daemon's request counters: two identical campaigns move the
  // per-endpoint histogram counts by the same amount.
  serve::ServerOptions so;
  so.port = 0;
  so.jobs = 2;
  so.service.defaults.resources = ResourceLimits::universalSet(2);
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  std::thread loop([&] { server.run(); });

  auto endpointCounts = [&] {
    std::vector<std::uint64_t> counts;
    const auto snap = obs::MetricsRegistry::global().snapshot();
    for (const auto& [name, h] : snap.histograms)
      if (name.rfind("serve./", 0) == 0) counts.push_back(h.count);
    return counts;
  };

  serve::LoadgenOptions lo;
  lo.url = "http://127.0.0.1:" + std::to_string(server.port());
  lo.clients = 3;
  lo.requests = 24;
  lo.mix = "lint:sim";
  lo.seed = 99;
  lo.reportPath.clear();

  const auto before = endpointCounts();
  ASSERT_TRUE(serve::runLoadgen(lo).clean());
  const auto mid = endpointCounts();
  ASSERT_TRUE(serve::runLoadgen(lo).clean());
  const auto after = endpointCounts();

  ASSERT_EQ(mid.size(), after.size());
  ASSERT_GE(mid.size(), before.size());
  // Deltas of run 1 and run 2 match per endpoint.
  for (std::size_t i = 0; i < mid.size(); ++i) {
    const std::uint64_t b = i < before.size() ? before[i] : 0;
    EXPECT_EQ(mid[i] - b, after[i] - mid[i]) << "endpoint slot " << i;
  }

  server.requestStop();
  loop.join();
}

// ------------------------------------------------------- loadgen cli

TEST(ServeLoadgen, UrlParserAcceptsOnlyHttpHostPort) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(serve::parseUrl("http://127.0.0.1:8080", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_TRUE(serve::parseUrl("http://localhost:1/", host, port));
  EXPECT_FALSE(serve::parseUrl("https://127.0.0.1:8080", host, port));
  EXPECT_FALSE(serve::parseUrl("http://:8080", host, port));
  EXPECT_FALSE(serve::parseUrl("http://h:0", host, port));
  EXPECT_FALSE(serve::parseUrl("http://h:999999", host, port));
  EXPECT_FALSE(serve::parseUrl("http://h:80x", host, port));
  EXPECT_FALSE(serve::parseUrl("127.0.0.1:8080", host, port));
}

TEST(ServeLoadgen, RejectsUnknownMixAndUnreachableDaemon) {
  serve::LoadgenOptions lo;
  lo.url = "http://127.0.0.1:1";  // nothing listens on port 1
  lo.mix = "synth:teapot";
  lo.reportPath.clear();
  const serve::LoadgenReport bad = serve::runLoadgen(lo);
  EXPECT_FALSE(bad.error.empty());

  lo.mix = "synth";
  const serve::LoadgenReport unreachable = serve::runLoadgen(lo);
  EXPECT_FALSE(unreachable.error.empty());
}

}  // namespace
}  // namespace mphls
