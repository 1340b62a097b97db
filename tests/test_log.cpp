// Structured-logging battery: JSONL record shape and field types, level
// filtering, token-bucket rate limiting, flight-recorder rings (record,
// wraparound, signal-safe dump, in-process SIGQUIT crash capture), the
// Prometheus text exposition with its histogram invariants, the
// /debug/flight and /metrics?format= service routes, and the per-request
// access log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace mphls {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("mphls-log-test-" + tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Restores the logger to its silent default when a test exits.
struct LoggerReset {
  LoggerReset() { obs::Logger::global().resetForTest(); }
  ~LoggerReset() { obs::Logger::global().resetForTest(); }
};

std::vector<std::string> readLines(const fs::path& p) {
  std::ifstream in(p);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// ------------------------------------------------------------- logger

TEST(Log, ParseAndNameRoundTrip) {
  using obs::LogLevel;
  EXPECT_EQ(obs::parseLogLevel("debug"), LogLevel::Debug);
  EXPECT_EQ(obs::parseLogLevel("info"), LogLevel::Info);
  EXPECT_EQ(obs::parseLogLevel("warn"), LogLevel::Warn);
  EXPECT_EQ(obs::parseLogLevel("warning"), LogLevel::Warn);
  EXPECT_EQ(obs::parseLogLevel("error"), LogLevel::Error);
  EXPECT_EQ(obs::parseLogLevel("off"), LogLevel::Off);
  EXPECT_EQ(obs::parseLogLevel("bogus"), LogLevel::Off);
  EXPECT_STREQ(obs::logLevelName(LogLevel::Info), "info");
  EXPECT_STREQ(obs::logLevelName(LogLevel::Error), "error");
}

TEST(Log, DisabledByDefaultAndCheapToAsk) {
  LoggerReset guard;
  auto& lg = obs::Logger::global();
  EXPECT_EQ(lg.level(), obs::LogLevel::Off);
  EXPECT_FALSE(lg.enabled(obs::LogLevel::Error));
  // Calls below threshold are no-ops; nothing to observe, must not crash.
  lg.info("test", "into the void", {{"n", 1}});
}

TEST(Log, JsonlRecordShapeAndFieldTypes) {
  LoggerReset guard;
  TempDir tmp("jsonl");
  const fs::path file = tmp.path / "app.log";
  auto& lg = obs::Logger::global();
  ASSERT_TRUE(lg.openFile(file.string()));
  lg.setLevel(obs::LogLevel::Debug);

  lg.info("serve", "request",
          {{"endpoint", "/synth"},
           {"status", 200},
           {"ms", 1.5},
           {"hit", true},
           {"neg", -7},
           {"big", (unsigned long long)0xffffffffffffffffULL}});
  lg.error("core", "weird \"msg\"\nwith\tescapes");
  lg.resetForTest();  // closes + flushes the sink

  const auto lines = readLines(file);
  ASSERT_EQ(lines.size(), 2u);
  auto rec = json::parse(lines[0]);
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->getString("level"), "info");
  EXPECT_EQ(rec->getString("component"), "serve");
  EXPECT_EQ(rec->getString("msg"), "request");
  EXPECT_EQ(rec->getString("endpoint"), "/synth");
  EXPECT_EQ(rec->getNumber("status"), 200);
  EXPECT_DOUBLE_EQ(rec->getNumber("ms"), 1.5);
  EXPECT_TRUE(rec->getBool("hit"));
  EXPECT_EQ(rec->getNumber("neg"), -7);
  EXPECT_EQ(rec->getNumber("big"), 18446744073709551615.0);
  // Timestamps are ISO-8601 UTC with millisecond precision.
  const std::string ts = rec->getString("ts");
  ASSERT_EQ(ts.size(), 24u) << ts;
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts.back(), 'Z');

  auto rec2 = json::parse(lines[1]);
  ASSERT_TRUE(rec2);
  EXPECT_EQ(rec2->getString("level"), "error");
  EXPECT_EQ(rec2->getString("msg"), "weird \"msg\"\nwith\tescapes");
}

TEST(Log, LevelFiltering) {
  LoggerReset guard;
  TempDir tmp("filter");
  const fs::path file = tmp.path / "app.log";
  auto& lg = obs::Logger::global();
  ASSERT_TRUE(lg.openFile(file.string()));
  lg.setLevel(obs::LogLevel::Warn);
  EXPECT_FALSE(lg.enabled(obs::LogLevel::Debug));
  EXPECT_FALSE(lg.enabled(obs::LogLevel::Info));
  EXPECT_TRUE(lg.enabled(obs::LogLevel::Warn));
  EXPECT_TRUE(lg.enabled(obs::LogLevel::Error));

  lg.debug("test", "below");
  lg.info("test", "below");
  lg.warn("test", "kept-warn");
  lg.error("test", "kept-error");
  lg.resetForTest();

  const auto lines = readLines(file);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("kept-warn"), std::string::npos);
  EXPECT_NE(lines[1].find("kept-error"), std::string::npos);
}

TEST(Log, RateLimitDropsAndAnnounces) {
  LoggerReset guard;
  TempDir tmp("rate");
  const fs::path file = tmp.path / "app.log";
  auto& lg = obs::Logger::global();
  ASSERT_TRUE(lg.openFile(file.string()));
  lg.setLevel(obs::LogLevel::Info);
  // Sustained rate near zero, burst of 3: exactly the first 3 records of
  // a tight loop are admitted, the rest counted as dropped.
  lg.setRateLimit(0.0001, 3);
  for (int i = 0; i < 50; ++i) lg.info("test", "burst " + std::to_string(i));
  EXPECT_EQ(lg.dropped(), 47u);

  // Refilling the bucket admits a record that announces the drops.
  lg.setRateLimit(1000, 3);
  lg.info("test", "after the storm");
  lg.resetForTest();

  const auto lines = readLines(file);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines[0].find("burst 0"), std::string::npos);
  EXPECT_NE(lines[2].find("burst 2"), std::string::npos);
  bool announced = false;
  for (const auto& l : lines)
    if (l.find("rate limited") != std::string::npos &&
        l.find("47") != std::string::npos)
      announced = true;
  EXPECT_TRUE(announced) << "drop notice missing";
}

// ---------------------------------------------------- flight recorder

TEST(Flight, RecordWrapAndDecode) {
  auto& fr = obs::FlightRecorder::global();
  fr.enable(8);  // idempotent; first capacity wins across the binary
  fr.clearForTest();
  ASSERT_TRUE(fr.enabled());
  const std::size_t cap = fr.capacityPerThread();
  ASSERT_GE(cap, 8u);

  const std::uint64_t total0 = fr.totalRecorded();
  const int n = static_cast<int>(cap) + 5;  // force wraparound
  for (int i = 0; i < n; ++i)
    fr.record('L', obs::LogLevel::Info, "test", "evt " + std::to_string(i));
  EXPECT_EQ(fr.totalRecorded() - total0, (std::uint64_t)n);

  auto doc = json::parse(fr.toJson());
  ASSERT_TRUE(doc);
  const json::Node* meta = doc->get("flight_recorder");
  ASSERT_TRUE(meta);
  EXPECT_EQ(meta->getNumber("capacity_per_thread"), (double)cap);
  const json::Node* events = doc->get("events");
  ASSERT_TRUE(events);
  ASSERT_EQ(events->size(), cap);  // ring keeps the newest `cap`
  // Sorted by seq, and the survivors are the most recent events.
  double lastSeq = -1;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Node* e = events->at(i);
    EXPECT_GT(e->getNumber("seq"), lastSeq);
    lastSeq = e->getNumber("seq");
    EXPECT_EQ(e->getString("component"), "test");
    EXPECT_EQ(e->getString("kind"), "log");
  }
  const json::Node* last = events->at(events->size() - 1);
  EXPECT_EQ(last->getString("msg"), "evt " + std::to_string(n - 1));
}

TEST(Flight, TruncatesAndSanitizesInlineBuffers) {
  auto& fr = obs::FlightRecorder::global();
  fr.enable(8);
  fr.clearForTest();
  const std::string longMsg(300, 'x');
  fr.record('L', obs::LogLevel::Warn, "a-very-long-component-name",
            "tab\tquote\"backslash\\" + longMsg);
  auto doc = json::parse(fr.toJson());
  ASSERT_TRUE(doc);
  const json::Node* events = doc->get("events");
  ASSERT_TRUE(events);
  ASSERT_GE(events->size(), 1u);
  const json::Node* e = events->at(events->size() - 1);
  EXPECT_LT(e->getString("component").size(), 18u);
  EXPECT_LT(e->getString("msg").size(), 96u);
  EXPECT_EQ(e->getString("level"), "warn");
}

TEST(Flight, DumpToFileIsParseableJsonl) {
  TempDir tmp("flight");
  auto& fr = obs::FlightRecorder::global();
  fr.enable(8);
  fr.clearForTest();
  fr.record('i', obs::LogLevel::Info, "test", "marker-in-dump");
  const fs::path dump = tmp.path / "flight.dump";
  ASSERT_TRUE(fr.dumpToFile(dump.string().c_str()));

  const auto lines = readLines(dump);
  ASSERT_GE(lines.size(), 2u);  // meta line + >= 1 event
  auto meta = json::parse(lines[0]);
  ASSERT_TRUE(meta);
  ASSERT_TRUE(meta->has("flight_recorder"));
  EXPECT_GE(meta->get("flight_recorder")->getNumber("total_recorded"), 1.0);
  bool sawMarker = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto e = json::parse(lines[i]);
    ASSERT_TRUE(e) << "unparseable dump line: " << lines[i];
    if (e->getString("msg") == "marker-in-dump") {
      sawMarker = true;
      EXPECT_EQ(e->getString("kind"), "instant");
    }
  }
  EXPECT_TRUE(sawMarker);
}

TEST(Flight, LoggerForwardsIntoRing) {
  LoggerReset guard;
  auto& fr = obs::FlightRecorder::global();
  fr.enable(8);
  fr.clearForTest();
  auto& lg = obs::Logger::global();
  lg.refresh();
  // No sink configured: the record reaches only the flight ring. The
  // combined threshold must report Debug as enabled while the flight
  // recorder is on.
  EXPECT_TRUE(lg.enabled(obs::LogLevel::Debug));
  lg.setRateLimit(0.0001, 1);  // flight forwarding ignores the limiter
  for (int i = 0; i < 10; ++i)
    lg.warn("fwd", "ring " + std::to_string(i), {{"i", i}});
  auto doc = json::parse(fr.toJson());
  ASSERT_TRUE(doc);
  const json::Node* events = doc->get("events");
  ASSERT_TRUE(events);
  int seen = 0;
  for (std::size_t i = 0; i < events->size(); ++i)
    if (events->at(i)->getString("component") == "fwd") ++seen;
  EXPECT_EQ(seen, 8) << "ring of 8 should hold the newest 8 records";
}

TEST(Flight, SigquitDumpsAndProcessContinues) {
  LoggerReset guard;
  TempDir tmp("sigquit");
  const fs::path dump = tmp.path / "crash.dump";
  obs::FlightRecorder::installCrashHandlers(dump.string().c_str());
  EXPECT_STREQ(obs::FlightRecorder::crashDumpPath(), dump.string().c_str());
  auto& fr = obs::FlightRecorder::global();
  fr.clearForTest();
  fr.record('L', obs::LogLevel::Error, "crash", "last words");

  ASSERT_EQ(::raise(SIGQUIT), 0);
  // Still alive: the SIGQUIT handler dumps and returns.

  const auto lines = readLines(dump);
  ASSERT_GE(lines.size(), 2u);
  bool sawLastWords = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto e = json::parse(lines[i]);
    ASSERT_TRUE(e) << "unparseable dump line: " << lines[i];
    if (e->getString("msg") == "last words" &&
        e->getString("level") == "error")
      sawLastWords = true;
  }
  EXPECT_TRUE(sawLastWords);
  // Handlers for SIGQUIT stay installed; later tests are unaffected
  // because the handler only writes the registered file.
}

// ---------------------------------------------- histogram + prometheus

TEST(Metrics, HistogramBucketsCumulative) {
  auto& h = obs::MetricsRegistry::global().histogram("test.log.buckets");
  h.reset();
  h.observe(0.0001);  // below first bound -> bucket 0
  h.observe(0.003);   // (0.0025, 0.005] -> bucket 3
  h.observe(100.0);   // above all bounds -> +Inf bucket
  const auto s = h.stats();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.bucketTotal(), 3u);
  EXPECT_EQ(s.buckets.front(), 1u);
  EXPECT_EQ(s.buckets.back(), 1u);
  std::uint64_t mid = 0;
  for (std::size_t i = 1; i + 1 < s.buckets.size(); ++i) mid += s.buckets[i];
  EXPECT_EQ(mid, 1u);
}

TEST(Metrics, PrometheusExposition) {
  auto& mr = obs::MetricsRegistry::global();
  mr.counter("test.prom.count").add(3);
  mr.gauge("test.prom/gauge").set(1.25);
  auto& h = mr.histogram("test.prom.lat");
  h.reset();
  h.observe(0.002);
  h.observe(0.2);
  const std::string text = mr.toPrometheus();

  // Counters get _total and a TYPE line; names are sanitized.
  EXPECT_NE(text.find("# TYPE mphls_test_prom_count_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mphls_test_prom_count_total 3"), std::string::npos);
  EXPECT_NE(text.find("mphls_test_prom_gauge 1.25"), std::string::npos);
  // Histogram: bucket series, +Inf, _sum, _count.
  EXPECT_NE(text.find("# TYPE mphls_test_prom_lat histogram"),
            std::string::npos);
  EXPECT_NE(text.find("mphls_test_prom_lat_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("mphls_test_prom_lat_count 2"), std::string::npos);
  EXPECT_NE(text.find("mphls_test_prom_lat_sum"), std::string::npos);

  // Bucket counts are cumulative (monotone non-decreasing by le).
  std::istringstream in(text);
  std::string line;
  double last = -1;
  int bucketLines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("mphls_test_prom_lat_bucket", 0) != 0) continue;
    ++bucketLines;
    const double v = std::stod(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, last) << line;
    last = v;
  }
  EXPECT_EQ(bucketLines, (int)obs::Histogram::kNumBuckets);
}

TEST(ObsConcurrency, SnapshotWhileObserving) {
  auto& mr = obs::MetricsRegistry::global();
  auto& h = mr.histogram("test.conc.hist");
  h.reset();
  std::atomic<bool> stop{false};
  std::thread writers[3];
  for (auto& t : writers)
    t = std::thread([&] {
      for (int i = 0; !stop.load(std::memory_order_relaxed) && i < 200000;
           ++i)
        h.observe(0.001 * (i % 64));
    });
  for (int i = 0; i < 50; ++i) {
    const auto s = h.stats();
    EXPECT_LE(s.count, 600000u);
    (void)mr.toPrometheus();
    (void)mr.toJson();
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  const auto s = h.stats();
  EXPECT_EQ(s.count, s.bucketTotal());
  EXPECT_GE(s.max, s.min);
}

// ------------------------------------------------------ service routes

TEST(ServeObs, PrometheusFormatAndDebugFlight) {
  obs::FlightRecorder::global().enable(8);
  serve::Service svc;
  serve::HttpRequest get;
  get.method = "GET";
  get.version = "HTTP/1.1";

  get.target = "/metrics?format=prometheus";
  const serve::ServiceResponse prom = svc.handle(get, 1);
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.contentType, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(prom.body.find("# TYPE mphls_"), std::string::npos);

  get.target = "/metrics?format=yaml";
  EXPECT_EQ(svc.handle(get, 1).status, 400);

  get.target = "/metrics?format=json";
  const serve::ServiceResponse js = svc.handle(get, 1);
  EXPECT_EQ(js.status, 200);
  EXPECT_EQ(js.contentType, "application/json");
  EXPECT_TRUE(json::valid(js.body));

  get.target = "/debug/flight";
  const serve::ServiceResponse fl = svc.handle(get, 1);
  EXPECT_EQ(fl.status, 200);
  auto doc = json::parse(fl.body);
  ASSERT_TRUE(doc);
  EXPECT_TRUE(doc->has("flight_recorder"));
  EXPECT_TRUE(doc->has("events"));
}

TEST(ServeObs, AccessLogRecordsRequest) {
  LoggerReset guard;
  TempDir tmp("access");
  const fs::path file = tmp.path / "serve.log";
  auto& lg = obs::Logger::global();
  ASSERT_TRUE(lg.openFile(file.string()));
  lg.setLevel(obs::LogLevel::Info);

  serve::Service svc;
  serve::HttpRequest get;
  get.method = "GET";
  get.target = "/healthz?probe=1";
  get.version = "HTTP/1.1";
  EXPECT_EQ(svc.handle(get, 42).status, 200);
  lg.resetForTest();

  const auto lines = readLines(file);
  ASSERT_GE(lines.size(), 1u);
  const json::Node* access = nullptr;
  std::vector<std::unique_ptr<json::Node>> docs;
  for (const auto& l : lines) {
    docs.push_back(json::parse(l));
    ASSERT_TRUE(docs.back()) << l;
    if (docs.back()->getString("msg") == "request") access = docs.back().get();
  }
  ASSERT_TRUE(access) << "no access-log record";
  EXPECT_EQ(access->getString("component"), "serve");
  EXPECT_EQ(access->getString("method"), "GET");
  // The query string is stripped from the endpoint label.
  EXPECT_EQ(access->getString("endpoint"), "/healthz");
  EXPECT_EQ(access->getNumber("status"), 200);
  EXPECT_EQ(access->getNumber("session"), 42);
  EXPECT_GE(access->getNumber("ms"), 0.0);
  EXPECT_TRUE(access->get("cache_hit") != nullptr);
}

}  // namespace
}  // namespace mphls
