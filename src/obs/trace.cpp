#include "obs/trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "obs/flight_recorder.h"

namespace mphls::obs {

struct Tracer::ThreadBuf {
  int tid = 0;
  std::mutex m;  ///< guards name, events, live (owner writes, exporter reads)
  std::string name;
  std::vector<TraceEvent> events;
  bool live = true;  ///< its thread has not exited
};

// The calling thread's track. Keyed by owner so a thread touching a second
// Tracer instance re-registers there. When the thread exits (or moves to
// another tracer) the track is handed back: a track that holds no events
// leaves the registry, so short-lived threads that never recorded (every
// pool worker while tracing is off) do not pile up. The owner must outlive
// the thread; Tracer::global() does.
struct Tracer::TrackLease {
  Tracer* owner = nullptr;
  std::shared_ptr<ThreadBuf> buf;

  TrackLease() = default;
  TrackLease(const TrackLease&) = delete;
  TrackLease& operator=(const TrackLease&) = delete;
  ~TrackLease() { release(); }

  void release() {
    if (owner != nullptr) owner->releaseTrack(buf);
    owner = nullptr;
    buf.reset();
  }
};

namespace {

thread_local Tracer::TrackLease tlsTrack;

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}
Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::localBuf() {
  TrackLease& lease = tlsTrack;
  if (lease.owner == this) return *lease.buf;
  lease.release();
  auto buf = std::make_shared<ThreadBuf>();
  {
    std::lock_guard<std::mutex> lk(m_);
    buf->tid = nextTid_++;
    buf->name = "thread-" + std::to_string(buf->tid);
    threads_.push_back(buf);
  }
  lease.owner = this;
  lease.buf = buf;
  return *buf;
}

void Tracer::releaseTrack(const std::shared_ptr<ThreadBuf>& buf) {
  std::lock_guard<std::mutex> lk(m_);
  std::lock_guard<std::mutex> bl(buf->m);
  if (buf->events.empty())
    threads_.erase(std::find(threads_.begin(), threads_.end(), buf));
  else
    buf->live = false;
}

int Tracer::currentTid() { return localBuf().tid; }

std::string Tracer::currentThreadName() {
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  return b.name;
}

int Tracer::setThreadName(const std::string& name) {
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  b.name = name;
  return b.tid;
}

void Tracer::beginSpanAt(std::string name, double tsMicros,
                         std::string arg) {
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) fr.record('B', LogLevel::Info, "trace", name);
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  b.events.push_back({std::move(name), std::move(arg), 'B', tsMicros});
}

void Tracer::endSpanAt(std::string name, double tsMicros) {
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) fr.record('E', LogLevel::Info, "trace", name);
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lk(b.m);
  b.events.push_back({std::move(name), std::string(), 'E', tsMicros});
}

void Tracer::instant(std::string name, std::string arg) {
  if (!enabled()) return;
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) fr.record('i', LogLevel::Info, "trace", name);
  ThreadBuf& b = localBuf();
  const double ts = nowMicros();
  std::lock_guard<std::mutex> lk(b.m);
  b.events.push_back({std::move(name), std::move(arg), 'i', ts});
}

std::vector<Tracer::TrackSnapshot> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(m_);
    bufs = threads_;
  }
  std::vector<TrackSnapshot> out;
  out.reserve(bufs.size());
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->m);
    out.push_back({b->tid, b->name, b->events});
  }
  return out;
}

std::size_t Tracer::eventCount() const {
  std::size_t n = 0;
  for (const auto& t : snapshot()) n += t.events.size();
  return n;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(m_);
  threads_.erase(std::remove_if(threads_.begin(), threads_.end(),
                                [](const std::shared_ptr<ThreadBuf>& b) {
                                  std::lock_guard<std::mutex> bl(b->m);
                                  b->events.clear();
                                  return !b->live;
                                }),
                 threads_.end());
}

namespace {

/// Length of the valid UTF-8 sequence starting at s[i], or 0 if the
/// bytes there are not well-formed (overlong forms, surrogates, and
/// code points above U+10FFFF all count as invalid).
std::size_t utf8SequenceLength(std::string_view s, std::size_t i) {
  const auto b0 = static_cast<unsigned char>(s[i]);
  if (b0 < 0x80) return 1;
  std::size_t len = 0;
  if ((b0 & 0xe0) == 0xc0) len = 2;
  else if ((b0 & 0xf0) == 0xe0) len = 3;
  else if ((b0 & 0xf8) == 0xf0) len = 4;
  else return 0;
  if (i + len > s.size()) return 0;
  std::uint32_t cp = b0 & (0x7f >> len);
  for (std::size_t k = 1; k < len; ++k) {
    const auto b = static_cast<unsigned char>(s[i + k]);
    if ((b & 0xc0) != 0x80) return 0;
    cp = (cp << 6) | (b & 0x3f);
  }
  static constexpr std::uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800,
                                                  0x10000};
  if (cp < kMinForLen[len]) return 0;                // overlong encoding
  if (cp >= 0xd800 && cp <= 0xdfff) return 0;       // UTF-16 surrogate
  if (cp > 0x10ffff) return 0;                      // beyond Unicode
  return len;
}

}  // namespace

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x80) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
      ++i;
      continue;
    }
    const std::size_t len = utf8SequenceLength(s, i);
    if (len == 0) {
      out += "\xef\xbf\xbd";  // U+FFFD per invalid byte
      ++i;
    } else {
      out.append(s.data() + i, len);
      i += len;
    }
  }
  out += '"';
}

std::string Tracer::chromeTraceJson() const {
  const auto tracks = snapshot();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    out += "\n  ";
    first = false;
  };
  for (const auto& t : tracks) {
    sep();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(t.tid) + ", \"args\": {\"name\": ";
    appendJsonString(out, t.name);
    out += "}}";
  }
  char ts[40];
  for (const auto& t : tracks) {
    for (const TraceEvent& e : t.events) {
      sep();
      out += "{\"name\": ";
      appendJsonString(out, e.name);
      out += ", \"cat\": \"mphls\", \"ph\": \"";
      out += e.phase;
      out += "\", \"pid\": 1, \"tid\": " + std::to_string(t.tid);
      std::snprintf(ts, sizeof ts, ", \"ts\": %.3f", e.tsMicros);
      out += ts;
      if (e.phase == 'i') out += ", \"s\": \"t\"";
      if (!e.arg.empty()) {
        out += ", \"args\": {\"detail\": ";
        appendJsonString(out, e.arg);
        out += "}";
      }
      out += "}";
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << chromeTraceJson();
  return static_cast<bool>(out);
}

}  // namespace mphls::obs
