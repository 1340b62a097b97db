// The daemon's socket layer: a poll()-based event loop that owns every
// file descriptor, with request handling fanned out onto the server's own
// FIFO ThreadPool of `jobs` workers.
//
// Threading model (see DESIGN.md §14):
//   - The loop thread (the caller of run()) does ALL socket I/O: accept,
//     read, write, close. It also owns each connection's HttpParser.
//   - A complete request flips the connection to `busy` and is submitted
//     to the pool. The worker runs Service::handle, renders the wire
//     bytes, appends them to the connection's output buffer under its
//     mutex, clears `busy`, and wakes the loop through the self-pipe.
//   - The loop never parses past a busy connection (no concurrent
//     handling of pipelined requests on one session) and never closes a
//     busy connection, so a worker's connection pointer stays valid for
//     the task's whole life.
//
// Backpressure: at most `maxConnections` sessions; excess accepts get an
// immediate 503 and close. Request bodies are capped by HttpLimits (413).
//
// Shutdown: requestStop() is async-signal-safe (one byte down the
// self-pipe) — SIGTERM handlers call it directly. The loop then stops
// accepting, lets in-flight requests finish and their responses drain,
// closes idle sessions, and returns from run().
#pragma once

#include <cstdint>
#include <string>

#include "serve/http.h"
#include "serve/service.h"

namespace mphls::serve {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Worker threads; <= 0 means one per hardware thread.
  int jobs = 0;
  /// Accept cap; sessions beyond it are answered 503 and closed.
  int maxConnections = 256;
  HttpLimits limits;
  ServiceOptions service;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on 127.0.0.1. Returns false with `error` filled on
  /// failure. Must be called (successfully) before run().
  [[nodiscard]] bool start(std::string& error);

  /// The bound port (after start()); resolves port 0 to the real one.
  [[nodiscard]] int port() const { return port_; }

  /// Serve until requestStop(). Runs the event loop on the calling
  /// thread; returns once every in-flight request has drained.
  void run();

  /// Ask the loop to shut down gracefully. Async-signal-safe and
  /// thread-safe: only writes one byte to the self-pipe.
  void requestStop();

  /// Sessions accepted so far (includes 503-rejected ones).
  [[nodiscard]] std::uint64_t sessionsOpened() const { return nextSession_; }

 private:
  struct Impl;

  ServerOptions opts_;
  int port_ = 0;
  int listenFd_ = -1;
  int wakeRead_ = -1;   ///< self-pipe read end (loop polls it)
  int wakeWrite_ = -1;  ///< self-pipe write end (workers + signals)
  std::uint64_t nextSession_ = 0;

  Impl* impl_ = nullptr;
};

}  // namespace mphls::serve
