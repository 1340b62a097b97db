// A small work-stealing thread pool for the synthesis-throughput layer.
//
// Design-space exploration synthesizes many independent design points
// (Section 1.2: "several designs for the same specification in a
// reasonable amount of time"); the pool lets those points run
// concurrently. Each worker owns a deque: it pushes and pops its own
// work LIFO (cache-warm) and steals FIFO from the other workers when its
// deque runs dry, so an uneven sweep (e.g. branch-and-bound points next
// to list-scheduled ones) still keeps every thread busy.
//
// Determinism contract: the pool schedules *execution*, never *results*.
// Callers hand every task a distinct output slot (see parallelFor), so
// the values produced are identical at any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mphls {

class ThreadPool {
 public:
  /// Spawns `numThreads` workers (clamped to >= 1). Each worker registers
  /// a stable tracer track named "<namePrefix>-<index>" so spans executed
  /// on the pool land on named per-worker lanes in the trace viewer; the
  /// constructor returns once every worker has registered.
  explicit ThreadPool(int numThreads, std::string namePrefix = "pool");

  /// Joins all workers after draining the queues.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a callable; returns a future for its result. Tasks submitted
  /// from a worker thread go to that worker's own deque (LIFO), others are
  /// distributed round-robin.
  template <typename F>
  auto submit(F f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> fut = task->get_future();
    push([task] { (*task)(); });
    return fut;
  }

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }

  /// Index of the calling thread within this pool, or -1 for outsiders.
  [[nodiscard]] int currentWorker() const;

  /// Stable tracer track name of worker `i` ("<namePrefix>-<i>").
  [[nodiscard]] std::string workerName(int i) const;

  /// Tracer track id (obs::Tracer tid) of worker `i`, or -1 if there is no
  /// such worker.
  [[nodiscard]] int workerTraceTid(int i) const;

  /// std::thread::hardware_concurrency with a >= 1 floor.
  [[nodiscard]] static int hardwareConcurrency();

 private:
  struct WorkerQueue {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  friend void parallelFor(ThreadPool*, std::size_t,
                          const std::function<void(std::size_t)>&);

  void push(std::function<void()> f);
  bool popOrSteal(std::size_t self, std::function<void()>& out);
  void workerLoop(std::size_t idx);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::string namePrefix_;
  /// Tracer tid per worker; written by the worker thread on startup,
  /// before the constructor returns.
  std::vector<int> traceTids_;
  std::vector<std::thread> threads_;
  std::mutex wakeMutex_;  ///< also guards traceTids_ and started_
  std::condition_variable wake_;
  std::condition_variable allStarted_;
  std::size_t started_ = 0;  ///< workers that have registered
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pending_{0};   ///< queued, not yet popped
  std::atomic<std::size_t> nextQueue_{0}; ///< round-robin submission cursor
};

/// Resolve a `jobs` option to a worker count: <= 0 means "one per hardware
/// thread", anything else is taken literally.
[[nodiscard]] int resolveJobs(int jobs);

/// Run `fn(index)` for every index in [0, n). The calling thread is one of
/// the runners: it claims indices off a shared counter alongside up to
/// min(n - 1, pool->size()) pool workers, so work meant to run N wide
/// needs a pool of N - 1 workers, and a one-worker pool runs two wide.
/// Blocks until every iteration has finished, then rethrows the exception
/// of the lowest index that threw; with a pool, every index runs even when
/// some throw. A null pool runs the iterations inline in index order and
/// stops at the first exception (the jobs = 1 path), so the caller sees
/// the same exception at any width. A worker that has not started its
/// share by the time the caller runs out of indices is dropped rather than
/// awaited, so a call from inside a pool task cannot wait on its own queue.
void parallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace mphls
