// A small FIFO thread pool for the synthesis-throughput layer.
//
// Design-space exploration synthesizes many independent design points
// (Section 1.2: "several designs for the same specification in a
// reasonable amount of time"); the pool lets those points run
// concurrently. Its workers take tasks from one queue in submission
// order. Uneven work needs no per-worker queues: parallelFor hands out
// indices off a shared counter, so a runner that finishes early claims
// the next one.
//
// Determinism contract: the pool schedules *execution*, never *results*.
// Callers hand every task a distinct output slot (see parallelFor), so
// the values produced are identical at any thread count.
#pragma once

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

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a callable; returns a future for its result. Workers run
  /// queued tasks in submission order.
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
  friend void parallelFor(ThreadPool*, std::size_t,
                          const std::function<void(std::size_t)>&);

  void push(std::function<void()> f);
  void workerLoop(std::size_t idx);

  std::string namePrefix_;
  std::mutex mutex_;  ///< guards queue_, traceTids_, started_ and stop_
  /// Signals a queued task or stop_ to the workers, and each worker's
  /// registration to the constructor.
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  /// Tracer tid per worker; written by the worker thread on startup,
  /// before the constructor returns.
  std::vector<int> traceTids_;
  std::size_t started_ = 0;  ///< workers that have registered
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< last: the workers use the above
};

/// Resolve a `jobs` option to a worker count: <= 0 means "one per hardware
/// thread", anything else is taken literally.
[[nodiscard]] int resolveJobs(int jobs);

/// How wide parallelFor should run `items` work items at `jobs`:
/// resolveJobs(jobs), but no wider than there are items, and at least 1.
/// Running W wide takes a pool of W - 1 workers, and none at width 1.
[[nodiscard]] int poolWidth(int jobs, std::size_t items);

/// The pool that runs `items` work items poolWidth(jobs, items) wide
/// beside the calling thread: width - 1 workers named "<prefix>-<k>", or
/// null at width 1, where parallelFor runs inline. There is one pool per
/// (prefix, width) for the life of the process, for callers such as DSE
/// sweeps that take a few milliseconds, where spawning and joining threads
/// on every call would cost a visible share. The pools are never
/// destroyed; joining them from a static destructor could run after
/// obs::Tracer::global(), whose tracks the workers hold, has gone.
[[nodiscard]] ThreadPool* sharedPool(const std::string& prefix, int jobs,
                                     std::size_t items);

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
