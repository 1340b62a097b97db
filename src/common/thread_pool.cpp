#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "obs/trace.h"

namespace mphls {

namespace {

// Worker identity for currentWorker(): which pool (if any) owns the calling
// thread, and its index there.
thread_local const ThreadPool* tlsPool = nullptr;
thread_local int tlsWorker = -1;

}  // namespace

ThreadPool::ThreadPool(int numThreads, std::string namePrefix)
    : namePrefix_(std::move(namePrefix)) {
  if (numThreads < 1) numThreads = 1;
  traceTids_.assign(static_cast<std::size_t>(numThreads), -1);
  queues_.reserve(static_cast<std::size_t>(numThreads));
  for (int i = 0; i < numThreads; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  threads_.reserve(static_cast<std::size_t>(numThreads));
  for (int i = 0; i < numThreads; ++i)
    threads_.emplace_back(
        [this, i] { workerLoop(static_cast<std::size_t>(i)); });
  std::unique_lock<std::mutex> lk(wakeMutex_);
  allStarted_.wait(lk, [this] { return started_ == threads_.size(); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Pairs with the predicate re-check under wakeMutex_ in workerLoop so
    // no worker can miss the stop signal between its check and its wait.
    std::lock_guard<std::mutex> lk(wakeMutex_);
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

int ThreadPool::currentWorker() const {
  return tlsPool == this ? tlsWorker : -1;
}

std::string ThreadPool::workerName(int i) const {
  return namePrefix_ + "-" + std::to_string(i);
}

int ThreadPool::workerTraceTid(int i) const {
  if (i < 0 || i >= size()) return -1;
  return traceTids_[static_cast<std::size_t>(i)];
}

int ThreadPool::hardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::push(std::function<void()> f) {
  // A worker submitting from inside a task keeps the work local (LIFO);
  // outside submitters deal queues round-robin.
  std::size_t target;
  if (tlsPool == this) {
    target = static_cast<std::size_t>(tlsWorker);
  } else {
    target = nextQueue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  {
    std::lock_guard<std::mutex> lk(queues_[target]->m);
    queues_[target]->q.push_back(std::move(f));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    // Pairs with the predicate re-check under wakeMutex_ in workerLoop: a
    // worker that found pending_ == 0 is either still before its check or
    // already waiting, so this notify cannot fall between the two.
    std::lock_guard<std::mutex> lk(wakeMutex_);
  }
  wake_.notify_one();
}

bool ThreadPool::popOrSteal(std::size_t self, std::function<void()>& out) {
  // Own deque first, newest-first.
  {
    WorkerQueue& mine = *queues_[self];
    std::lock_guard<std::mutex> lk(mine.m);
    if (!mine.q.empty()) {
      out = std::move(mine.q.back());
      mine.q.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the other workers, starting just after self so
  // victims rotate instead of everyone hammering worker 0.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueue& victim = *queues_[(self + k) % queues_.size()];
    std::lock_guard<std::mutex> lk(victim.m);
    if (!victim.q.empty()) {
      out = std::move(victim.q.front());
      victim.q.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(std::size_t idx) {
  tlsPool = this;
  tlsWorker = static_cast<int>(idx);
  const int tid =
      obs::Tracer::global().setThreadName(workerName(static_cast<int>(idx)));
  {
    std::lock_guard<std::mutex> lk(wakeMutex_);
    traceTids_[idx] = tid;
    ++started_;
  }
  allStarted_.notify_one();
  for (;;) {
    std::function<void()> task;
    if (popOrSteal(idx, task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lk(wakeMutex_);
    wake_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;
  }
}

int resolveJobs(int jobs) {
  return jobs <= 0 ? ThreadPool::hardwareConcurrency() : jobs;
}

namespace {

/// One parallelFor call, shared by its caller and its pool helpers. The
/// helpers hold it by shared_ptr, so one that starts after the call
/// returned still finds `closed` set; `fn` is read only while the call is
/// open.
struct ForLoop {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index

  std::mutex m;  ///< guards the fields below
  std::condition_variable idle;
  int active = 0;       ///< helpers inside run()
  bool closed = false;  ///< the caller ran out of indices; late helpers leave
  std::size_t failedAt = 0;
  std::exception_ptr error;  ///< of the lowest index that threw

  /// Claim and run indices until none are left.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m);
        if (!error || i < failedAt) {
          failedAt = i;
          error = std::current_exception();
        }
      }
    }
  }

  void help() {
    {
      std::lock_guard<std::mutex> lk(m);
      if (closed) return;
      ++active;
    }
    run();
    std::lock_guard<std::mutex> lk(m);
    if (--active == 0) idle.notify_all();
  }
};

}  // namespace

void parallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Dynamic self-scheduling: each runner pulls the next unclaimed index, so
  // uneven per-index cost balances automatically. Output determinism comes
  // from fn writing only to slot `i`.
  auto loop = std::make_shared<ForLoop>();
  loop->n = n;
  loop->fn = &fn;
  const std::size_t helpers =
      std::min(n - 1, static_cast<std::size_t>(pool->size()));
  for (std::size_t h = 0; h < helpers; ++h)
    pool->push([loop] { loop->help(); });
  loop->run();
  {
    std::unique_lock<std::mutex> lk(loop->m);
    loop->closed = true;
    loop->idle.wait(lk, [&] { return loop->active == 0; });
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace mphls
