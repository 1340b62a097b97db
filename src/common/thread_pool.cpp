#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <utility>

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
  threads_.reserve(static_cast<std::size_t>(numThreads));
  for (int i = 0; i < numThreads; ++i)
    threads_.emplace_back(
        [this, i] { workerLoop(static_cast<std::size_t>(i)); });
  std::unique_lock<std::mutex> lk(mutex_);
  wake_.wait(lk, [this] { return started_ == threads_.size(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
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
  {
    std::lock_guard<std::mutex> lk(mutex_);
    queue_.push_back(std::move(f));
  }
  wake_.notify_one();
}

void ThreadPool::workerLoop(std::size_t idx) {
  tlsPool = this;
  tlsWorker = static_cast<int>(idx);
  const int tid =
      obs::Tracer::global().setThreadName(workerName(static_cast<int>(idx)));
  {
    std::lock_guard<std::mutex> lk(mutex_);
    traceTids_[idx] = tid;
    ++started_;
  }
  // The constructor waits on wake_ too; workers already idle re-check
  // their predicate and sleep again.
  wake_.notify_all();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      wake_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

int resolveJobs(int jobs) {
  return jobs <= 0 ? ThreadPool::hardwareConcurrency() : jobs;
}

int poolWidth(int jobs, std::size_t items) {
  return static_cast<int>(std::clamp<std::size_t>(
      items, 1, static_cast<std::size_t>(resolveJobs(jobs))));
}

ThreadPool* sharedPool(const std::string& prefix, int jobs,
                       std::size_t items) {
  const int width = poolWidth(jobs, items);
  if (width == 1) return nullptr;
  static std::mutex mutex;
  static auto* pools = new std::map<std::pair<std::string, int>, ThreadPool*>;
  std::lock_guard<std::mutex> lock(mutex);
  ThreadPool*& pool = (*pools)[{prefix, width}];
  if (pool == nullptr) pool = new ThreadPool(width - 1, prefix);
  return pool;
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
