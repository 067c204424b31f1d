#include "exec/thread_pool.hpp"

#include <cstdlib>
#include <exception>
#include <string>

namespace qadd::exec {

namespace {

/// Set while the current thread is executing a pool task.
thread_local bool tlsOnWorker = false;

} // namespace

std::size_t defaultJobs() {
  if (const char* env = std::getenv("QADD_JOBS"); env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return static_cast<std::size_t>(value);
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

bool onWorkerThread() { return tlsOnWorker; }

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t count = workers == 0 ? 1 : workers;
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this]() { workerLoop(); });
  }
}

void ThreadPool::submitDetached(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.emplace_back(std::move(fn));
  }
  available_.notify_one();
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  available_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::workerLoop() {
  tlsOnWorker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      available_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return; // stop_ set and the queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void parallelFor(ThreadPool* pool, std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n <= 1 || onWorkerThread()) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool->submit([&fn, i]() { fn(i); }));
  }
  // Wait for everything before surfacing any failure, then rethrow the
  // exception of the lowest failing index — deterministic regardless of
  // which worker finished first.
  std::exception_ptr firstError;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (firstError == nullptr) {
        firstError = std::current_exception();
      }
    }
  }
  if (firstError != nullptr) {
    std::rethrow_exception(firstError);
  }
}

} // namespace qadd::exec
