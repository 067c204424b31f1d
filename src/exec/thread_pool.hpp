/// \file thread_pool.hpp
/// Fixed-size task-queue thread pool (qadd::exec) powering the parallel
/// ε-sweep executor.  The pool is deliberately small and boring: a mutex +
/// condition-variable task queue drained by N worker threads, futures with
/// full exception propagation, and a nested-wait deadlock guard — a
/// parallelFor() issued from inside a worker runs inline instead of blocking
/// on tasks that could never be scheduled.
///
/// Concurrency model of the DD layers (see docs/PARALLELISM.md): a
/// dd::Package and everything hanging off it (unique tables, computed
/// tables, weight interning) is **thread-confined** — each task builds its
/// own package and never shares DD edges across threads.  The pool therefore
/// needs no locking below the task queue; the only process-wide structures
/// touched from workers are the obs::Tracer span buffer (mutex-guarded) and
/// the algebraic small-path tallies (atomic).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace qadd::exec {

/// Worker-count resolution used by the `--jobs` flag: the QADD_JOBS
/// environment variable when set to a positive integer, otherwise the
/// hardware concurrency (at least 1).
[[nodiscard]] std::size_t defaultJobs();

/// True on a thread that is currently executing a pool task.  Used by
/// parallelFor() as its deadlock guard.
[[nodiscard]] bool onWorkerThread();

class ThreadPool {
public:
  /// Spawn `workers` threads.  `workers == 0` is clamped to 1; note that a
  /// 1-worker pool still runs tasks on its (single) worker thread — callers
  /// wanting the strictly serial path should not construct a pool at all
  /// (see parallelFor(), which accepts nullptr).
  explicit ThreadPool(std::size_t workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Joins all workers; queued-but-unstarted tasks still run first.
  ~ThreadPool();

  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  /// Enqueue `fn` and return a future for its result.  Exceptions thrown by
  /// the task are captured and rethrown from future::get().  Safe to call
  /// from worker threads (the task is queued, not executed inline) — but
  /// blocking on the returned future from a worker can deadlock; use
  /// parallelFor() for fork-join patterns.
  template <class F> auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    available_.notify_one();
    return future;
  }

  /// Enqueue a fire-and-forget task: no future, no packaged_task allocation.
  /// The caller is responsible for its own completion signalling (the serve
  /// job queue signals through its tickets).
  void submitDetached(std::function<void()> fn);

private:
  void workerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable available_;
  bool stop_ = false;
};

/// Run `fn(0) .. fn(n-1)`, fanning the indices out across `pool` and waiting
/// for all of them.  Serial fallbacks, all exactly equivalent to the plain
/// loop: `pool == nullptr` (the `--jobs 1` path), `n <= 1`, and calls from
/// inside a pool task (nested fork-join would block a worker on tasks that
/// may never get a thread — the deadlock guard runs them inline instead).
///
/// All indices are waited on even when one throws; the exception of the
/// lowest throwing index is then rethrown, so error reporting does not
/// depend on completion order.
void parallelFor(ThreadPool* pool, std::size_t n, const std::function<void(std::size_t)>& fn);

} // namespace qadd::exec
