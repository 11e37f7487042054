// Fixed-size, futures-based worker pool for the batch pipeline. Deliberately
// work-stealing-free: one FIFO queue, N workers, tasks start in submission
// order. Determinism of batch results does not depend on scheduling at all —
// BatchScheduler merges by chunk id, never by completion order — so the pool
// stays as simple as possible.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace ohd::pipeline {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains nothing: pending tasks still run to completion, then workers
  /// join. Futures obtained from submit() stay valid through destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns its future; the future rethrows any exception
  /// the task threw.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> submit(Fn&& fn) {
    using R = std::invoke_result_t<Fn>;
    // std::function requires copyable targets, so the move-only
    // packaged_task rides in a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

 private:
  /// Queue entry. enqueue_ns is nonzero only when telemetry was enabled at
  /// submit time; the dequeue side keys the wait/run samples off it.
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  void enqueue(std::function<void()> fn);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace ohd::pipeline
