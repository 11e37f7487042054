#include "pipeline/thread_pool.hpp"

#include "obs/metrics.hpp"

namespace ohd::pipeline {

namespace {

// Instrument handles resolved once: registration is mutex-serialized but the
// references stay valid for the process lifetime (obs::registry() is never
// torn down), so the hot path records through raw atomics.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::LatencyHistogram& task_wait_ns;
  obs::LatencyHistogram& task_run_ns;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{obs::registry().gauge("pool.queue_depth"),
                       obs::registry().histogram("pool.task_wait_ns"),
                       obs::registry().histogram("pool.task_run_ns")};
  return m;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
  Task task{std::move(fn), obs::enabled() ? obs::now_ns() : 0};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("submit() on a stopping ThreadPool");
    }
    queue_.push_back(std::move(task));
    pool_metrics().queue_depth.add(1);
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      pool_metrics().queue_depth.sub(1);
    }
    if (task.enqueue_ns != 0) {
      PoolMetrics& m = pool_metrics();
      const std::uint64_t start_ns = obs::now_ns();
      m.task_wait_ns.record(start_ns - task.enqueue_ns);
      task.fn();  // packaged_task captures exceptions into the future
      m.task_run_ns.record(obs::now_ns() - start_ns);
    } else {
      task.fn();
    }
  }
}

}  // namespace ohd::pipeline
