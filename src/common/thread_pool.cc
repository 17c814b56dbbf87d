#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {

namespace {

/// Pool instrumentation, resolved once. Queue depth is a gauge (rises on
/// Submit, falls on dequeue); wait and run latencies are histograms in
/// wall nanoseconds; tasks_total counts completed tasks.
struct PoolMetrics {
  obs::Counter* tasks_total;
  obs::Counter* task_exceptions_total;
  obs::Gauge* queue_depth;
  obs::Histogram* task_wait_ns;
  obs::Histogram* task_run_ns;

  static const PoolMetrics& Get() {
    static const PoolMetrics* m = [] {
      auto& reg = obs::MetricRegistry::Default();
      auto* pm = new PoolMetrics();
      pm->tasks_total = reg.GetCounter("imcf_pool_tasks_total",
                                       "Tasks executed by the thread pool");
      pm->task_exceptions_total = reg.GetCounter(
          "imcf_pool_task_exceptions_total",
          "Tasks that threw; the exception was swallowed by the worker");
      pm->queue_depth = reg.GetGauge("imcf_pool_queue_depth",
                                     "Tasks currently queued (not running)");
      pm->task_wait_ns = reg.GetHistogram(
          "imcf_pool_task_wait_ns",
          "Wall time a task spent queued before a worker picked it up",
          obs::LatencyBoundsNs());
      pm->task_run_ns = reg.GetHistogram(
          "imcf_pool_task_run_ns", "Wall time a task spent executing",
          obs::LatencyBoundsNs());
      return pm;
    }();
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = HardwareThreads();
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      // Registering the name before any span gives the flight recorder a
      // labeled lane for this worker (/tracez, Perfetto thread_name).
      obs::FlightRecorder::Default().SetCurrentThreadName(
          StrFormat("pool-%d", i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  // joinable() guards against a worker that failed to start and against a
  // second pass over already-joined threads; clearing afterwards makes the
  // teardown idempotent.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    queue_.push(QueuedTask{std::move(task), obs::NowNs()});
    ++in_flight_;
  }
  PoolMetrics::Get().queue_depth->Add(1.0);
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::WorkerLoop() {
  const PoolMetrics& metrics = PoolMetrics::Get();
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    const int64_t dequeue_ns = obs::NowNs();
    metrics.queue_depth->Add(-1.0);
    metrics.task_wait_ns->Observe(
        static_cast<double>(dequeue_ns - task.enqueue_ns));
    // A throwing task must neither take down the worker (std::terminate)
    // nor leak its in_flight_ slot (which would wedge Wait() forever).
    try {
      task.fn();
    } catch (...) {
      metrics.task_exceptions_total->Increment();
    }
    metrics.task_run_ns->Observe(
        static_cast<double>(obs::NowNs() - dequeue_ns));
    metrics.tasks_total->Increment();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

void ParallelFor(int threads, int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  if (threads <= 0) threads = ThreadPool::HardwareThreads();
  if (threads > n) threads = n;
  if (threads <= 1 || n <= 1) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }
  // Dynamic chunking over a shared counter: items are claimed one at a time
  // so an expensive item (a dorms-scale simulation run) doesn't serialize a
  // whole static stripe behind it. Each item still writes only to its own
  // index, so scheduling order never shows in the results.
  ThreadPool pool(threads);
  ParallelFor(&pool, n, body);
}

void ParallelFor(ThreadPool* pool, int n,
                 const std::function<void(int)>& body) {
  if (n <= 0) return;
  if (pool == nullptr || pool->thread_count() <= 1 || n <= 1) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }
  const int claimers = std::min(pool->thread_count(), n);
  std::atomic<int> next{0};
  for (int w = 0; w < claimers; ++w) {
    pool->Submit([&body, &next, n] {
      for (int i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        // Isolate each item: a throwing body must not take the claiming
        // loop (and with it every item this claimer would still have
        // picked up) down with it.
        try {
          body(i);
        } catch (...) {
          PoolMetrics::Get().task_exceptions_total->Increment();
        }
      }
    });
  }
  pool->Wait();
}

}  // namespace imcf
