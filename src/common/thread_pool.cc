#include "common/thread_pool.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {

namespace {

/// Pool instrumentation, resolved once. tasks_total counts items run;
/// task_wait_ns is a helper's wake latency, from a call's dispatch to the
/// helper joining its claim loop.
struct PoolMetrics {
  obs::Counter* tasks_total;
  obs::Counter* task_exceptions_total;
  obs::Histogram* task_wait_ns;

  static const PoolMetrics& Get() {
    static const PoolMetrics* m = [] {
      auto& reg = obs::MetricRegistry::Default();
      auto* pm = new PoolMetrics();
      pm->tasks_total = reg.GetCounter("imcf_pool_tasks_total",
                                       "Items run by ParallelFor");
      pm->task_exceptions_total = reg.GetCounter(
          "imcf_pool_task_exceptions_total",
          "Items whose body threw; the exception was caught and counted");
      pm->task_wait_ns = reg.GetHistogram(
          "imcf_pool_task_wait_ns",
          "Wall time from a ParallelFor dispatch to a helper joining it",
          obs::LatencyBoundsNs());
      return pm;
    }();
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int workers) {
  if (workers <= 0) workers = HardwareThreads();
  helpers_.reserve(static_cast<size_t>(workers - 1));
  for (int i = 0; i < workers - 1; ++i) {
    helpers_.emplace_back([this, i] {
      // Registering the name before any span gives the flight recorder a
      // labeled lane for this helper (/tracez, Perfetto thread_name).
      obs::FlightRecorder::Default().SetCurrentThreadName(
          StrFormat("pool-%d", i));
      HelperLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

int ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& body) {
  std::lock_guard<std::mutex> call(call_mu_);
  int wake = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    ++call_;
    wake = std::clamp(n - 1, 0, static_cast<int>(helpers_.size()));
    openings_ = wake;
    dispatch_ns_ = wake > 0 ? obs::NowNs() : 0;
  }
  for (int w = 0; w < wake; ++w) wake_.notify_one();
  ClaimItems(body, n);
  // `body` lives in the caller's frame: admit no more helpers, and return
  // only once every helper has left this call's claim loop.
  std::unique_lock<std::mutex> lock(mu_);
  openings_ = 0;
  left_.wait(lock, [this] { return active_ == 0; });
}

void ThreadPool::HelperLoop() {
  uint64_t last_call = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this, &last_call] {
      return shutdown_ || (openings_ > 0 && call_ != last_call);
    });
    if (shutdown_) return;
    last_call = call_;
    --openings_;
    ++active_;
    const std::function<void(int)>& body = *body_;
    const int n = n_;
    const int64_t dispatch_ns = dispatch_ns_;
    lock.unlock();
    PoolMetrics::Get().task_wait_ns->Observe(
        static_cast<double>(obs::NowNs() - dispatch_ns));
    ClaimItems(body, n);
    lock.lock();
    if (--active_ == 0) left_.notify_one();
  }
}

void ThreadPool::ClaimItems(const std::function<void(int)>& body, int n) {
  const PoolMetrics& metrics = PoolMetrics::Get();
  int64_t ran = 0;
  // Items are claimed one at a time so an expensive item (a dorms-scale
  // run) doesn't serialize a whole static stripe behind it.
  for (int i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    // Isolate each item: a throwing body must not take the claim loop
    // (and every item it would still have picked up) down with it.
    try {
      body(i);
    } catch (...) {
      metrics.task_exceptions_total->Increment();
    }
    ++ran;
  }
  if (ran > 0) metrics.tasks_total->Increment(ran);
}

}  // namespace imcf
