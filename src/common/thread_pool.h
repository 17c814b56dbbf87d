// Fork-join worker pool for deterministic fan-out of independent work.
//
// IMCF's simulation workload decomposes into embarrassingly-parallel items —
// (policy, dataset-replica, repetition) cells and per-tenant drain units —
// that share no mutable state. The pool's one operation, ParallelFor, hands
// the indices of a range to the calling thread and to the pool's helper
// threads through one shared counter; the result slot of each item is
// fixed by its index, never by scheduling order.
//
// Determinism contract: items must derive any randomness from their index
// (e.g. Rng(MixHash(seed, item_index))) and write only to per-index output
// slots. Under that contract a ParallelFor over n items produces
// bit-identical results for every executor count, including the serial
// one-executor pool, where the caller claims every item in index order.

#ifndef IMCF_COMMON_THREAD_POOL_H_
#define IMCF_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace imcf {

/// A fixed set of executors for fork-join loops: the thread that calls
/// ParallelFor plus `workers - 1` helper threads, which start in the
/// constructor and join in the destructor. The owner keeps one pool for
/// its lifetime, so a process has a fixed set of threads (and of
/// flight-recorder rings).
class ThreadPool {
 public:
  /// A pool of `workers` executors. `workers <= 0` selects the hardware
  /// concurrency; `workers == 1` starts no thread.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(i) for every i in [0, n) and returns when all have run.
  /// The caller and up to min(workers - 1, n - 1) woken helpers claim
  /// items one at a time from a shared counter. An exception from `body`
  /// is caught per item and counted (imcf_pool_task_exceptions_total) on
  /// every executor, the caller included, and the remaining items still
  /// run: report failures through per-index output slots. Concurrent
  /// callers take turns; `body` must not call ParallelFor on this pool.
  void ParallelFor(int n, const std::function<void(int)>& body);

  /// Executors per ParallelFor call: the caller plus the helpers.
  int workers() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Number of threads the hardware supports (>= 1).
  static int HardwareThreads();

 private:
  void HelperLoop();
  /// Claims and runs items of the current call until the range is spent.
  void ClaimItems(const std::function<void(int)>& body, int n);

  std::mutex call_mu_;  ///< one ParallelFor call at a time

  std::mutex mu_;  ///< guards the call state below
  std::condition_variable wake_;
  std::condition_variable left_;
  const std::function<void(int)>* body_ = nullptr;
  int n_ = 0;
  uint64_t call_ = 0;     ///< id of the current call
  int openings_ = 0;      ///< helpers the current call may still admit
  int active_ = 0;        ///< helpers inside the current call's claim loop
  int64_t dispatch_ns_ = 0;
  bool shutdown_ = false;
  std::atomic<int> next_{0};  ///< next unclaimed item of the current call

  std::vector<std::thread> helpers_;
};

}  // namespace imcf

#endif  // IMCF_COMMON_THREAD_POOL_H_
