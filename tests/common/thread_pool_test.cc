#include "common/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"

namespace imcf {
namespace {

int64_t PoolExceptions() {
  return obs::MetricRegistry::Default()
      .GetCounter("imcf_pool_task_exceptions_total", "")
      ->value();
}

TEST(ThreadPoolTest, ZeroThreadsSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), ThreadPool::HardwareThreads());
  EXPECT_GE(pool.workers(), 1);
}

// The serial reference path: no helper exists, so the caller claims every
// item, in index order.
TEST(ThreadPoolTest, OneExecutorPoolRunsItemsOnCallerInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  pool.ParallelFor(5, [&order, &ran_on](int i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ThreadPoolTest, CoversExactlyTheRange) {
  ThreadPool pool(4);
  std::vector<int> hits(257, 0);
  pool.ParallelFor(257, [&hits](int i) { hits[static_cast<size_t>(i)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](int) { FAIL() << "body must not run"; });
  pool.ParallelFor(-3, [](int) { FAIL() << "body must not run"; });
}

// A helper woken for one call can arrive after the caller has claimed
// every item and returned. It must neither run an item of a finished call
// nor claim one of the next call's items under the old call's body.
TEST(ThreadPoolTest, BackToBackCallsCoverEachRangeOnce) {
  ThreadPool pool(4);
  for (int call = 0; call < 1000; ++call) {
    const int n = 1 + call % 3;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    pool.ParallelFor(n, [&hits](int i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "call " << call << " item " << i;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallersBothGetFullCoverage) {
  ThreadPool pool(4);
  constexpr int kItems = 200;
  constexpr int kRounds = 50;
  std::vector<int> a(kItems, 0);
  std::vector<int> b(kItems, 0);
  auto caller = [&pool](std::vector<int>* hits) {
    for (int round = 0; round < kRounds; ++round) {
      pool.ParallelFor(kItems,
                       [hits](int i) { (*hits)[static_cast<size_t>(i)]++; });
    }
  };
  std::thread first(caller, &a);
  std::thread second(caller, &b);
  first.join();
  second.join();
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(a[static_cast<size_t>(i)], kRounds) << "item " << i;
    EXPECT_EQ(b[static_cast<size_t>(i)], kRounds) << "item " << i;
  }
}

// A throwing body is caught and counted per item on every executor, the
// caller included, so the outcome does not depend on the executor count.
TEST(ThreadPoolTest, ParallelForSurvivesThrowingBodies) {
  for (int workers : {1, 4}) {
    ThreadPool pool(workers);
    std::vector<int> hits(64, 0);
    const int64_t before = PoolExceptions();
    pool.ParallelFor(64, [&hits](int i) {
      hits[static_cast<size_t>(i)] = 1;
      if (i % 2 == 0) throw std::runtime_error("injected");
    });
    // Every index ran even though half of them threw afterwards.
    for (int h : hits) EXPECT_EQ(h, 1) << workers << " executors";
    EXPECT_EQ(PoolExceptions() - before, 32) << workers << " executors";
  }
}

// The determinism contract: per-index RNG streams make the parallel result
// bit-identical to the serial one for every executor count.
TEST(ThreadPoolTest, IndexSeededStreamsAreThreadCountInvariant) {
  constexpr int kItems = 64;
  const uint64_t seed = 0xfeedULL;
  auto run = [&](int workers) {
    ThreadPool pool(workers);
    std::vector<double> out(kItems, 0.0);
    pool.ParallelFor(kItems, [&out, seed](int i) {
      Rng rng(MixHash(seed, static_cast<uint64_t>(i)));
      double acc = 0.0;
      for (int draw = 0; draw < 100; ++draw) acc += rng.UniformDouble();
      out[static_cast<size_t>(i)] = acc;
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  for (int workers : {2, 3, 4, 8}) {
    const std::vector<double> parallel = run(workers);
    for (int i = 0; i < kItems; ++i) {
      EXPECT_EQ(serial[static_cast<size_t>(i)],
                parallel[static_cast<size_t>(i)])
          << "item " << i << " with " << workers << " executors";
    }
  }
}

}  // namespace
}  // namespace imcf
