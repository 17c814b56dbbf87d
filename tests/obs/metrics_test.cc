// Tests for the metrics registry: concurrent update exactness under the
// thread pool, quantile estimation and bucket helpers (the span sinks that
// feed histograms are tested in tracer_test.cc). Tests build their own
// MetricRegistry instances rather than touching Default(), so they cannot
// observe (or pollute) the counters the instrumented production code
// publishes.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace imcf {
namespace obs {
namespace {

TEST(MetricRegistryTest, GetReturnsStablePointers) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("imcf_test_total", "help");
  Counter* b = registry.GetCounter("imcf_test_total", "help");
  EXPECT_EQ(a, b);
  // Distinct label sets are distinct metrics within the same family.
  Counter* la = registry.GetCounter("imcf_test_labeled_total", "help",
                                    {{"reason", "allow"}});
  Counter* lb = registry.GetCounter("imcf_test_labeled_total", "help",
                                    {{"reason", "drop"}});
  EXPECT_NE(la, lb);
  EXPECT_EQ(la, registry.GetCounter("imcf_test_labeled_total", "help",
                                    {{"reason", "allow"}}));
}

TEST(MetricRegistryTest, LabelOrderIsCanonicalized) {
  MetricRegistry registry;
  Counter* ab = registry.GetCounter("imcf_test_pair_total", "help",
                                    {{"a", "1"}, {"b", "2"}});
  Counter* ba = registry.GetCounter("imcf_test_pair_total", "help",
                                    {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("imcf_test_hammer_total", "help");
  constexpr int kThreads = 8;
  constexpr int kTasks = 64;
  constexpr int kPerTask = 10000;
  ParallelFor(kThreads, kTasks, [counter](int) {
    for (int i = 0; i < kPerTask; ++i) counter->Increment();
  });
  EXPECT_EQ(counter->value(),
            static_cast<int64_t>(kTasks) * kPerTask);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  MetricRegistry registry;
  Gauge* gauge = registry.GetGauge("imcf_test_depth", "help");
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  // +1 then -1 per iteration, plus one net +1 per task: the CAS loop must
  // lose no updates, so the final value is exactly kTasks.
  ParallelFor(8, kTasks, [gauge](int) {
    for (int i = 0; i < kPerTask; ++i) {
      gauge->Add(1.0);
      gauge->Add(-1.0);
    }
    gauge->Add(1.0);
  });
  EXPECT_DOUBLE_EQ(gauge->value(), static_cast<double>(kTasks));
  gauge->Set(-3.5);
  EXPECT_DOUBLE_EQ(gauge->value(), -3.5);
}

TEST(HistogramTest, ConcurrentObservationsAreExact) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_latency_ns", "help",
                                          LinearBuckets(1.0, 1.0, 4));
  constexpr int kTasks = 32;
  constexpr int kPerTask = 5000;
  // Every task observes the same integer sequence 1..4 plus one over-range
  // value; integer sums this small are exact in double, so both count and
  // sum must match exactly despite concurrent CAS adds.
  ParallelFor(8, kTasks, [hist](int) {
    for (int i = 0; i < kPerTask; ++i) {
      hist->Observe(1.0);
      hist->Observe(2.0);
      hist->Observe(3.0);
      hist->Observe(4.0);
      hist->Observe(100.0);
    }
  });
  const int64_t per_bucket = static_cast<int64_t>(kTasks) * kPerTask;
  EXPECT_EQ(hist->count(), 5 * per_bucket);
  EXPECT_DOUBLE_EQ(hist->sum(), static_cast<double>(110 * per_bucket));
  ASSERT_EQ(hist->bounds().size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hist->bucket_count(i), per_bucket) << "bucket " << i;
  }
  EXPECT_EQ(hist->bucket_count(4), per_bucket);  // +Inf bucket
}

TEST(HistogramTest, ObserveUsesLeSemantics) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_le", "help",
                                          {1.0, 2.0, 4.0});
  hist->Observe(1.0);  // le="1" (bound >= value)
  hist->Observe(1.5);  // le="2"
  hist->Observe(4.0);  // le="4"
  hist->Observe(4.1);  // +Inf
  EXPECT_EQ(hist->bucket_count(0), 1);
  EXPECT_EQ(hist->bucket_count(1), 1);
  EXPECT_EQ(hist->bucket_count(2), 1);
  EXPECT_EQ(hist->bucket_count(3), 1);
  EXPECT_DOUBLE_EQ(hist->mean(), (1.0 + 1.5 + 4.0 + 4.1) / 4.0);
}

TEST(HistogramTest, ExemplarTagsItsBucketAndLatestWins) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_exemplar", "help",
                                          {1.0, 2.0, 4.0});
  hist->Observe(0.5);                                // untagged
  hist->Observe(1.5, /*exemplar_trace_id=*/0xA);     // le="2"
  hist->Observe(100.0, /*exemplar_trace_id=*/0xB);   // +Inf
  EXPECT_EQ(hist->exemplar_trace_id(0), 0u);  // untagged bucket stays bare
  EXPECT_EQ(hist->exemplar_trace_id(1), 0xAu);
  EXPECT_DOUBLE_EQ(hist->exemplar_value(1), 1.5);
  EXPECT_EQ(hist->exemplar_trace_id(3), 0xBu);
  EXPECT_DOUBLE_EQ(hist->exemplar_value(3), 100.0);

  // The latest tagged observation replaces the bucket's exemplar...
  hist->Observe(1.8, /*exemplar_trace_id=*/0xC);
  EXPECT_EQ(hist->exemplar_trace_id(1), 0xCu);
  EXPECT_DOUBLE_EQ(hist->exemplar_value(1), 1.8);
  // ...but an untagged one (trace_id 0) never erases it.
  hist->Observe(1.9);
  EXPECT_EQ(hist->exemplar_trace_id(1), 0xCu);
}

TEST(HistogramTest, SnapshotCarriesExemplarsPerBucket) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_exemplar_snap", "help",
                                          {1.0, 2.0});
  hist->Observe(1.5, /*exemplar_trace_id=*/0x123);
  std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].exemplar_ids.size(), 3u);  // bounds + the +Inf slot
  EXPECT_EQ(snapshot[0].exemplar_ids[0], 0u);
  EXPECT_EQ(snapshot[0].exemplar_ids[1], 0x123u);
  EXPECT_DOUBLE_EQ(snapshot[0].exemplar_values[1], 1.5);
  EXPECT_EQ(snapshot[0].exemplar_ids[2], 0u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_quantile", "help",
                                          LinearBuckets(10.0, 10.0, 10));
  EXPECT_DOUBLE_EQ(hist->Quantile(0.5), 0.0);  // empty
  // 100 observations uniform over (0, 100]: one per unit.
  for (int i = 1; i <= 100; ++i) hist->Observe(static_cast<double>(i));
  // Each bucket holds exactly 10 observations, so quantiles should land
  // close to the uniform ideal (within one bucket width).
  EXPECT_NEAR(hist->Quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(hist->Quantile(0.9), 90.0, 10.0);
  EXPECT_NEAR(hist->Quantile(0.99), 99.0, 10.0);
  // Quantiles are monotone in q.
  EXPECT_LE(hist->Quantile(0.1), hist->Quantile(0.5));
  EXPECT_LE(hist->Quantile(0.5), hist->Quantile(0.9));
}

TEST(HistogramTest, QuantileMatchesHandComputedRanks) {
  MetricRegistry registry;
  // Single bucket (0, 10] holding 4 observations. The rank-based estimate
  // is lower + (upper - lower) * rank / in_bucket with rank = ceil(q * n):
  //   q=0.25 -> rank 1 -> 2.5      q=0.5 -> rank 2 -> 5.0
  //   q=0.75 -> rank 3 -> 7.5      q=1.0 -> rank 4 -> 10.0
  Histogram* single = registry.GetHistogram("imcf_test_q_single", "help",
                                            {10.0});
  for (int i = 0; i < 4; ++i) single->Observe(5.0);
  EXPECT_DOUBLE_EQ(single->Quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(single->Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(single->Quantile(0.75), 7.5);
  EXPECT_DOUBLE_EQ(single->Quantile(1.0), 10.0);
  // q=0 clamps the rank to the first observation, not below it.
  EXPECT_DOUBLE_EQ(single->Quantile(0.0), 2.5);
}

TEST(HistogramTest, QuantileExactAtBucketBoundary) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_q_boundary", "help",
                                          {10.0, 20.0});
  for (int i = 0; i < 5; ++i) hist->Observe(5.0);    // le="10"
  for (int i = 0; i < 5; ++i) hist->Observe(15.0);   // le="20"
  // The median rank (5 of 10) is the last observation of the first bucket,
  // so the estimate must sit exactly on the bucket boundary — the old
  // cumulative-fraction code overshot into the next bucket here.
  EXPECT_DOUBLE_EQ(hist->Quantile(0.5), 10.0);
  // Rank 6 is the first observation of the second bucket: 1/5 into it.
  EXPECT_DOUBLE_EQ(hist->Quantile(0.6), 12.0);
  EXPECT_DOUBLE_EQ(hist->Quantile(1.0), 20.0);
}

TEST(HistogramTest, QuantileSkipsEmptyLeadingBuckets) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_q_sparse", "help",
                                          {1.0, 2.0, 10.0, 20.0});
  // All mass in (2, 10]: empty buckets must contribute nothing, and the
  // interpolation must use that bucket's own lower edge (2), not zero.
  for (int i = 0; i < 4; ++i) hist->Observe(5.0);
  EXPECT_DOUBLE_EQ(hist->Quantile(0.5), 2.0 + (10.0 - 2.0) * 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(hist->Quantile(0.25), 2.0 + (10.0 - 2.0) * 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(hist->Quantile(1.0), 10.0);
}

TEST(HistogramTest, QuantileCapsAtLargestFiniteBound) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_overflow", "help",
                                          {1.0, 2.0});
  hist->Observe(50.0);
  hist->Observe(60.0);
  // All mass in +Inf: the estimate reports the largest finite bound.
  EXPECT_DOUBLE_EQ(hist->Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(hist->Quantile(0.99), 2.0);
}

TEST(BucketHelpersTest, ExponentialAndLinear) {
  const std::vector<double> expo = ExponentialBuckets(1.0, 4.0, 4);
  ASSERT_EQ(expo.size(), 4u);
  EXPECT_DOUBLE_EQ(expo[0], 1.0);
  EXPECT_DOUBLE_EQ(expo[1], 4.0);
  EXPECT_DOUBLE_EQ(expo[2], 16.0);
  EXPECT_DOUBLE_EQ(expo[3], 64.0);
  const std::vector<double> lin = LinearBuckets(5.0, 2.5, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[0], 5.0);
  EXPECT_DOUBLE_EQ(lin[1], 7.5);
  EXPECT_DOUBLE_EQ(lin[2], 10.0);
  // Canonical bounds are ascending (a Histogram precondition).
  const std::vector<double>& latency = LatencyBoundsNs();
  for (size_t i = 1; i < latency.size(); ++i) {
    EXPECT_LT(latency[i - 1], latency[i]);
  }
  const std::vector<double>& duration = DurationBoundsSeconds();
  for (size_t i = 1; i < duration.size(); ++i) {
    EXPECT_LT(duration[i - 1], duration[i]);
  }
}

TEST(MetricRegistryTest, SnapshotIsSortedAndComplete) {
  MetricRegistry registry;
  // Register out of order; Snapshot must come back sorted by name then
  // label serialization.
  registry.GetGauge("imcf_z_gauge", "z")->Set(1.0);
  registry.GetCounter("imcf_a_total", "a")->Increment(7);
  registry.GetCounter("imcf_m_total", "m", {{"reason", "drop"}})
      ->Increment(2);
  registry.GetCounter("imcf_m_total", "m", {{"reason", "allow"}})
      ->Increment(3);
  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "imcf_a_total");
  EXPECT_DOUBLE_EQ(snap[0].value, 7.0);
  EXPECT_EQ(snap[1].name, "imcf_m_total");
  ASSERT_EQ(snap[1].labels.size(), 1u);
  EXPECT_EQ(snap[1].labels[0].second, "allow");
  EXPECT_EQ(snap[2].labels[0].second, "drop");
  EXPECT_EQ(snap[3].name, "imcf_z_gauge");
  EXPECT_EQ(snap[3].type, MetricType::kGauge);
}

}  // namespace
}  // namespace obs
}  // namespace imcf
