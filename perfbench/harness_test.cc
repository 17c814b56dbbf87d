// Tests of the benchmark harness: percentiles and the ten-beyond rule,
// seed-determinism of the request streams, and the arithmetic of the
// derived per-layer metrics.

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(OneTo(10), 25), 3);  // rank ceil(2.5) = 3
  EXPECT_EQ(Percentile({7.0}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, MedianSortsItsCopy) {
  EXPECT_EQ(Median({5, 1, 4, 2, 3}), 3);
  EXPECT_EQ(Median({}), 0);
}

TEST(PercentileTest, SliceMedianIsTheMedianOfPerSlicePercentiles) {
  std::vector<std::vector<double>> slices = {{3, 1, 2}, {}, {10, 20}, {5}};
  EXPECT_EQ(SliceMedian(slices, 50), 5);  // per slice: 2, 10, 5
  EXPECT_EQ(SliceMedian(slices, 100), 5); // per slice: 3, 20, 5
  std::vector<std::vector<double>> empty(3);
  EXPECT_EQ(SliceMedian(empty, 50), 0);
}

TEST(PercentileTest, TenBeyondRule) {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it.
  EXPECT_FALSE(HasTenBeyond(999, 99));   // rank 990, 9 beyond
  EXPECT_TRUE(HasTenBeyond(1000, 99));   // rank 990, 10 beyond
  EXPECT_FALSE(HasTenBeyond(99, 90));    // rank 90, 9 beyond
  EXPECT_TRUE(HasTenBeyond(100, 90));
  EXPECT_FALSE(HasTenBeyond(19, 50));    // rank 10, 9 beyond
  EXPECT_TRUE(HasTenBeyond(20, 50));
  EXPECT_FALSE(HasTenBeyond(0, 50));
}

TEST(PercentileTest, HighestQuotable) {
  EXPECT_EQ(HighestQuotablePercentile(10000), 99.9);
  EXPECT_EQ(HighestQuotablePercentile(9999), 99.0);
  EXPECT_EQ(HighestQuotablePercentile(1000), 99.0);
  EXPECT_EQ(HighestQuotablePercentile(999), 90.0);
  EXPECT_EQ(HighestQuotablePercentile(20), 50.0);
  EXPECT_FALSE(HighestQuotablePercentile(19).has_value());
}

OpenLoopMix MixedLike() {
  OpenLoopMix mix;
  mix.rate_per_s = 500;
  mix.share[static_cast<int>(Op::kStatus)] = 0.425;
  mix.share[static_cast<int>(Op::kContext)] = 0.17;
  mix.share[static_cast<int>(Op::kCommand)] = 0.255;
  mix.share[static_cast<int>(Op::kPlan)] = 0.14;
  mix.share[static_cast<int>(Op::kMrtUpdate)] = 0.01;
  return mix;
}

bool SameArrivals(const std::vector<Arrival>& a,
                  const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ns != b[i].due_ns || a[i].op != b[i].op ||
        a[i].tenant != b[i].tenant || a[i].arg != b[i].arg) {
      return false;
    }
  }
  return true;
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  const auto a = MakeOpenLoopSchedule(7, MixedLike(), 20, 248, 4);
  const auto b = MakeOpenLoopSchedule(7, MixedLike(), 20, 248, 4);
  EXPECT_TRUE(SameArrivals(a, b));
  EXPECT_FALSE(SameArrivals(a, MakeOpenLoopSchedule(8, MixedLike(), 20, 248,
                                                    4)));
}

TEST(ScheduleTest, ShorterRunIsAPrefix) {
  const auto full = MakeOpenLoopSchedule(3, MixedLike(), 20, 248, 4);
  const auto half = MakeOpenLoopSchedule(3, MixedLike(), 10, 248, 4);
  ASSERT_LT(half.size(), full.size());
  EXPECT_TRUE(SameArrivals(
      half, std::vector<Arrival>(full.begin(), full.begin() + half.size())));
}

TEST(ScheduleTest, RateShareAndBounds) {
  const auto s = MakeOpenLoopSchedule(11, MixedLike(), 60, 248, 4);
  // 30000 expected arrivals; Poisson sd ~173.
  EXPECT_NEAR(static_cast<double>(s.size()), 30000.0, 1000.0);
  int count[kNumOps] = {0, 0, 0, 0, 0};
  int64_t last = -1;
  for (const Arrival& a : s) {
    EXPECT_GT(a.due_ns, last);
    EXPECT_LT(a.due_ns, int64_t{60'000'000'000});
    last = a.due_ns;
    ++count[static_cast<int>(a.op)];
    EXPECT_GE(a.tenant, 0);
    EXPECT_LT(a.tenant, a.op == Op::kMrtUpdate ? 4 : 248);
  }
  const double n = static_cast<double>(s.size());
  EXPECT_NEAR(count[static_cast<int>(Op::kStatus)] / n, 0.425, 0.02);
  EXPECT_NEAR(count[static_cast<int>(Op::kPlan)] / n, 0.14, 0.02);
  EXPECT_NEAR(count[static_cast<int>(Op::kMrtUpdate)] / n, 0.01, 0.005);
}

TEST(ScheduleTest, EveryOtherUpdateOfAnUpdaterConflicts) {
  const auto s = MakeOpenLoopSchedule(5, MixedLike(), 60, 248, 4);
  std::vector<int> seen(4, 0);
  for (const Arrival& a : s) {
    if (a.op != Op::kMrtUpdate) continue;
    EXPECT_EQ(a.arg & 1, static_cast<uint64_t>(seen[a.tenant] % 2));
    ++seen[a.tenant];
  }
  EXPECT_GT(*std::min_element(seen.begin(), seen.end()), 2);
}

TEST(ScheduleTest, NoUpdatersMeansNoUpdates) {
  OpenLoopMix mix = MixedLike();
  for (const Arrival& a : MakeOpenLoopSchedule(5, mix, 10, 16, 0)) {
    EXPECT_NE(a.op, Op::kMrtUpdate);
  }
}

TEST(ClosedLoopTest, StreamsAreSeededPerConnection) {
  ClosedLoopStream a(9, 0, 32), b(9, 0, 32), other(9, 1, 32);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const Arrival x = a.Next(), y = b.Next(), z = other.Next();
    EXPECT_EQ(x.op, Op::kPlan);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.arg, y.arg);
    EXPECT_LT(x.tenant, 32);
    differs |= x.arg != z.arg;
  }
  EXPECT_TRUE(differs);
}

TEST(DerivedMetricsTest, TransportIsWireMinusInProcess) {
  EXPECT_DOUBLE_EQ(TransportUs(560.0, 380.5), 179.5);
}

TEST(DerivedMetricsTest, DrainSelfSubtractsTheChildrenCriticalPath) {
  std::vector<DrainSample> drains = {
      {400.0, {5.0}},              // one child: 395 of self time
      {100.0, {30.0, 30.0, 20.0}}, // three children on two lanes: 80 / 2
      {50.0, {}},                  // nothing executed: all self
  };
  const std::vector<double> self = DrainSelfUs(drains, 2);
  ASSERT_EQ(self.size(), 3u);
  EXPECT_DOUBLE_EQ(self[0], 395.0);
  EXPECT_DOUBLE_EQ(self[1], 60.0);
  EXPECT_DOUBLE_EQ(self[2], 50.0);
  EXPECT_DOUBLE_EQ(DrainSelfUs(drains, 1)[1], 20.0);
}

TEST(DerivedMetricsTest, PlanCostIsTheMeanPairedDifference) {
  const std::vector<double> planner = {130, 60, 1100};
  const std::vector<double> no_rule = {100, 70, 1000};
  EXPECT_DOUBLE_EQ(MeanPairedDifference(planner, no_rule), 40.0);
  EXPECT_DOUBLE_EQ(MeanPairedDifference({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 6}), 3.0);
}

}  // namespace
}  // namespace perfbench
