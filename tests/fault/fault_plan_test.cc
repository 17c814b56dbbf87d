#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <array>

#include "common/rng.h"

namespace imcf {
namespace fault {
namespace {

TEST(FaultPlanTest, DefaultConstructedNeverFaults) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (SimTime t = 0; t < 100 * kSecondsPerHour; t += kSecondsPerHour) {
    EXPECT_FALSE(plan.At("device:unit00_ac", t).faulted());
    EXPECT_FALSE(plan.At("weather", t).faulted());
  }
}

TEST(FaultPlanTest, EnabledWithZeroRatesNeverFaults) {
  FaultOptions options;
  options.enabled = true;  // rates all default to zero
  FaultPlan plan(options);
  for (SimTime t = 0; t < 1000 * kSecondsPerHour; t += kSecondsPerHour) {
    EXPECT_FALSE(plan.At("device:unit00_ac", t).faulted());
  }
}

TEST(FaultPlanTest, PureFunctionOfSeedChannelAndTime) {
  const FaultOptions options = FaultOptions::UniformRate(0.3, /*seed=*/42);
  FaultPlan a(options);
  FaultPlan b(options);  // independent instance, same config
  for (SimTime t = 0; t < 500 * kSecondsPerHour; t += kSecondsPerHour / 3) {
    const FaultDecision da = a.At("device:unit01_light", t);
    const FaultDecision db = b.At("device:unit01_light", t);
    EXPECT_EQ(da.kind, db.kind);
    EXPECT_EQ(da.delay_seconds, db.delay_seconds);
    // Re-querying the same instance must not advance any state.
    EXPECT_EQ(a.At("device:unit01_light", t).kind, da.kind);
  }
}

TEST(FaultPlanTest, SeedsAndChannelsDecorrelate) {
  const int n = 2000;
  int differ_by_seed = 0, differ_by_channel = 0;
  FaultPlan s1(FaultOptions::UniformRate(0.5, 1));
  FaultPlan s2(FaultOptions::UniformRate(0.5, 2));
  for (int i = 0; i < n; ++i) {
    const SimTime t = static_cast<SimTime>(i) * kSecondsPerHour;
    if (s1.At("device:a", t).kind != s2.At("device:a", t).kind) {
      ++differ_by_seed;
    }
    if (s1.At("device:a", t).kind != s1.At("device:b", t).kind) {
      ++differ_by_channel;
    }
  }
  EXPECT_GT(differ_by_seed, n / 10);
  EXPECT_GT(differ_by_channel, n / 10);
}

TEST(FaultPlanTest, UniformRateFrequenciesMatchConfiguration) {
  const double rate = 0.30;
  FaultPlan plan(FaultOptions::UniformRate(rate, 7));
  const int n = 20000;
  std::array<int, kNumFaultKinds> counts{};
  for (int i = 0; i < n; ++i) {
    // Sample at sub-hour offsets so at most a few samples share one stuck
    // window; the per-attempt kinds dominate the tallies.
    const SimTime t = static_cast<SimTime>(i) * 37 * kSecondsPerMinute;
    ++counts[static_cast<size_t>(plan.At("device:x", t).kind)];
  }
  const double third = rate / 3.0 * n;
  EXPECT_NEAR(counts[static_cast<size_t>(FaultKind::kDrop)], third,
              0.3 * third);
  EXPECT_NEAR(counts[static_cast<size_t>(FaultKind::kDelay)], third,
              0.3 * third);
  EXPECT_NEAR(counts[static_cast<size_t>(FaultKind::kTransientError)], third,
              0.3 * third);
  // Weather channels have no stuck faults under UniformRate.
  for (int i = 0; i < n; ++i) {
    const SimTime t = static_cast<SimTime>(i) * 37 * kSecondsPerMinute;
    EXPECT_NE(plan.At("weather", t).kind, FaultKind::kStuck);
  }
}

TEST(FaultPlanTest, StuckCoversWholeWindow) {
  FaultOptions options;
  options.enabled = true;
  options.device.stuck_prob = 0.2;
  options.device.stuck_window_seconds = kSecondsPerHour;
  FaultPlan plan(options);

  // Find a stuck hour, then verify every second of that window is stuck
  // and the neighbouring windows decide independently.
  SimTime stuck_start = -1;
  for (SimTime h = 0; h < 500; ++h) {
    if (plan.At("device:d", h * kSecondsPerHour).kind == FaultKind::kStuck) {
      stuck_start = h * kSecondsPerHour;
      break;
    }
  }
  ASSERT_GE(stuck_start, 0) << "no stuck window in 500 hours at p=0.2";
  for (SimTime off = 0; off < kSecondsPerHour; off += 97) {
    EXPECT_EQ(plan.At("device:d", stuck_start + off).kind, FaultKind::kStuck);
  }
}

TEST(FaultPlanTest, DelayCarriesConfiguredLatency) {
  FaultOptions options;
  options.enabled = true;
  options.device.delay_prob = 1.0;
  options.device.delay_seconds = 17;
  FaultPlan plan(options);
  const FaultDecision d = plan.At("device:d", 123);
  EXPECT_EQ(d.kind, FaultKind::kDelay);
  EXPECT_EQ(d.delay_seconds, 17);
}

TEST(FaultPlanTest, ChannelHashIsStableAcrossCalls) {
  EXPECT_EQ(ChannelHash("device:unit00_ac"), ChannelHash("device:unit00_ac"));
  EXPECT_NE(ChannelHash("device:unit00_ac"), ChannelHash("device:unit01_ac"));
}

}  // namespace
}  // namespace fault
}  // namespace imcf
