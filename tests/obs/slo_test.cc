// SLO engine tests: burn arithmetic, the multi-window firing rule, window
// edge cases (empty window, sim-clock jump, burn exactly at threshold,
// stale events), the rising-edge alert filter and concurrent readers.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/slo/slo_engine.h"

namespace imcf {
namespace obs {
namespace {

/// Tight test geometry: 10 s buckets, 60 s short window, 600 s long window.
SloOptions TestOptions() {
  SloOptions options;
  options.bucket_seconds = 10;
  options.short_window_seconds = 60;
  options.long_window_seconds = 600;
  options.burn_threshold = 2.0;
  options.max_shed_rate = 0.05;
  return options;
}

SloEvent ShedAt(int64_t sim_time, uint64_t trace_id = 0) {
  SloEvent event;
  event.sim_time = sim_time;
  event.shed = true;
  event.trace_id = trace_id;
  return event;
}

SloEvent ServedAt(int64_t sim_time) {
  SloEvent event;
  event.sim_time = sim_time;
  return event;
}

/// Returns a copy: callers pass Evaluate's temporary result.
BurnStatus StatusFor(const std::vector<BurnStatus>& all,
                     const std::string& tenant, SloObjective objective) {
  for (const BurnStatus& status : all) {
    if (status.tenant == tenant && status.objective == objective) {
      return status;
    }
  }
  ADD_FAILURE() << "no status for " << tenant << "/"
                << SloObjectiveName(objective);
  return BurnStatus{};
}

TEST(SloEngineTest, EmptyWindowBurnsNothingAndNeverFires) {
  SloEngine engine(TestOptions());
  engine.SetObjectives("t", TestOptions());  // state exists, no events
  std::vector<BurnStatus> all = engine.Evaluate(1000);
  ASSERT_EQ(all.size(), kNumSloObjectives);
  for (const BurnStatus& status : all) {
    EXPECT_EQ(status.short_burn, 0.0);
    EXPECT_EQ(status.long_burn, 0.0);
    EXPECT_FALSE(status.firing);
    EXPECT_EQ(status.exemplar_trace_id, 0u);
  }
  EXPECT_TRUE(engine.NewlyFiring(1000).empty());
}

TEST(SloEngineTest, ShedBurnMatchesHandArithmetic) {
  SloEngine engine(TestOptions());
  // 1 shed among 10 submissions: bad fraction 0.1, budget 0.05 -> burn 2.0.
  engine.Observe("t", ShedAt(100, /*trace_id=*/0xABC));
  for (int i = 0; i < 9; ++i) engine.Observe("t", ServedAt(100));
  const BurnStatus& status =
      StatusFor(engine.Evaluate(100), "t", SloObjective::kShedRate);
  EXPECT_DOUBLE_EQ(status.short_burn, 2.0);
  EXPECT_DOUBLE_EQ(status.long_burn, 2.0);
  EXPECT_EQ(status.exemplar_trace_id, 0xABCu);
}

TEST(SloEngineTest, BurnExactlyAtThresholdFires) {
  // The firing comparison is >=: a burn landing exactly on the threshold
  // fires (the boundary belongs to the alert, not the quiet side).
  SloEngine engine(TestOptions());
  engine.Observe("t", ShedAt(100));
  for (int i = 0; i < 9; ++i) engine.Observe("t", ServedAt(100));
  const BurnStatus& status =
      StatusFor(engine.Evaluate(100), "t", SloObjective::kShedRate);
  ASSERT_DOUBLE_EQ(status.short_burn, 2.0);  // exactly the threshold
  EXPECT_TRUE(status.firing);
}

TEST(SloEngineTest, BurnJustBelowThresholdStaysQuiet) {
  SloEngine engine(TestOptions());
  // 1 shed among 11: bad fraction ~0.0909, burn ~1.82 < 2.0.
  engine.Observe("t", ShedAt(100));
  for (int i = 0; i < 10; ++i) engine.Observe("t", ServedAt(100));
  EXPECT_FALSE(
      StatusFor(engine.Evaluate(100), "t", SloObjective::kShedRate).firing);
}

TEST(SloEngineTest, ShortSpikeOutsideShortWindowStaysQuiet) {
  // Multi-window rule: bad events older than the short window but inside
  // the long one burn the long window only -> no alert.
  SloEngine engine(TestOptions());
  for (int i = 0; i < 5; ++i) engine.Observe("t", ShedAt(100));
  // 200 s later: outside the 60 s short window, inside the 600 s long one.
  const BurnStatus& status =
      StatusFor(engine.Evaluate(300), "t", SloObjective::kShedRate);
  EXPECT_EQ(status.short_burn, 0.0);
  EXPECT_GT(status.long_burn, 2.0);
  EXPECT_FALSE(status.firing);
}

TEST(SloEngineTest, SimClockJumpOrphansStaleBuckets) {
  SloEngine engine(TestOptions());
  for (int i = 0; i < 8; ++i) engine.Observe("t", ShedAt(100));
  ASSERT_TRUE(
      StatusFor(engine.Evaluate(100), "t", SloObjective::kShedRate).firing);

  // Jump the sim clock far past the long window — including by an exact
  // multiple of the ring size, which lands on the same ring slot. The old
  // bucket's index no longer matches, so it reads as zero...
  const SloOptions options = TestOptions();
  const int64_t ring_span =
      (options.long_window_seconds / options.bucket_seconds + 1) *
      options.bucket_seconds;
  const int64_t jumped = 100 + 10 * ring_span;  // same slot, 10 laps later
  const BurnStatus& after =
      StatusFor(engine.Evaluate(jumped), "t", SloObjective::kShedRate);
  EXPECT_EQ(after.short_burn, 0.0);
  EXPECT_EQ(after.long_burn, 0.0);
  EXPECT_FALSE(after.firing);

  // ...and a write at the new time reclaims the slot cleanly.
  engine.Observe("t", ServedAt(jumped));
  const BurnStatus& reclaimed =
      StatusFor(engine.Evaluate(jumped), "t", SloObjective::kShedRate);
  EXPECT_EQ(reclaimed.long_burn, 0.0);
}

TEST(SloEngineTest, StaleEventDoesNotEraseNewerBucket) {
  // Default geometry: 900 s buckets, 97 ring slots. Bucket 97 and bucket 0
  // share slot 0, so a late event at sim time 0 lands on the live bucket.
  SloEngine engine;
  const int64_t now = 97 * 900 + 10;
  for (int i = 0; i < 10; ++i) engine.Observe("t", ShedAt(now, 0x97));
  const BurnStatus& before =
      StatusFor(engine.Evaluate(now), "t", SloObjective::kShedRate);
  ASSERT_DOUBLE_EQ(before.short_burn, 20.0);
  ASSERT_TRUE(before.firing);

  // A shed observed at its request's stale issue_time is dropped: it is
  // older than the ring's newest lap and must not reclaim the slot.
  engine.Observe("t", ShedAt(0, 0x01));
  const BurnStatus& after =
      StatusFor(engine.Evaluate(now), "t", SloObjective::kShedRate);
  EXPECT_DOUBLE_EQ(after.short_burn, 20.0);
  EXPECT_DOUBLE_EQ(after.long_burn, 20.0);
  EXPECT_TRUE(after.firing);
  EXPECT_EQ(after.exemplar_trace_id, 0x97u);
}

TEST(SloEngineTest, NewlyFiringIsRisingEdgeOnly) {
  SloEngine engine(TestOptions());
  for (int i = 0; i < 8; ++i) engine.Observe("t", ShedAt(100));

  // First check: fires. Second check, still burning: silent (no re-alert).
  EXPECT_EQ(engine.NewlyFiring(100).size(), 1u);
  EXPECT_TRUE(engine.NewlyFiring(100).empty());
  EXPECT_TRUE(engine.NewlyFiring(110).empty());

  // Burn drains out of both windows -> edge resets -> a new burn re-fires.
  const int64_t later = 100 + 2 * TestOptions().long_window_seconds;
  EXPECT_TRUE(engine.NewlyFiring(later).empty());
  for (int i = 0; i < 8; ++i) engine.Observe("t", ShedAt(later));
  EXPECT_EQ(engine.NewlyFiring(later).size(), 1u);
}

TEST(SloEngineTest, PlanLatencyUsesConfiguredTargetAndCarriesExemplar) {
  SloOptions options = TestOptions();
  options.plan_latency_ms = 1;                 // 1 ms target
  options.latency_target_quantile = 0.5;       // generous 50% budget
  SloEngine engine(options);

  SloEvent fast;
  fast.sim_time = 50;
  fast.is_plan = true;
  fast.plan_wall_ns = 500'000;  // 0.5 ms: good
  SloEvent slow = fast;
  slow.plan_wall_ns = 5'000'000;  // 5 ms: bad
  slow.trace_id = 0xFEED;
  engine.Observe("t", fast);
  engine.Observe("t", slow);

  // 1 bad of 2 = 0.5 bad fraction on a 0.5 budget: burn exactly 1.0.
  const BurnStatus& status =
      StatusFor(engine.Evaluate(50), "t", SloObjective::kPlanLatency);
  EXPECT_DOUBLE_EQ(status.short_burn, 1.0);
  EXPECT_EQ(status.exemplar_trace_id, 0xFEEDu);
  // Latency events say nothing about sheds beyond the good tally.
  EXPECT_EQ(
      StatusFor(engine.Evaluate(50), "t", SloObjective::kShedRate).short_burn,
      0.0);
}

TEST(SloEngineTest, DeadlineObjectiveCountsOnlyDeadlineCarriers) {
  SloOptions options = TestOptions();
  options.min_deadline_hit_rate = 0.5;  // budget 0.5
  SloEngine engine(options);

  SloEvent no_deadline = ServedAt(50);
  SloEvent hit = ServedAt(50);
  hit.had_deadline = true;
  SloEvent miss = ServedAt(50);
  miss.had_deadline = true;
  miss.deadline_miss = true;
  engine.Observe("t", no_deadline);  // must not dilute the deadline window
  engine.Observe("t", hit);
  engine.Observe("t", miss);

  // 1 miss of 2 deadline-carriers = 0.5 on a 0.5 budget: burn 1.0 (a third
  // deadline-free event would have made it 1/3 / 0.5 ≈ 0.67).
  EXPECT_DOUBLE_EQ(
      StatusFor(engine.Evaluate(50), "t", SloObjective::kDeadlineHit)
          .short_burn,
      1.0);
}

TEST(SloEngineTest, ToJsonListsTenantsSortedWithHexExemplar) {
  SloEngine engine(TestOptions());
  engine.Observe("zebra", ServedAt(10));
  engine.Observe("alpha", ShedAt(10, /*trace_id=*/0x1234));
  const std::string json = engine.ToJson(10);
  const size_t alpha = json.find("\"alpha\"");
  const size_t zebra = json.find("\"zebra\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zebra, std::string::npos);
  EXPECT_LT(alpha, zebra);
  EXPECT_NE(json.find("\"exemplar_trace_id\":\"0x0000000000001234\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sim_now\":10"), std::string::npos);
}

TEST(SloEngineTest, NegativeSimTimeClampsToBucketZero) {
  SloEngine engine(TestOptions());
  engine.Observe("t", ShedAt(-50));  // pre-epoch event lands in bucket 0
  const BurnStatus& status =
      StatusFor(engine.Evaluate(0), "t", SloObjective::kShedRate);
  EXPECT_GT(status.short_burn, 0.0);
}

TEST(SloEngineTest, ClearResetsWindowsAndEdges) {
  SloEngine engine(TestOptions());
  for (int i = 0; i < 8; ++i) engine.Observe("t", ShedAt(100));
  ASSERT_EQ(engine.NewlyFiring(100).size(), 1u);
  engine.Clear();
  EXPECT_TRUE(engine.Evaluate(100).empty());
  // The edge state cleared too: the same burn fires fresh.
  for (int i = 0; i < 8; ++i) engine.Observe("t", ShedAt(100));
  EXPECT_EQ(engine.NewlyFiring(100).size(), 1u);
}

TEST(SloEngineTest, ConcurrentToJsonWhileObservingAndDraining) {
  // /sloz renders from the status server's thread while drains observe and
  // edge-check; Evaluate writes the shared row cache, so both sides must
  // stay race-free (the TSan job runs this suite).
  SloEngine engine(TestOptions());
  constexpr int kSteps = 2000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    int64_t now = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::string json = engine.ToJson(now);
      EXPECT_NE(json.find("\"objectives\""), std::string::npos);
      now += 7;
    }
  });
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3",
                                             "t4", "t5", "t6", "t7"};
  size_t edges = 0;
  for (int step = 0; step < kSteps; ++step) {
    const int64_t now = step * 3;
    engine.Observe(tenants[step % tenants.size()],
                   step % 5 == 0 ? ShedAt(now, step + 1) : ServedAt(now));
    edges += engine.NewlyFiring(now).size();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(edges, 0u);
  EXPECT_EQ(engine.Evaluate(kSteps * 3).size(),
            tenants.size() * kNumSloObjectives);
}

}  // namespace
}  // namespace obs
}  // namespace imcf
