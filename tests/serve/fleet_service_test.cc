#include "serve/fleet_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "trace/dataset.h"

namespace imcf {
namespace serve {
namespace {

TenantConfig FastConfig(const std::string& id, uint64_t seed = 1) {
  TenantConfig config;
  config.id = id;
  config.seed = seed;
  config.hours = 24;
  return config;
}

Request PlanReq(const std::string& tenant, int rep = 0) {
  Request request;
  request.tenant = tenant;
  request.kind = RequestKind::kPlan;
  request.issue_time = trace::EvaluationStart();
  request.plan.policy = sim::Policy::kEnergyPlanner;
  request.plan.rep = rep;
  return request;
}

Request QueryReq(const std::string& tenant) {
  Request request;
  request.tenant = tenant;
  request.kind = RequestKind::kQuery;
  request.issue_time = trace::EvaluationStart();
  return request;
}

class FleetServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/imcf_fleet_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(FleetServiceTest, PlanCommandAndQueryRoundTrip) {
  FleetOptions options;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());

  const SimTime now = trace::EvaluationStart() + kSecondsPerHour;
  Response plan = (*service)->Call(PlanReq("a"), now);
  EXPECT_EQ(plan.outcome, ServeOutcome::kOk);
  EXPECT_GT(plan.plan.fe_kwh, 0.0);
  EXPECT_EQ(plan.virtual_latency_seconds, kSecondsPerHour);

  Request command;
  command.tenant = "a";
  command.kind = RequestKind::kCommand;
  command.issue_time = now;
  command.command.unit = 0;
  command.command.type = devices::CommandType::kSetTemperature;
  command.command.value = 21.0;
  Response delivered = (*service)->Call(command, now);
  EXPECT_EQ(delivered.outcome, ServeOutcome::kOk);
  EXPECT_TRUE(delivered.command_delivered);  // faults disabled
  EXPECT_EQ(delivered.command_attempts, 1);

  Request query;
  query.tenant = "a";
  query.kind = RequestKind::kQuery;
  query.issue_time = now;
  Response status = (*service)->Call(query, now);
  EXPECT_EQ(status.outcome, ServeOutcome::kOk);
  EXPECT_EQ(status.tenant_status.plans_served, 1);
  EXPECT_EQ(status.tenant_status.commands_served, 1);
  EXPECT_GT(status.tenant_status.devices, 0);
}

TEST_F(FleetServiceTest, UnknownTenantRejectedAtSubmit) {
  auto service = FleetService::Create(FleetOptions{});
  ASSERT_TRUE(service.ok());
  auto response = (*service)->Submit(PlanReq("ghost"));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->outcome, ServeOutcome::kTenantNotFound);
  EXPECT_EQ((*service)->queued(), 0u);
}

TEST_F(FleetServiceTest, FullQueueShedsWithRetryAfter) {
  FleetOptions options;
  options.shards = 1;
  options.queue_capacity = 2;
  options.shed_retry_after_seconds = 90;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  EXPECT_FALSE((*service)->Submit(PlanReq("a", 0)).has_value());
  EXPECT_FALSE((*service)->Submit(PlanReq("a", 1)).has_value());
  auto shed = (*service)->Submit(PlanReq("a", 2));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->outcome, ServeOutcome::kShed);
  EXPECT_EQ(shed->retry_after_seconds, 90);
  EXPECT_EQ((*service)->queued(), 2u);
  // Draining frees the queue for the retried request.
  EXPECT_EQ((*service)->Drain(trace::EvaluationStart()).size(), 2u);
  EXPECT_FALSE((*service)->Submit(PlanReq("a", 2)).has_value());
}

TEST_F(FleetServiceTest, ShedRetryAfterScalesWithObservedDrainRate) {
  FleetOptions options;
  options.shards = 1;
  options.queue_capacity = 4;
  options.shed_retry_after_seconds = 90;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  const SimTime t0 = trace::EvaluationStart();

  // First drain only establishes the clock: no rate observation yet.
  ASSERT_FALSE((*service)->Submit(PlanReq("a", 0)).has_value());
  ASSERT_FALSE((*service)->Submit(PlanReq("a", 1)).has_value());
  EXPECT_EQ((*service)->Drain(t0).size(), 2u);

  // Second drain 100 sim-seconds later clears 2 items: 50 s/item observed.
  ASSERT_FALSE((*service)->Submit(PlanReq("a", 2)).has_value());
  ASSERT_FALSE((*service)->Submit(PlanReq("a", 3)).has_value());
  EXPECT_EQ((*service)->Drain(t0 + 100).size(), 2u);

  // Overflow with 4 queued: estimate = ceil(4 * 100 / 2) = 200 s, which
  // replaces the static 90 s hint.
  for (int rep = 4; rep < 8; ++rep) {
    ASSERT_FALSE((*service)->Submit(PlanReq("a", rep)).has_value());
  }
  auto shed = (*service)->Submit(PlanReq("a", 8));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->outcome, ServeOutcome::kShed);
  EXPECT_EQ(shed->retry_after_seconds, 200);

  // A glacial drain saturates at the 8x-base ceiling instead of telling
  // clients to come back in a sim-week.
  EXPECT_EQ((*service)->Drain(t0 + 100 + 1000000).size(), 4u);
  for (int rep = 9; rep < 13; ++rep) {
    ASSERT_FALSE((*service)->Submit(PlanReq("a", rep)).has_value());
  }
  shed = (*service)->Submit(PlanReq("a", 13));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->outcome, ServeOutcome::kShed);
  EXPECT_EQ(shed->retry_after_seconds, 90 * 8);
}

TEST_F(FleetServiceTest, ExpiredDeadlineSkipsExecution) {
  auto service = FleetService::Create(FleetOptions{});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  const SimTime start = trace::EvaluationStart();
  Request expired = PlanReq("a", 0);
  expired.deadline = start + 10;
  Request alive = PlanReq("a", 1);
  alive.deadline = start + kSecondsPerHour + 10;
  ASSERT_FALSE((*service)->Submit(expired).has_value());
  ASSERT_FALSE((*service)->Submit(alive).has_value());
  std::vector<Response> responses =
      (*service)->Drain(start + kSecondsPerHour);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].outcome, ServeOutcome::kDeadlineExceeded);
  EXPECT_EQ(responses[1].outcome, ServeOutcome::kOk);
  EXPECT_EQ((*service)->registry().GetStats("a")->deadline_expired, 1);
}

TEST_F(FleetServiceTest, ResponsesSortedByRequestId) {
  auto service = FleetService::Create(FleetOptions{});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("b")).ok());
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_FALSE((*service)->Submit(PlanReq("b", rep)).has_value());
    ASSERT_FALSE((*service)->Submit(PlanReq("a", rep)).has_value());
  }
  std::vector<Response> responses =
      (*service)->Drain(trace::EvaluationStart());
  ASSERT_EQ(responses.size(), 6u);
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_LT(responses[i - 1].id, responses[i].id);
  }
}

TEST_F(FleetServiceTest, CallReturnsItsOwnResponseUnderConcurrentSubmits) {
  auto service = FleetService::Create(FleetOptions{});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("b")).ok());
  // Another thread keeps submitting for tenant b; Call drains those too,
  // but must hand back the response to its own request.
  std::atomic<bool> stop{false};
  std::thread submitter([&] {
    while (!stop.load()) {
      (void)(*service)->Submit(QueryReq("b"));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  int foreign = 0;
  for (int i = 0; i < 500; ++i) {
    const Response response =
        (*service)->Call(QueryReq("a"), trace::EvaluationStart());
    if (response.tenant != "a" || response.outcome != ServeOutcome::kOk) {
      ++foreign;
    }
  }
  stop.store(true);
  submitter.join();
  EXPECT_EQ(foreign, 0);
}

TEST_F(FleetServiceTest, ErrorOutcomeForBadCommandUnit) {
  auto service = FleetService::Create(FleetOptions{});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  Request command;
  command.tenant = "a";
  command.kind = RequestKind::kCommand;
  command.issue_time = trace::EvaluationStart();
  command.command.unit = 999;  // the flat has one unit
  Response response =
      (*service)->Call(command, trace::EvaluationStart());
  EXPECT_EQ(response.outcome, ServeOutcome::kError);
  EXPECT_FALSE(response.status.ok());
}

TEST_F(FleetServiceTest, SurvivesStopAndRestartWithStateRecovered) {
  FleetOptions options;
  options.store_dir = dir_;
  const SimTime now = trace::EvaluationStart() + kSecondsPerHour;

  TenantStats pre_stats_a;
  double pre_fe_a = 0.0;
  {
    auto service = FleetService::Create(options);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->AddTenant(FastConfig("a", /*seed=*/5)).ok());
    ASSERT_TRUE((*service)->AddTenant(FastConfig("b", /*seed=*/6)).ok());
    Response plan = (*service)->Call(PlanReq("a"), now);
    ASSERT_EQ(plan.outcome, ServeOutcome::kOk);
    pre_fe_a = plan.plan.fe_kwh;
    pre_stats_a = *(*service)->registry().GetStats("a");
    ASSERT_TRUE((*service)->Stop(now).ok());
  }  // full service teardown

  auto restarted = FleetService::Create(options);
  ASSERT_TRUE(restarted.ok());
  EXPECT_EQ((*restarted)->registry().size(), 2u);
  EXPECT_EQ((*restarted)->registry().TenantIds(),
            (std::vector<TenantId>{"a", "b"}));
  // Counters match the pre-restart fleet exactly.
  EXPECT_EQ(*(*restarted)->registry().GetStats("a"), pre_stats_a);
  auto config = (*restarted)->registry().GetConfig("a");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->seed, 5u);
  // The recovered tenant replays the same plan outcome bit-identically.
  Response replay = (*restarted)->Call(PlanReq("a"), now);
  ASSERT_EQ(replay.outcome, ServeOutcome::kOk);
  EXPECT_EQ(replay.plan.fe_kwh, pre_fe_a);
}

TEST_F(FleetServiceTest, CheckpointCyclesKeepSnapshotBounded) {
  FleetOptions options;
  options.store_dir = dir_;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*service)->Checkpoint().ok());
  }
  auto reopened = FleetService::Create(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->registry().size(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace imcf
