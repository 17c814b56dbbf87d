// Per-tenant order within one drain: a tenant's requests execute in the
// drain's order (earliest deadline first, then submission order), and each
// sees the effects of the ones before it. Every case puts two dependent
// requests per tenant into one drain, for many tenants and many drains, and
// checks the second response against a reference service that ran the two
// requests in separate drains.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "serve/fleet_service.h"
#include "trace/dataset.h"

namespace imcf {
namespace serve {
namespace {

constexpr int kTenants = 12;
constexpr int kDrains = 50;
constexpr int kWorkerCounts[] = {1, 4, 8};

TenantId TenantAt(int index) { return StrFormat("t%02d", index); }

std::unique_ptr<FleetService> MakeFleet(int workers) {
  FleetOptions options;
  options.shards = 4;
  options.workers = workers;
  options.queue_capacity = 2 * kTenants;
  auto service = FleetService::Create(options);
  EXPECT_TRUE(service.ok());
  for (int i = 0; i < kTenants; ++i) {
    TenantConfig config;
    config.id = TenantAt(i);
    config.seed = 1 + static_cast<uint64_t>(i);
    config.hours = 24;
    config.appetite = 0.8 + 0.05 * i;
    EXPECT_TRUE((*service)->AddTenant(config).ok());
  }
  return std::move(*service);
}

SimTime DrainTime(int drain) {
  return trace::EvaluationStart() + drain * kSecondsPerHour;
}

/// The MRT update tenant `tenant` receives in drain `drain`: a fresh seed,
/// which re-derives its rule set and planner streams.
Request MrtUpdateReq(int drain, int tenant) {
  Request request;
  request.tenant = TenantAt(tenant);
  request.kind = RequestKind::kMrtUpdate;
  request.issue_time = DrainTime(drain);
  request.mrt_update.seed =
      1000 + static_cast<uint64_t>(drain * kTenants + tenant);
  return request;
}

Request PlanReq(int drain, int tenant) {
  Request request;
  request.tenant = TenantAt(tenant);
  request.kind = RequestKind::kPlan;
  request.issue_time = DrainTime(drain);
  request.plan.policy = sim::Policy::kEnergyPlanner;
  request.plan.rep = drain % 3;
  return request;
}

void Queue(FleetService& service, Request request) {
  ASSERT_FALSE(service.Submit(std::move(request)).has_value());
}

/// Every response of one drain, keyed by (tenant, kind).
std::map<std::pair<TenantId, RequestKind>, Response> ByTenantAndKind(
    std::vector<Response> responses) {
  std::map<std::pair<TenantId, RequestKind>, Response> out;
  for (Response& response : responses) {
    out[{response.tenant, response.kind}] = std::move(response);
  }
  return out;
}

void ExpectSamePlan(const PlanOutcome& got, const PlanOutcome& want) {
  EXPECT_EQ(got.fce_pct, want.fce_pct);
  EXPECT_EQ(got.fe_kwh, want.fe_kwh);
  EXPECT_EQ(got.within_budget, want.within_budget);
  EXPECT_EQ(got.commands_issued, want.commands_issued);
  EXPECT_EQ(got.commands_dropped, want.commands_dropped);
}

/// Reference plans, [drain][tenant]: each update and the plan after it run
/// in separate drains, so the plan sees the update by construction.
std::vector<std::vector<PlanOutcome>> ReferencePlans() {
  std::unique_ptr<FleetService> service = MakeFleet(1);
  std::vector<std::vector<PlanOutcome>> plans(kDrains);
  int changed = 0;
  for (int d = 0; d < kDrains; ++d) {
    std::vector<PlanOutcome> stale;
    for (int t = 0; t < kTenants; ++t) Queue(*service, PlanReq(d, t));
    for (const Response& r : service->Drain(DrainTime(d))) {
      stale.push_back(r.plan);
    }
    for (int t = 0; t < kTenants; ++t) Queue(*service, MrtUpdateReq(d, t));
    for (const Response& r : service->Drain(DrainTime(d))) {
      EXPECT_EQ(r.outcome, ServeOutcome::kOk) << r.status.ToString();
    }
    for (int t = 0; t < kTenants; ++t) Queue(*service, PlanReq(d, t));
    for (const Response& r : service->Drain(DrainTime(d))) {
      EXPECT_EQ(r.outcome, ServeOutcome::kOk);
      plans[d].push_back(r.plan);
    }
    for (int t = 0; t < kTenants; ++t) {
      if (plans[d][t].fe_kwh != stale[t].fe_kwh) ++changed;
    }
  }
  // The updates must matter, or the order under test would be invisible.
  EXPECT_GT(changed, kDrains * kTenants / 2);
  return plans;
}

/// Runs every drain with each tenant's update and plan in one drain.
/// `dated_update_second` submits the plan first without a deadline and the
/// update second with one, so only earliest-deadline-first puts the update
/// ahead of the plan.
void CheckUpdateThenPlan(bool dated_update_second) {
  const std::vector<std::vector<PlanOutcome>> reference = ReferencePlans();
  for (int workers : kWorkerCounts) {
    SCOPED_TRACE(StrFormat("workers=%d", workers));
    std::unique_ptr<FleetService> service = MakeFleet(workers);
    for (int d = 0; d < kDrains; ++d) {
      const SimTime now = DrainTime(d);
      for (int t = 0; t < kTenants; ++t) {
        Request update = MrtUpdateReq(d, t);
        if (dated_update_second) {
          update.deadline = now + kSecondsPerHour;
          Queue(*service, PlanReq(d, t));
          Queue(*service, std::move(update));
        } else {
          Queue(*service, std::move(update));
          Queue(*service, PlanReq(d, t));
        }
      }
      auto responses = ByTenantAndKind(service->Drain(now));
      ASSERT_EQ(responses.size(), static_cast<size_t>(2 * kTenants));
      for (int t = 0; t < kTenants; ++t) {
        SCOPED_TRACE(StrFormat("drain=%d tenant=%d", d, t));
        const Response& update =
            responses[{TenantAt(t), RequestKind::kMrtUpdate}];
        const Response& plan = responses[{TenantAt(t), RequestKind::kPlan}];
        EXPECT_EQ(update.outcome, ServeOutcome::kOk);
        ASSERT_EQ(plan.outcome, ServeOutcome::kOk);
        ExpectSamePlan(plan.plan, reference[d][t]);
      }
    }
  }
}

TEST(FleetOrderTest, PlanAfterMrtUpdateSeesNewRules) {
  CheckUpdateThenPlan(/*dated_update_second=*/false);
}

TEST(FleetOrderTest, DatedMrtUpdateRunsBeforeEarlierUndatedPlan) {
  CheckUpdateThenPlan(/*dated_update_second=*/true);
}

TEST(FleetOrderTest, StatusAfterCommandCountsIt) {
  for (int workers : kWorkerCounts) {
    SCOPED_TRACE(StrFormat("workers=%d", workers));
    std::unique_ptr<FleetService> service = MakeFleet(workers);
    for (int d = 0; d < kDrains; ++d) {
      const SimTime now = DrainTime(d);
      for (int t = 0; t < kTenants; ++t) {
        Request command;
        command.tenant = TenantAt(t);
        command.kind = RequestKind::kCommand;
        command.issue_time = now;
        command.command.type = devices::CommandType::kSetTemperature;
        command.command.value = 20.0 + d % 4;
        Queue(*service, std::move(command));
        Request query;
        query.tenant = TenantAt(t);
        query.kind = RequestKind::kQuery;
        query.issue_time = now;
        Queue(*service, std::move(query));
      }
      auto responses = ByTenantAndKind(service->Drain(now));
      ASSERT_EQ(responses.size(), static_cast<size_t>(2 * kTenants));
      for (int t = 0; t < kTenants; ++t) {
        SCOPED_TRACE(StrFormat("drain=%d tenant=%d", d, t));
        const Response& command =
            responses[{TenantAt(t), RequestKind::kCommand}];
        const Response& status = responses[{TenantAt(t), RequestKind::kQuery}];
        ASSERT_TRUE(command.command_delivered);  // faults disabled
        EXPECT_EQ(status.tenant_status.commands_served, d + 1);
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace imcf
