// Serve-layer conflict-firewall tests: admission vetoes, the kMrtUpdate
// request kind and its kConflictRejected outcome, ledger attribution (a
// vetoed update is never charged as applied work), dataflow-filtered
// context queries, and the /conflictz + strict /tenantz HTTP surfaces.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "firewall/conflict/dataflow_policy.h"
#include "serve/fleet_service.h"
#include "trace/dataset.h"

namespace imcf {
namespace serve {
namespace {

using rules::RuleAction;
using rules::TriggerOp;
using rules::TriggerRule;

TenantConfig FastConfig(const std::string& id, uint64_t seed = 1) {
  TenantConfig config;
  config.id = id;
  config.seed = seed;
  config.hours = 24;
  return config;
}

/// The two halves of an inter-tenant command loop: HVAC output commands
/// the lights, and light level commands the HVAC.
TriggerRule HvacToLight() {
  return TriggerRule::OnTemperature(TriggerOp::kGreaterThan, 24.0,
                                    RuleAction::kSetLight, 0.0);
}
TriggerRule LightToHvac() {
  return TriggerRule::OnLightLevel(TriggerOp::kLessThan, 10.0,
                                   RuleAction::kSetTemperature, 26.0);
}

Request MrtUpdateReq(const std::string& tenant) {
  Request request;
  request.tenant = tenant;
  request.kind = RequestKind::kMrtUpdate;
  request.issue_time = trace::EvaluationStart();
  return request;
}

/// Blocking one-shot HTTP client (mirrors the obs status-server tests).
std::string RawRequest(int port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = request_line + "\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ConflictAdmissionTest, CrossTenantCycleVetoesSecondAdmission) {
  FleetOptions options;
  options.shards = 1;  // both tenants share one shard graph
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());

  TenantConfig first = FastConfig("alice");
  first.extra_recipes = {HvacToLight()};
  ASSERT_TRUE((*service)->AddTenant(first).ok());

  TenantConfig second = FastConfig("bob");
  second.extra_recipes = {LightToHvac()};
  const Status rejected = (*service)->AddTenant(second);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("conflict"), std::string::npos)
      << rejected.message();
  EXPECT_NE(rejected.message().find("command_cycle"), std::string::npos)
      << rejected.message();
  EXPECT_EQ((*service)->registry().size(), 1u);

  // The verdict page records both the admission and the veto.
  const std::string json =
      (*service)->registry().conflict_analyzer().ToJson();
  EXPECT_NE(json.find("\"tenant\":\"bob\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"verdict\":\"rejected\""), std::string::npos) << json;
}

TEST(ConflictAdmissionTest, StockTenantsAdmitCleanly) {
  FleetOptions options;
  options.shards = 1;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  // Stock rule sets (Table II MRT + Table III IFTTT) must never conflict,
  // with each other or across tenants.
  for (const char* id : {"a", "b", "c"}) {
    EXPECT_TRUE((*service)->AddTenant(FastConfig(id)).ok()) << id;
  }
  EXPECT_EQ((*service)->registry().size(), 3u);
}

TEST(ConflictAdmissionTest, ConflictingMrtUpdateIsRejectedNotApplied) {
  FleetOptions options;
  options.shards = 1;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());

  TenantConfig alice = FastConfig("alice");
  alice.extra_recipes = {HvacToLight()};
  ASSERT_TRUE((*service)->AddTenant(alice).ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("bob")).ok());

  // Bob tries to adopt the reverse half of alice's loop.
  Request update = MrtUpdateReq("bob");
  update.mrt_update.set_recipes = true;
  update.mrt_update.extra_recipes = {LightToHvac()};
  const SimTime now = trace::EvaluationStart();
  Response response = (*service)->Call(update, now);
  EXPECT_EQ(response.outcome, ServeOutcome::kConflictRejected);
  EXPECT_FALSE(response.status.ok());
  EXPECT_NE(response.status.message().find("conflict"), std::string::npos);

  // The rejected update left bob's previous (stock) rule set serving.
  auto config = (*service)->registry().GetConfig("bob");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->extra_recipes.empty());
  Request plan;
  plan.tenant = "bob";
  plan.kind = RequestKind::kPlan;
  plan.issue_time = now;
  plan.plan.policy = sim::Policy::kEnergyPlanner;
  EXPECT_EQ((*service)->Call(plan, now).outcome, ServeOutcome::kOk);

  // The veto is charged as a conflict rejection, NEVER as applied work.
  for (const obs::CostLedger::Row& row :
       (*service)->cost_ledger().Snapshot()) {
    if (row.tenant != "bob") continue;
    EXPECT_EQ(row.cost.conflict_rejections, 1);
    EXPECT_EQ(row.cost.mrt_updates_ok, 0);
    EXPECT_EQ(row.cost.plans_ok, 1);  // only the explicit plan above
  }
}

TEST(ConflictAdmissionTest, AcceptedMrtUpdateSwapsRuleSetAndIsCharged) {
  auto service = FleetService::Create(FleetOptions{});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a", /*seed=*/1)).ok());

  Request update = MrtUpdateReq("a");
  update.mrt_update.seed = 42;
  const SimTime now = trace::EvaluationStart();
  Response response = (*service)->Call(update, now);
  EXPECT_EQ(response.outcome, ServeOutcome::kOk);

  auto config = (*service)->registry().GetConfig("a");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->seed, 42u);

  // The rebuilt tenant still serves plans.
  Request plan;
  plan.tenant = "a";
  plan.kind = RequestKind::kPlan;
  plan.issue_time = now;
  EXPECT_EQ((*service)->Call(plan, now).outcome, ServeOutcome::kOk);

  for (const obs::CostLedger::Row& row :
       (*service)->cost_ledger().Snapshot()) {
    if (row.tenant != "a") continue;
    EXPECT_EQ(row.cost.mrt_updates_ok, 1);
    EXPECT_EQ(row.cost.conflict_rejections, 0);
    EXPECT_EQ(row.cost.plans_ok, 1);
  }
}

TEST(ConflictAdmissionTest, ContextQueryMirrorsDataflowPolicy) {
  auto service = FleetService::Create(FleetOptions{});
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());

  uint32_t policy_fields = 0;
  ASSERT_TRUE((*service)
                  ->registry()
                  .WithTenant("a",
                              [&](Tenant& tenant) {
                                policy_fields =
                                    tenant.dataflow_policy().fields;
                                return Status::Ok();
                              })
                  .ok());
  ASSERT_NE(policy_fields, 0u);

  Request query;
  query.tenant = "a";
  query.kind = RequestKind::kQuery;
  query.query.kind = QueryKind::kContext;
  query.query.unit = 0;
  query.issue_time = trace::EvaluationStart() + kSecondsPerHour;
  Response response = (*service)->Call(query, query.issue_time);
  ASSERT_EQ(response.outcome, ServeOutcome::kOk);
  // The view advertises exactly the fields the tenant's rules consume.
  EXPECT_EQ(response.context.fields, policy_fields);
  EXPECT_EQ(response.context.time, query.issue_time);
  // Stock rules read both ambient channels, so the snapshot carries them.
  using firewall::conflict::kFieldAmbientLight;
  using firewall::conflict::kFieldAmbientTemp;
  EXPECT_NE(policy_fields & kFieldAmbientTemp, 0u);
  EXPECT_NE(policy_fields & kFieldAmbientLight, 0u);
  EXPECT_NE(response.context.ambient_temp_c, 0.0);

  // A unit outside the building is an execution error, not a crash.
  query.query.unit = 99;
  EXPECT_EQ((*service)->Call(query, query.issue_time).outcome,
            ServeOutcome::kError);
}

TEST(ConflictAdmissionTest, ConflictzAndStrictTenantzOverHttp) {
  FleetOptions options;
  options.status_port = 0;  // ephemeral
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(FastConfig("a")).ok());
  ASSERT_NE((*service)->status_server(), nullptr);
  const int port = (*service)->status_server()->port();

  const std::string conflictz = RawRequest(port, "GET /conflictz HTTP/1.0");
  EXPECT_NE(conflictz.find("HTTP/1.0 200 OK"), std::string::npos)
      << conflictz;
  EXPECT_NE(conflictz.find("\"tenant\":\"a\""), std::string::npos)
      << conflictz;
  EXPECT_NE(conflictz.find("\"verdict\":\"ok\""), std::string::npos)
      << conflictz;

  // Strict /tenantz: unknown sort and malformed k are 400s, valid forms
  // still serve. The ledger has no byte column, so sort=bytes is unknown.
  EXPECT_NE(RawRequest(port, "GET /tenantz?sort=bogus HTTP/1.0").find("400"),
            std::string::npos);
  const std::string bytes =
      RawRequest(port, "GET /tenantz?sort=bytes HTTP/1.0");
  EXPECT_NE(bytes.find("400"), std::string::npos) << bytes;
  EXPECT_NE(bytes.find("sort=cpu|plans|sheds"), std::string::npos) << bytes;
  EXPECT_NE(RawRequest(port, "GET /tenantz?k=12x HTTP/1.0").find("400"),
            std::string::npos);
  EXPECT_NE(RawRequest(port, "GET /tenantz?k=-1 HTTP/1.0").find("400"),
            std::string::npos);
  for (const char* target : {"/tenantz?sort=cpu&k=2", "/tenantz?sort=plans",
                             "/tenantz?sort=sheds"}) {
    EXPECT_NE(RawRequest(port, std::string("GET ") + target + " HTTP/1.0")
                  .find("HTTP/1.0 200 OK"),
              std::string::npos)
        << target;
  }
}

}  // namespace
}  // namespace serve
}  // namespace imcf
