// Conflict-firewall tests: the three detector classes on hand-built
// fixtures, the transactional device graph, dataflow-policy derivation and
// redaction, and the end-to-end analyzer (verdict store + /conflictz JSON).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "firewall/conflict/analyzer.h"
#include "firewall/conflict/conflict_report.h"
#include "firewall/conflict/dataflow_policy.h"
#include "firewall/conflict/device_graph.h"
#include "firewall/conflict/setpoint_analyzer.h"
#include "rules/meta_rule.h"
#include "rules/trigger_rule.h"

namespace imcf {
namespace firewall {
namespace conflict {
namespace {

using devices::DeviceKind;
using rules::MetaRule;
using rules::MetaRuleTable;
using rules::RuleAction;
using rules::TriggerOp;
using rules::TriggerRule;
using rules::TriggerRuleTable;

MetaRule TempRule(int unit, double value, int start_min, int end_min,
                  bool necessity = false) {
  MetaRule rule;
  rule.description = "test temp";
  rule.window = TimeWindow{start_min, end_min};
  rule.action = RuleAction::kSetTemperature;
  rule.value = value;
  rule.unit = unit;
  rule.necessity = necessity;
  return rule;
}

MetaRule LightRule(int unit, double value, int start_min, int end_min) {
  MetaRule rule;
  rule.description = "test light";
  rule.window = TimeWindow{start_min, end_min};
  rule.action = RuleAction::kSetLight;
  rule.value = value;
  rule.unit = unit;
  return rule;
}

// ---------------------------------------------------------------------------
// Detector (a): contradictory setpoints.

TEST(SetpointAnalyzerTest, DetectsContradictoryTemperaturePair) {
  MetaRuleTable mrt;
  ASSERT_TRUE(mrt.Add(TempRule(0, 18.0, 8 * 60, 12 * 60)).ok());
  ASSERT_TRUE(mrt.Add(TempRule(0, 28.0, 9 * 60, 13 * 60)).ok());  // 3h overlap
  ConflictReport report;
  const int64_t scanned =
      FindContradictorySetpoints(mrt, SetpointOptions{}, &report);
  EXPECT_EQ(scanned, 2);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].cls, ConflictClass::kContradictorySetpoint);
  EXPECT_EQ(report.findings[0].rule_a, 0);
  EXPECT_EQ(report.findings[0].rule_b, 1);
  EXPECT_DOUBLE_EQ(report.findings[0].severity, 10.0);
  EXPECT_EQ(report.CountOf(ConflictClass::kContradictorySetpoint), 1);
}

TEST(SetpointAnalyzerTest, SmallOverlapOrSmallGapIsBenign) {
  // Gap over threshold but overlap under 120 minutes: benign.
  MetaRuleTable short_overlap;
  ASSERT_TRUE(short_overlap.Add(TempRule(0, 18.0, 8 * 60, 10 * 60)).ok());
  ASSERT_TRUE(short_overlap.Add(TempRule(0, 28.0, 9 * 60, 13 * 60)).ok());
  ConflictReport r1;
  FindContradictorySetpoints(short_overlap, SetpointOptions{}, &r1);
  EXPECT_TRUE(r1.ok());

  // Long overlap but gap under 6 °C: benign.
  MetaRuleTable small_gap;
  ASSERT_TRUE(small_gap.Add(TempRule(0, 21.0, 8 * 60, 12 * 60)).ok());
  ASSERT_TRUE(small_gap.Add(TempRule(0, 24.0, 8 * 60, 12 * 60)).ok());
  ConflictReport r2;
  FindContradictorySetpoints(small_gap, SetpointOptions{}, &r2);
  EXPECT_TRUE(r2.ok());

  // Same windows and gap but different units: different devices, benign.
  MetaRuleTable other_unit;
  ASSERT_TRUE(other_unit.Add(TempRule(0, 18.0, 8 * 60, 12 * 60)).ok());
  ASSERT_TRUE(other_unit.Add(TempRule(1, 28.0, 8 * 60, 12 * 60)).ok());
  ConflictReport r3;
  FindContradictorySetpoints(other_unit, SetpointOptions{}, &r3);
  EXPECT_TRUE(r3.ok());
}

TEST(SetpointAnalyzerTest, LightRulesUseLightThreshold) {
  MetaRuleTable mrt;
  ASSERT_TRUE(mrt.Add(LightRule(0, 10.0, 18 * 60, 22 * 60)).ok());
  ASSERT_TRUE(mrt.Add(LightRule(0, 90.0, 18 * 60, 22 * 60)).ok());
  ConflictReport report;
  FindContradictorySetpoints(mrt, SetpointOptions{}, &report);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_DOUBLE_EQ(report.findings[0].severity, 80.0);
}

TEST(SetpointAnalyzerTest, StockDatasetsAdmit) {
  // The calibrated defaults must never reject the paper's own datasets.
  for (int units : {1, 4, 20}) {
    MetaRuleTable mrt = rules::VariedMrt(units, 1.0, /*seed=*/7, 100.0);
    ConflictReport report;
    FindContradictorySetpoints(mrt, SetpointOptions{}, &report);
    EXPECT_TRUE(report.ok()) << units << " units: " << report.Summary();
  }
}

// ---------------------------------------------------------------------------
// Detector (b): the device-command graph.

TEST(DeviceGraphTest, InterTenantCycleRejectsAndRollsBack) {
  DeviceCommandGraph graph;
  const int hvac = DeviceNode(0, DeviceKind::kHvac);
  const int light = DeviceNode(0, DeviceKind::kLight);

  EXPECT_TRUE(graph.TryInstall("alice", {CommandEdge{hvac, light}}).empty());
  EXPECT_EQ(graph.edge_count(), 1u);

  // Bob wires the reverse half: light -> hvac closes the loop through
  // alice's edge.
  std::vector<ConflictFinding> findings =
      graph.TryInstall("bob", {CommandEdge{light, hvac}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].cls, ConflictClass::kCommandCycle);
  EXPECT_EQ(findings[0].other_tenant, "alice");
  EXPECT_GE(findings[0].severity, 2.0);  // cycle length in edges

  // Rollback: bob's edges are gone, alice's remain.
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_TRUE(graph.EdgesOf("bob").empty());
  EXPECT_EQ(graph.EdgesOf("alice").size(), 1u);

  // Once alice leaves, the same edges admit.
  graph.Remove("alice");
  EXPECT_TRUE(graph.TryInstall("bob", {CommandEdge{light, hvac}}).empty());
  EXPECT_EQ(graph.tenant_count(), 1u);
}

TEST(DeviceGraphTest, IntraTenantLoopIsAllowed) {
  // A tenant wiring both halves itself is its own business (the firewall
  // chain rate-limits runtime loops); only inter-tenant cycles reject.
  DeviceCommandGraph graph;
  const int hvac = DeviceNode(0, DeviceKind::kHvac);
  const int light = DeviceNode(0, DeviceKind::kLight);
  EXPECT_TRUE(graph
                  .TryInstall("alice", {CommandEdge{hvac, light},
                                        CommandEdge{light, hvac}})
                  .empty());
  EXPECT_EQ(graph.edge_count(), 2u);
}

TEST(DeviceGraphTest, ReinstallReplacesPreviousEdges) {
  DeviceCommandGraph graph;
  const int hvac = DeviceNode(0, DeviceKind::kHvac);
  const int light = DeviceNode(0, DeviceKind::kLight);
  EXPECT_TRUE(graph.TryInstall("alice", {CommandEdge{hvac, light}}).empty());
  EXPECT_TRUE(
      graph.TryInstall("alice", {CommandEdge{DeviceNode(1, DeviceKind::kHvac),
                                             DeviceNode(1, DeviceKind::kLight)}})
          .empty());
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.EdgesOf("alice")[0].from, DeviceNode(1, DeviceKind::kHvac));
}

TEST(DeriveCommandEdgesTest, CrossKindRulesOnlyOnePerUnit) {
  TriggerRuleTable ifttt;
  // Cross-kind: HVAC output commands the lights.
  ifttt.Add(TriggerRule::OnTemperature(TriggerOp::kGreaterThan, 24.0,
                                       RuleAction::kSetLight, 0.0));
  // Same-kind (stabilizing): no edge.
  ifttt.Add(TriggerRule::OnTemperature(TriggerOp::kGreaterThan, 26.0,
                                       RuleAction::kSetTemperature, 22.0));
  // Environmental trigger: no source device, no edge.
  ifttt.Add(TriggerRule::OnDoor(true, RuleAction::kSetTemperature, 18.0));

  const std::vector<CommandEdge> edges = DeriveCommandEdges(ifttt, 3);
  ASSERT_EQ(edges.size(), 3u);  // one cross-kind rule x 3 units
  for (int unit = 0; unit < 3; ++unit) {
    EXPECT_EQ(edges[static_cast<size_t>(unit)].from,
              DeviceNode(unit, DeviceKind::kHvac));
    EXPECT_EQ(edges[static_cast<size_t>(unit)].to,
              DeviceNode(unit, DeviceKind::kLight));
  }
}

TEST(DeriveCommandEdgesTest, StockIftttContributesNoEdges) {
  // Table III's recipes never read one device kind and command the other,
  // so stock tenants can never trip the cycle detector.
  EXPECT_TRUE(DeriveCommandEdges(rules::FlatIfttt(), 4).empty());
}

// ---------------------------------------------------------------------------
// Detector (c): budget infeasibility, and the analyzer end-to-end.

TenantRuleSet RuleSetFor(const MetaRuleTable* mrt,
                         const TriggerRuleTable* ifttt, double budget_kwh,
                         int period_days) {
  TenantRuleSet rule_set;
  rule_set.mrt = mrt;
  rule_set.ifttt = ifttt;
  rule_set.budget_kwh = budget_kwh;
  rule_set.period_days = period_days;
  rule_set.units = 1;
  rule_set.hourly_energy = [](const MetaRule&, int) { return 1.0; };  // 1 kW
  return rule_set;
}

TEST(ConflictAnalyzerTest, NecessityDemandOverBudgetRejects) {
  MetaRuleTable mrt;
  // A necessity rule running all day at 1 kW: 24 kWh/day.
  ASSERT_TRUE(mrt.Add(TempRule(0, 22.0, 0, kMinutesPerDay,
                               /*necessity=*/true))
                  .ok());
  TriggerRuleTable ifttt;
  ConflictAnalyzer analyzer(1);
  const ConflictReport report = analyzer.Analyze(
      0, "greedy", RuleSetFor(&mrt, &ifttt, /*budget_kwh=*/10.0,
                              /*period_days=*/1));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.CountOf(ConflictClass::kBudgetInfeasible), 1);
  EXPECT_NEAR(report.findings[0].severity, 14.0, 1e-6);  // 24 - 10
}

TEST(ConflictAnalyzerTest, WrappingPartialHourNecessityWindowWeighsMinutes) {
  MetaRuleTable mrt;
  // 22:30-06:15 wraps midnight and starts and ends mid-hour.
  ASSERT_TRUE(mrt.Add(TempRule(0, 22.0, 22 * 60 + 30, 6 * 60 + 15,
                               /*necessity=*/true))
                  .ok());
  TriggerRuleTable ifttt;
  TenantRuleSet rule_set = RuleSetFor(&mrt, &ifttt, /*budget_kwh=*/10.0,
                                      /*period_days=*/1);
  // (1 + hour) kW, so each hour's share is visible in the sum:
  // hours 0-5 in full (21 kWh), 06:00-06:15 (7/4), 22:30-23:00 (23/2)
  // and 23:00-24:00 (24) make 58.25 kWh/day.
  rule_set.hourly_energy = [](const MetaRule&, int hour) {
    return 1.0 + hour;
  };
  ConflictAnalyzer analyzer(1);
  const ConflictReport report = analyzer.Analyze(0, "night", rule_set);
  ASSERT_EQ(report.CountOf(ConflictClass::kBudgetInfeasible), 1);
  EXPECT_DOUBLE_EQ(report.findings[0].severity, 48.25);  // 58.25 - 10
}

TEST(ConflictAnalyzerTest, ConvenienceDemandAloneNeverRejects) {
  MetaRuleTable mrt;
  // Same demand but droppable: the planner can shed it, so the lower
  // bound argument does not apply.
  ASSERT_TRUE(mrt.Add(TempRule(0, 22.0, 0, kMinutesPerDay)).ok());
  TriggerRuleTable ifttt;
  ConflictAnalyzer analyzer(1);
  EXPECT_TRUE(analyzer
                  .Analyze(0, "frugal",
                           RuleSetFor(&mrt, &ifttt, 10.0, 1))
                  .ok());
}

TEST(ConflictAnalyzerTest, CrossTenantCycleRejectsSecondTenant) {
  MetaRuleTable mrt;  // empty MRTs: isolate the graph detector
  TriggerRuleTable hvac_to_light;
  hvac_to_light.Add(TriggerRule::OnTemperature(TriggerOp::kGreaterThan, 24.0,
                                               RuleAction::kSetLight, 0.0));
  TriggerRuleTable light_to_hvac;
  light_to_hvac.Add(TriggerRule::OnLightLevel(TriggerOp::kLessThan, 10.0,
                                              RuleAction::kSetTemperature,
                                              26.0));

  ConflictAnalyzer analyzer(1);
  EXPECT_TRUE(
      analyzer.Analyze(0, "alice", RuleSetFor(&mrt, &hvac_to_light, 0, 0))
          .ok());
  const ConflictReport rejected =
      analyzer.Analyze(0, "bob", RuleSetFor(&mrt, &light_to_hvac, 0, 0));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.CountOf(ConflictClass::kCommandCycle), 1);
  EXPECT_EQ(rejected.findings[0].other_tenant, "alice");

  // The rejection rolled bob back; once alice is forgotten he admits.
  analyzer.Forget(0, "alice");
  EXPECT_TRUE(
      analyzer.Analyze(0, "bob", RuleSetFor(&mrt, &light_to_hvac, 0, 0))
          .ok());
}

TEST(ConflictAnalyzerTest, StockTenantAdmitsAndToJsonRendersVerdicts) {
  MetaRuleTable mrt = rules::VariedMrt(2, 1.0, /*seed=*/3, 50.0);
  TriggerRuleTable ifttt = rules::FlatIfttt();
  TenantRuleSet rule_set = RuleSetFor(&mrt, &ifttt, 50.0, 30);
  rule_set.units = 2;

  ConflictAnalyzer analyzer(4);
  EXPECT_TRUE(analyzer.Analyze(1, "stock", rule_set).ok());

  const std::string json = analyzer.ToJson();
  EXPECT_NE(json.find("\"tenant\":\"stock\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dataflow_fields\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"totals\""), std::string::npos) << json;

  // The derived policy is recorded for the query path.
  EXPECT_NE(analyzer.PolicyFor("stock").fields, 0u);
  EXPECT_EQ(analyzer.PolicyFor("nobody").fields, 0u);
}

// ---------------------------------------------------------------------------
// Dataflow policy derivation + redaction.

TEST(DataflowPolicyTest, DerivesExactlyTheConsumedFields) {
  MetaRuleTable mrt;
  ASSERT_TRUE(mrt.Add(LightRule(0, 40.0, 18 * 60, 22 * 60)).ok());
  TriggerRuleTable ifttt;
  ifttt.Add(TriggerRule::OnDoor(true, RuleAction::kSetLight, 80.0));

  const DataflowPolicy policy = DerivePolicy(mrt, ifttt);
  EXPECT_TRUE(policy.Allows(kFieldTime));          // rule windows
  EXPECT_TRUE(policy.Allows(kFieldAmbientLight));  // SetLight feedback
  EXPECT_TRUE(policy.Allows(kFieldDaylight));
  EXPECT_TRUE(policy.Allows(kFieldDoor));          // door trigger
  EXPECT_FALSE(policy.Allows(kFieldAmbientTemp));  // no temperature rule
  EXPECT_FALSE(policy.Allows(kFieldOutdoorTemp));
  EXPECT_FALSE(policy.Allows(kFieldSeason));
  EXPECT_FALSE(policy.Allows(kFieldSky));
}

TEST(DataflowPolicyTest, FilterContextZeroesDisallowedFields) {
  rules::EvaluationContext ctx;
  ctx.time = 12345;
  ctx.weather.season = weather::Season::kSummer;
  ctx.weather.outdoor_temp_c = 31.0;
  ctx.ambient_temp_c = 26.5;
  ctx.ambient_light_pct = 55.0;
  ctx.door_open = true;

  DataflowPolicy policy;
  policy.fields = kFieldTime | kFieldAmbientTemp;
  const rules::EvaluationContext filtered = FilterContext(ctx, policy);

  EXPECT_EQ(filtered.time, 12345);                   // allowed
  EXPECT_DOUBLE_EQ(filtered.ambient_temp_c, 26.5);   // allowed
  EXPECT_EQ(filtered.weather.season, weather::Season{});  // redacted
  EXPECT_DOUBLE_EQ(filtered.weather.outdoor_temp_c, 0.0);
  EXPECT_DOUBLE_EQ(filtered.ambient_light_pct, 0.0);
  EXPECT_FALSE(filtered.door_open);
}

TEST(DataflowPolicyTest, FieldListNamesBitsInOrder) {
  DataflowPolicy policy;
  policy.fields = kFieldTime | kFieldDoor;
  const std::vector<std::string> fields = DataflowFieldList(policy);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "time");
  EXPECT_EQ(fields[1], "door");
}

}  // namespace
}  // namespace conflict
}  // namespace firewall
}  // namespace imcf
