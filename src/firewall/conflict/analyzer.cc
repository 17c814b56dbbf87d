#include "firewall/conflict/analyzer.h"

#include <algorithm>
#include <optional>

#include "common/strings.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace firewall {
namespace conflict {

namespace {

// Device kind whose output a trigger field observes; nullopt for
// environmental fields (season, weather, door) no actuator controls.
std::optional<devices::DeviceKind> TriggerSourceKind(
    rules::TriggerField field) {
  switch (field) {
    case rules::TriggerField::kTemperature:
      return devices::DeviceKind::kHvac;
    case rules::TriggerField::kLightLevel:
      return devices::DeviceKind::kLight;
    case rules::TriggerField::kSeason:
    case rules::TriggerField::kWeather:
    case rules::TriggerField::kDoor:
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<devices::DeviceKind> ActionDestKind(rules::RuleAction action) {
  switch (action) {
    case rules::RuleAction::kSetTemperature:
      return devices::DeviceKind::kHvac;
    case rules::RuleAction::kSetLight:
      return devices::DeviceKind::kLight;
    case rules::RuleAction::kSetKwhLimit:
      return std::nullopt;
  }
  return std::nullopt;
}

// Minutes of the hour [hour*60, hour*60+60) covered by `window`, honouring
// wrap-around windows.
int MinutesOfHourInWindow(const TimeWindow& window, int hour) {
  const int h0 = hour * 60;
  const int h1 = h0 + 60;
  auto overlap = [&](int a, int b) {
    const int lo = std::max(a, h0);
    const int hi = std::min(b, h1);
    return std::max(0, hi - lo);
  };
  if (window.start_minute <= window.end_minute) {
    return overlap(window.start_minute, window.end_minute);
  }
  // Wrapping window = [start, 24:00) ∪ [0:00, end).
  return overlap(window.start_minute, kMinutesPerDay) +
         overlap(0, window.end_minute);
}

obs::Counter* ChecksCounter() {
  static obs::Counter* counter = obs::MetricRegistry::Default().GetCounter(
      "imcf_conflict_checks_total",
      "Rule-set conflict analyses run (admissions + MRT updates)");
  return counter;
}

obs::Counter* RulesAnalyzedCounter() {
  static obs::Counter* counter = obs::MetricRegistry::Default().GetCounter(
      "imcf_conflict_rules_analyzed_total",
      "Rules scanned by the conflict pass");
  return counter;
}

obs::Counter* RejectionsCounter() {
  static obs::Counter* counter = obs::MetricRegistry::Default().GetCounter(
      "imcf_conflict_rejections_total",
      "Rule sets rejected by the conflict pass");
  return counter;
}

obs::Counter* FindingsCounter(ConflictClass cls) {
  static obs::Counter* counters[kNumConflictClasses] = {nullptr, nullptr,
                                                        nullptr};
  const size_t i = static_cast<size_t>(cls);
  if (counters[i] == nullptr) {
    counters[i] = obs::MetricRegistry::Default().GetCounter(
        "imcf_conflict_findings_total", "Conflict findings by detector class",
        {{"class", ConflictClassName(cls)}});
  }
  return counters[i];
}

}  // namespace

std::vector<CommandEdge> DeriveCommandEdges(
    const rules::TriggerRuleTable& ifttt, int units) {
  std::vector<CommandEdge> edges;
  for (const rules::TriggerRule& rule : ifttt.rules()) {
    const auto src = TriggerSourceKind(rule.field);
    const auto dst = ActionDestKind(rule.action);
    if (!src || !dst) continue;
    // Same-kind rules (temperature trigger -> temperature action) are
    // stabilizing feedback, not a command hop to another device.
    if (*src == *dst) continue;
    for (int unit = 0; unit < units; ++unit) {
      edges.push_back(
          CommandEdge{DeviceNode(unit, *src), DeviceNode(unit, *dst)});
    }
  }
  return edges;
}

ConflictAnalyzer::ConflictAnalyzer(int shards, ConflictOptions options)
    : options_(options) {
  if (shards < 1) shards = 1;
  graphs_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    graphs_.push_back(std::make_unique<DeviceCommandGraph>());
  }
}

ConflictReport ConflictAnalyzer::Analyze(int shard, const std::string& tenant,
                                         const TenantRuleSet& rule_set) {
  obs::ScopedSpan span("conflict.analyze", "firewall");
  ConflictReport report;
  report.tenant = tenant;

  // (a) intra-tenant contradictory setpoints.
  if (rule_set.mrt != nullptr) {
    report.rules_analyzed += FindContradictorySetpoints(
        *rule_set.mrt, options_.setpoint, &report);
  }

  // (c) budget infeasibility: necessity-rule demand alone vs budget/day.
  if (rule_set.mrt != nullptr && rule_set.hourly_energy != nullptr &&
      rule_set.budget_kwh > 0 && rule_set.period_days > 0) {
    double necessity_kwh_per_day = 0.0;
    for (int id : rule_set.mrt->necessity_ids()) {
      const rules::MetaRule& rule = *rule_set.mrt->Get(id).value();
      for (int hour = 0; hour < 24; ++hour) {
        const int minutes = MinutesOfHourInWindow(rule.window, hour);
        if (minutes == 0) continue;
        necessity_kwh_per_day +=
            rule_set.hourly_energy(rule, hour) * minutes / 60.0;
      }
    }
    const double budget_per_day = rule_set.budget_kwh / rule_set.period_days;
    if (necessity_kwh_per_day > budget_per_day * (1.0 + 1e-9)) {
      ConflictFinding finding;
      finding.cls = ConflictClass::kBudgetInfeasible;
      finding.severity = necessity_kwh_per_day - budget_per_day;
      finding.description = StrFormat(
          "necessity rules demand %.3f kWh/day but the budget allows %.3f "
          "kWh/day (%g kWh over %d days); no adoption vector is feasible",
          necessity_kwh_per_day, budget_per_day, rule_set.budget_kwh,
          rule_set.period_days);
      report.Add(std::move(finding));
    }
  }

  // (b) inter-tenant command cycles via the shard's device graph.
  DeviceCommandGraph& graph =
      *graphs_[static_cast<size_t>(shard) % graphs_.size()];
  std::vector<CommandEdge> edges;
  if (rule_set.ifttt != nullptr) {
    report.rules_analyzed += static_cast<int64_t>(rule_set.ifttt->size());
    edges = DeriveCommandEdges(*rule_set.ifttt, rule_set.units);
  }
  const std::vector<CommandEdge> previous = graph.EdgesOf(tenant);
  std::vector<ConflictFinding> cycles = graph.TryInstall(tenant, edges);
  for (ConflictFinding& finding : cycles) report.Add(std::move(finding));
  if (!report.ok() && cycles.empty()) {
    // Rejected for a non-cycle reason after the graph already swapped to
    // the new edges: restore the previously-admitted rule set's edges.
    if (previous.empty()) {
      graph.Remove(tenant);
    } else {
      graph.TryInstall(tenant, previous);
    }
  }

  span.Arg("findings", static_cast<int64_t>(report.findings.size()));
  span.Arg("rules", report.rules_analyzed);

  ChecksCounter()->Increment();
  RulesAnalyzedCounter()->Increment(report.rules_analyzed);
  if (!report.ok()) RejectionsCounter()->Increment();
  for (size_t c = 0; c < kNumConflictClasses; ++c) {
    if (report.by_class[c] > 0) {
      FindingsCounter(static_cast<ConflictClass>(c))
          ->Increment(report.by_class[c]);
    }
  }

  DataflowPolicy policy;
  if (rule_set.mrt != nullptr && rule_set.ifttt != nullptr) {
    policy = DerivePolicy(*rule_set.mrt, *rule_set.ifttt);
  }
  {
    std::lock_guard<std::mutex> lock(verdicts_mu_);
    Verdict& verdict = verdicts_[tenant];
    verdict.checks += 1;
    // A rejected *update* leaves the previously-admitted set active, but
    // the page should surface the latest verdict, not the stale pass.
    verdict.admitted = report.ok();
    verdict.last_report = report;
    if (report.ok()) verdict.policy = policy;
  }
  return report;
}

void ConflictAnalyzer::Forget(int shard, const std::string& tenant) {
  graphs_[static_cast<size_t>(shard) % graphs_.size()]->Remove(tenant);
  std::lock_guard<std::mutex> lock(verdicts_mu_);
  verdicts_.erase(tenant);
}

DataflowPolicy ConflictAnalyzer::PolicyFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(verdicts_mu_);
  auto it = verdicts_.find(tenant);
  return it == verdicts_.end() ? DataflowPolicy{} : it->second.policy;
}

std::string ConflictAnalyzer::ToJson() const {
  std::lock_guard<std::mutex> lock(verdicts_mu_);
  obs::JsonWriter json;
  json.BeginObject();
  int64_t total_checks = 0;
  int64_t total_rejected = 0;
  int64_t total_rules = 0;
  json.Key("tenants").BeginArray();
  for (const auto& [tenant, verdict] : verdicts_) {
    total_checks += verdict.checks;
    if (!verdict.admitted) total_rejected += 1;
    total_rules += verdict.last_report.rules_analyzed;
    json.BeginObject();
    json.Key("tenant").String(tenant);
    json.Key("verdict").String(verdict.admitted ? "ok" : "rejected");
    json.Key("checks").Int(verdict.checks);
    json.Key("rules_analyzed").Int(verdict.last_report.rules_analyzed);
    json.Key("by_class").BeginObject();
    for (size_t c = 0; c < kNumConflictClasses; ++c) {
      json.Key(ConflictClassName(static_cast<ConflictClass>(c)))
          .Int(verdict.last_report.by_class[c]);
    }
    json.EndObject();
    json.Key("findings").BeginArray();
    size_t shown = 0;
    for (const ConflictFinding& finding : verdict.last_report.findings) {
      if (++shown > 8) break;  // page stays bounded; counts stay exact
      json.BeginObject();
      json.Key("class").String(ConflictClassName(finding.cls));
      if (finding.rule_a >= 0) json.Key("rule_a").Int(finding.rule_a);
      if (finding.rule_b >= 0) json.Key("rule_b").Int(finding.rule_b);
      if (!finding.other_tenant.empty()) {
        json.Key("other_tenant").String(finding.other_tenant);
      }
      json.Key("severity").Double(finding.severity);
      json.Key("description").String(finding.description);
      json.EndObject();
    }
    json.EndArray();
    json.Key("dataflow_fields").BeginArray();
    for (const std::string& field : DataflowFieldList(verdict.policy)) {
      json.String(field);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("totals").BeginObject();
  json.Key("tenants").Int(static_cast<int64_t>(verdicts_.size()));
  json.Key("checks").Int(total_checks);
  json.Key("rejected").Int(total_rejected);
  json.Key("rules_analyzed").Int(total_rules);
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace conflict
}  // namespace firewall
}  // namespace imcf
