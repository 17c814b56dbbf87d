// Conflict-pass throughput: how fast can the admission gate vet rule sets?
//
// The conflict firewall runs on every tenant admission and every MRT
// update, so its cost bounds how often rule sets can churn. Three sections:
//
//   * setpoint_scan — detector (a) over VariedMrt corpora up to ~1M rules
//     (167k units x 6 rules). The bucketed sweep should stay near-linear:
//     Mrules/s must not collapse between the 120k and 1M corpora.
//   * graph_admission — detector (b): tenants installing cross-kind command
//     edges into one shard graph, plus the cost of a rejected admission
//     that closes an inter-tenant cycle (rollback included).
//   * full_pass — ConflictAnalyzer::Analyze end to end (all three
//     detectors + dataflow-policy derivation) per tenant admission.
//
// Finding counts are deterministic (fixed seeds) and land in the JSON as
// exact-match cells; only the timing columns are measurements.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "firewall/conflict/analyzer.h"
#include "firewall/conflict/device_graph.h"
#include "firewall/conflict/setpoint_analyzer.h"
#include "obs/tracer.h"
#include "rules/meta_rule.h"
#include "rules/trigger_rule.h"

namespace imcf {
namespace {

constexpr uint64_t kSeed = 2026;

using firewall::conflict::CommandEdge;
using firewall::conflict::ConflictAnalyzer;
using firewall::conflict::ConflictReport;
using firewall::conflict::DeviceCommandGraph;
using firewall::conflict::SetpointOptions;
using firewall::conflict::TenantRuleSet;

struct ScanResult {
  int64_t rules = 0;
  int64_t findings = 0;
  double wall_ms = 0.0;
};

/// One detector-(a) sweep over a `units`-unit varied MRT. Permissive
/// thresholds so the corpus actually produces findings to count.
ScanResult ScanCorpus(int units, const SetpointOptions& options) {
  const rules::MetaRuleTable mrt = rules::VariedMrt(units, 1.0, kSeed);
  ScanResult result;
  const int64_t t0 = obs::NowNs();
  ConflictReport report;
  result.rules = FindContradictorySetpoints(mrt, options, &report);
  result.wall_ms = static_cast<double>(obs::NowNs() - t0) / 1e6;
  result.findings = static_cast<int64_t>(report.findings.size());
  return result;
}

/// Cross-kind trigger table: `units` hvac->light rules, the half-loop a
/// tenant can legally install alone.
rules::TriggerRuleTable HvacToLightTable() {
  rules::TriggerRuleTable table;
  table.Add(rules::TriggerRule::OnTemperature(rules::TriggerOp::kGreaterThan,
                                              24.0, rules::RuleAction::kSetLight,
                                              0.0));
  return table;
}

rules::TriggerRuleTable LightToHvacTable() {
  rules::TriggerRuleTable table;
  table.Add(rules::TriggerRule::OnLightLevel(rules::TriggerOp::kLessThan, 10.0,
                                             rules::RuleAction::kSetTemperature,
                                             26.0));
  return table;
}

struct GraphResult {
  double admits_per_sec = 0.0;
  double reject_ms = 0.0;  ///< one cycle-closing admission incl. rollback
  int64_t edges = 0;
};

/// `tenants` tenants, each owning `units_per_tenant` disjoint units, install
/// hvac->light edges (no cycles); then one adversary spanning every unit
/// tries the reverse direction and must be rejected.
GraphResult RunGraphAdmissions(int tenants, int units_per_tenant) {
  DeviceCommandGraph graph;
  std::vector<std::vector<CommandEdge>> edge_sets;
  edge_sets.reserve(static_cast<size_t>(tenants));
  const rules::TriggerRuleTable forward = HvacToLightTable();
  for (int t = 0; t < tenants; ++t) {
    std::vector<CommandEdge> edges =
        firewall::conflict::DeriveCommandEdges(forward, units_per_tenant);
    // Shift onto the tenant's own unit range so installs are disjoint.
    for (CommandEdge& edge : edges) {
      edge.from += t * units_per_tenant * 2;
      edge.to += t * units_per_tenant * 2;
    }
    edge_sets.push_back(std::move(edges));
  }

  GraphResult result;
  const int64_t t0 = obs::NowNs();
  for (int t = 0; t < tenants; ++t) {
    const auto findings =
        graph.TryInstall(StrFormat("home%05d", t), edge_sets[static_cast<size_t>(t)]);
    bench::CheckOk(findings.empty()
                       ? Status::Ok()
                       : Status::Internal("unexpected cycle in disjoint sets"));
  }
  const int64_t t1 = obs::NowNs();
  result.admits_per_sec = static_cast<double>(tenants) /
                          (static_cast<double>(t1 - t0) / 1e9);
  result.edges = static_cast<int64_t>(graph.edge_count());

  // The adversary wires light->hvac across tenant 0's units: every edge
  // closes a cycle through a foreign tenant, so the install rolls back.
  std::vector<CommandEdge> reverse =
      firewall::conflict::DeriveCommandEdges(LightToHvacTable(),
                                             units_per_tenant);
  const int64_t t2 = obs::NowNs();
  const auto findings = graph.TryInstall("adversary", reverse);
  result.reject_ms = static_cast<double>(obs::NowNs() - t2) / 1e6;
  bench::CheckOk(!findings.empty()
                     ? Status::Ok()
                     : Status::Internal("adversary admission should reject"));
  return result;
}

struct PassResult {
  double admits_per_sec = 0.0;
  int64_t rules = 0;
};

/// End-to-end Analyze: `tenants` admissions of `units`-unit rule sets into
/// one shard, with the budget detector active (constant 1 kW draw model).
PassResult RunFullPass(int tenants, int units) {
  ConflictAnalyzer analyzer(/*shards=*/1);
  const rules::TriggerRuleTable ifttt = rules::FlatIfttt();
  std::vector<rules::MetaRuleTable> mrts;
  mrts.reserve(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    mrts.push_back(
        rules::VariedMrt(units, 1.0, MixHash(kSeed, static_cast<uint64_t>(t))));
  }
  PassResult result;
  const int64_t t0 = obs::NowNs();
  for (int t = 0; t < tenants; ++t) {
    TenantRuleSet rule_set;
    rule_set.mrt = &mrts[static_cast<size_t>(t)];
    rule_set.ifttt = &ifttt;
    rule_set.units = units;
    rule_set.budget_kwh = 11000.0;
    rule_set.period_days = 3 * 365;
    rule_set.hourly_energy = [](const rules::MetaRule&, int) { return 1.0; };
    const ConflictReport report =
        analyzer.Analyze(0, StrFormat("home%05d", t), rule_set);
    bench::CheckOk(report.ok() ? Status::Ok()
                               : Status::Internal("stock-derived set rejected"));
    result.rules += report.rules_analyzed;
  }
  result.admits_per_sec = static_cast<double>(tenants) /
                          (static_cast<double>(obs::NowNs() - t0) / 1e9);
  return result;
}

}  // namespace
}  // namespace imcf

int main() {
  using namespace imcf;
  bench::PrintHeader("Conflict-pass throughput",
                     "admission-gate cost (conflict firewall); not a paper "
                     "figure");
  bench::Report report("conflict_detection");
  const bool quick = bench::QuickMode();

  // Detector (a): bucketed pairwise sweep. Thresholds are permissive so
  // the varied corpora yield findings; the finding count is exact.
  firewall::conflict::SetpointOptions permissive;
  permissive.min_overlap_minutes = 30;
  permissive.temperature_gap_c = 3.0;
  permissive.light_gap_pct = 20.0;
  permissive.max_findings = 1u << 20;

  // Quick mode is a strict subset of the full sweep so CI's quick run
  // compares row-for-row against the committed full-mode baseline (the
  // 167k corpus — 1.002M rules — only shows up as "(gone)", advisory).
  const std::vector<int> unit_counts =
      quick ? std::vector<int>{1000, 20000}
            : std::vector<int>{1000, 20000, 167000};
  std::printf("%-18s %12s %10s %12s %10s\n", "corpus", "rules", "wall ms",
              "Mrules/s", "findings");
  for (int units : unit_counts) {
    const ScanResult scan = ScanCorpus(units, permissive);
    const std::string row = StrFormat("units=%d", units);
    std::printf(
        "%-18s %12s %10s %12s %10s\n", row.c_str(),
        report.Scalar("setpoint_scan", row, "rules",
                      static_cast<double>(scan.rules), 0)
            .c_str(),
        report.Scalar("setpoint_scan", row, "wall_ms", scan.wall_ms, 2).c_str(),
        report
            .Scalar("setpoint_scan", row, "mrules_per_sec",
                    static_cast<double>(scan.rules) / 1e6 /
                        (scan.wall_ms / 1e3),
                    2)
            .c_str(),
        report.Scalar("setpoint_scan", row, "findings",
                      static_cast<double>(scan.findings), 0)
            .c_str());
  }

  // Detector (b): shard-graph installs and one rejected cycle. Cheap
  // enough (milliseconds) that quick mode runs the full size — rows then
  // match the baseline exactly.
  const int graph_tenants = 2000;
  const int units_per_tenant = 4;
  const GraphResult graph = RunGraphAdmissions(graph_tenants, units_per_tenant);
  const std::string graph_row =
      StrFormat("tenants=%d,units=%d", graph_tenants, units_per_tenant);
  std::printf("\ngraph: %s admits/s over %s edges; cycle reject %s ms\n",
              report.Scalar("graph_admission", graph_row, "admits_per_sec",
                            graph.admits_per_sec, 0)
                  .c_str(),
              report.Scalar("graph_admission", graph_row, "edges",
                            static_cast<double>(graph.edges), 0)
                  .c_str(),
              report.Scalar("graph_admission", graph_row, "reject_ms",
                            graph.reject_ms, 3)
                  .c_str());

  // Full pass: all three detectors + policy derivation per admission.
  const int pass_tenants = 500;
  const int pass_units = 8;
  (void)quick;
  const PassResult pass = RunFullPass(pass_tenants, pass_units);
  const std::string pass_row =
      StrFormat("tenants=%d,units=%d", pass_tenants, pass_units);
  std::printf("full pass: %s admits/s, %s rules analyzed\n",
              report.Scalar("full_pass", pass_row, "admits_per_sec",
                            pass.admits_per_sec, 0)
                  .c_str(),
              report.Scalar("full_pass", pass_row, "rules",
                            static_cast<double>(pass.rules), 0)
                  .c_str());
  report.WriteIfRequested();
  return 0;
}
