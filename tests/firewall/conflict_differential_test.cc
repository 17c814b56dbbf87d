// Differential test tying detector (a) to the enforcement layer: for every
// contradictory setpoint pair the conflict pass finds in a randomized rule
// set, an arbitration that drops one side must leave the firewall chain
// accepting AT MOST one side's commands. If both sides of a detected
// contradiction ever pass MetaControlFirewall::Filter in the same slot, the
// detector and the enforcement disagree about what "conflict" means.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "devices/device.h"
#include "firewall/conflict/conflict_report.h"
#include "firewall/conflict/setpoint_analyzer.h"
#include "firewall/imcf_firewall.h"
#include "rules/meta_rule.h"

namespace imcf {
namespace firewall {
namespace {

using conflict::ConflictFinding;
using conflict::ConflictReport;
using conflict::SetpointOptions;
using devices::ActuationCommand;
using devices::DeviceKind;
using devices::DeviceRegistry;
using rules::MetaRule;
using rules::MetaRuleTable;
using rules::RuleAction;

/// Deterministic randomized MRT: `units` units, several temperature and
/// light rules each with windows and values spread widely enough that some
/// pairs contradict and some are benign.
MetaRuleTable RandomMrt(int units, uint64_t seed) {
  Rng rng(seed);
  MetaRuleTable mrt;
  for (int unit = 0; unit < units; ++unit) {
    for (int i = 0; i < 4; ++i) {
      MetaRule rule;
      rule.unit = unit;
      rule.action = (i % 2 == 0) ? RuleAction::kSetTemperature
                                 : RuleAction::kSetLight;
      const int start = static_cast<int>(rng.UniformInt(0, 20)) * 60;
      const int len = static_cast<int>(rng.UniformInt(2, 8)) * 60;
      rule.window = TimeWindow{
          start, std::min(start + len, static_cast<int>(kMinutesPerDay))};
      rule.value = rule.action == RuleAction::kSetTemperature
                       ? static_cast<double>(rng.UniformInt(14, 30))
                       : static_cast<double>(rng.UniformInt(0, 100));
      rule.description = "random";
      EXPECT_TRUE(mrt.Add(rule).ok());
    }
  }
  return mrt;
}

TEST(ConflictDifferentialTest, ChainNeverAppliesBothSidesOfAContradiction) {
  // Permissive thresholds so the randomized corpus yields many findings.
  SetpointOptions permissive;
  permissive.min_overlap_minutes = 30;
  permissive.temperature_gap_c = 3.0;
  permissive.light_gap_pct = 20.0;
  permissive.max_findings = 10000;

  int total_findings = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const int units = 6;
    MetaRuleTable mrt = RandomMrt(units, seed);
    ConflictReport report;
    conflict::FindContradictorySetpoints(mrt, permissive, &report);
    total_findings += static_cast<int>(report.findings.size());

    // Arbitration: drop the earlier-id side of every detected pair (the
    // paper's last-writer-wins, expressed as a planner verdict).
    std::set<int> dropped;
    for (const ConflictFinding& finding : report.findings) {
      dropped.insert(finding.rule_a);
    }

    DeviceRegistry registry;
    std::vector<devices::DeviceId> hvac(units), light(units);
    for (int unit = 0; unit < units; ++unit) {
      hvac[unit] = *registry.Add("hvac" + std::to_string(unit),
                                 DeviceKind::kHvac, unit, "");
      light[unit] = *registry.Add("light" + std::to_string(unit),
                                  DeviceKind::kLight, unit, "");
    }
    MetaControlFirewall fw(&registry);
    fw.SetDroppedRules(std::vector<int>(dropped.begin(), dropped.end()));

    auto command_of = [&](int rule_id) {
      const MetaRule& rule = *mrt.Get(rule_id).value();
      ActuationCommand cmd;
      cmd.device = rule.TargetKind() == DeviceKind::kHvac
                       ? hvac[static_cast<size_t>(rule.unit)]
                       : light[static_cast<size_t>(rule.unit)];
      cmd.type = rule.TargetCommand();
      cmd.value = rule.value;
      cmd.rule_id = rule_id;
      cmd.source = "mrt";
      return cmd;
    };

    for (const ConflictFinding& finding : report.findings) {
      const bool a_accepted =
          fw.Filter(command_of(finding.rule_a)).verdict == Verdict::kAccept;
      const bool b_accepted =
          fw.Filter(command_of(finding.rule_b)).verdict == Verdict::kAccept;
      EXPECT_FALSE(a_accepted && b_accepted)
          << "seed " << seed << ": both rule " << finding.rule_a
          << " and rule " << finding.rule_b
          << " accepted despite detected contradiction: "
          << finding.description;
    }
  }
  // The corpus must actually exercise the property.
  EXPECT_GT(total_findings, 10);
}

}  // namespace
}  // namespace firewall
}  // namespace imcf
