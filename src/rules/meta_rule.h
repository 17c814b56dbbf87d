// Meta-Rule-Table (MRT): the user's convenience preference profile.
//
// A meta-rule is one row of the paper's Table II: a description, a daily
// time window, an action ("Set Temperature" / "Set Light") with a desired
// value, or a long-term energy constraint ("Set kWh Limit"). The Energy
// Planner's solution vector s ∈ {0,1}^N is indexed by the convenience rules
// of this table. Rules are classified as *convenience* (may be dropped to
// meet the budget) or *necessity* (always executed).

#ifndef IMCF_RULES_META_RULE_H_
#define IMCF_RULES_META_RULE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/time.h"
#include "devices/device.h"

namespace imcf {
namespace rules {

/// Action column of the MRT.
enum class RuleAction : uint8_t {
  kSetTemperature = 0,  ///< HVAC setpoint, °C
  kSetLight = 1,        ///< light intensity, 0-100
  kSetKwhLimit = 2,     ///< long-term energy budget, kWh
};

const char* RuleActionName(RuleAction action);

/// One row of the Meta-Rule-Table.
struct MetaRule {
  int id = -1;              ///< assigned by the table
  std::string description;
  TimeWindow window;        ///< daily applicability (convenience rules)
  RuleAction action = RuleAction::kSetTemperature;
  double value = 0.0;
  int unit = 0;             ///< building unit the rule targets
  bool necessity = false;   ///< necessity rules bypass the planner
  int priority = 0;         ///< importance order (0 = most important)
  std::string user;         ///< owning resident (multi-user prototype)

  /// Convenience rules participate in the planner's solution vector;
  /// kWh-limit rows configure the budget instead.
  bool IsConvenience() const { return action != RuleAction::kSetKwhLimit; }

  /// The device kind this rule actuates (convenience rules only).
  devices::DeviceKind TargetKind() const {
    return action == RuleAction::kSetTemperature ? devices::DeviceKind::kHvac
                                                 : devices::DeviceKind::kLight;
  }

  /// The command this rule emits when adopted (convenience rules only).
  devices::CommandType TargetCommand() const {
    return action == RuleAction::kSetTemperature
               ? devices::CommandType::kSetTemperature
               : devices::CommandType::kSetLight;
  }
};

/// An ordered table of meta-rules. Convenience rules keep a dense secondary
/// index (0..N-1) used as the planner's solution-vector coordinate.
class MetaRuleTable {
 public:
  /// Appends a rule; assigns its id. kWh-limit rules must be non-negative.
  Status Add(MetaRule rule);

  /// Reserves room for `rules` rules, `convenience` of them convenience
  /// rules.
  void Reserve(size_t rules, size_t convenience);

  const std::vector<MetaRule>& rules() const { return rules_; }
  size_t size() const { return rules_.size(); }

  /// Ids of convenience rules, in priority order of insertion. The position
  /// in this vector is the rule's solution-vector index. Necessity rules
  /// ("should always be executed regardless of whether the long-term
  /// target is met") are excluded — the planner cannot drop them.
  const std::vector<int>& convenience_ids() const { return convenience_ids_; }
  size_t convenience_count() const { return convenience_ids_.size(); }

  /// Ids of necessity actuation rules (non-budget rows with the necessity
  /// flag): executed unconditionally by every policy.
  const std::vector<int>& necessity_ids() const { return necessity_ids_; }

  /// The convenience rule at solution-vector index `i`.
  const MetaRule& ConvenienceRule(size_t i) const {
    return rules_[static_cast<size_t>(convenience_ids_[i])];
  }

  /// Solution-vector indices of convenience rules whose window contains `t`.
  std::vector<int> ActiveAt(SimTime t) const;

  /// Sum of all kWh-limit rows, if any were configured.
  std::optional<double> TotalKwhLimit() const;

  /// Rule by id.
  Result<const MetaRule*> Get(int id) const;

  /// Necessity rules whose window contains `t` (rule ids, not solution
  /// indices).
  std::vector<int> NecessityActiveAt(SimTime t) const;

 private:
  std::vector<MetaRule> rules_;
  std::vector<int> convenience_ids_;
  std::vector<int> necessity_ids_;
};

/// The six convenience rules of Table II (flat experiments), targeting
/// unit 0. `budget_kwh` adds the matching "Set kWh Limit" row if positive.
MetaRuleTable FlatMrt(double budget_kwh = 0.0);

/// Builds a per-unit MRT for a replicated dataset: `units` copies of the
/// flat table with uniformly random variations of magnitude `variation`
/// (0 reproduces the flat table exactly; the paper uses variations for the
/// house and dorms datasets). Temperature values are perturbed by up to
/// ±2·variation °C, light values by ±15·variation, window edges by up to
/// ±60·variation minutes.
MetaRuleTable VariedMrt(int units, double variation, uint64_t seed,
                        double budget_kwh = 0.0);

}  // namespace rules
}  // namespace imcf

#endif  // IMCF_RULES_META_RULE_H_
