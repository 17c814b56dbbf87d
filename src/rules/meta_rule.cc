#include "rules/meta_rule.h"

#include <algorithm>
#include <iterator>

#include "common/strings.h"
#include "common/units.h"

namespace imcf {
namespace rules {

const char* RuleActionName(RuleAction action) {
  switch (action) {
    case RuleAction::kSetTemperature:
      return "Set Temperature";
    case RuleAction::kSetLight:
      return "Set Light";
    case RuleAction::kSetKwhLimit:
      return "Set kWh Limit";
  }
  return "?";
}

Status MetaRuleTable::Add(MetaRule rule) {
  if (rule.action == RuleAction::kSetKwhLimit && rule.value < 0.0) {
    return Status::InvalidArgument("kWh limit must be non-negative");
  }
  if (rule.action == RuleAction::kSetLight &&
      (rule.value < 0.0 || rule.value > 100.0)) {
    return Status::InvalidArgument(
        StrFormat("light value %.1f outside [0,100]", rule.value));
  }
  rule.id = static_cast<int>(rules_.size());
  if (rule.IsConvenience()) {
    if (rule.necessity) {
      necessity_ids_.push_back(rule.id);
    } else {
      convenience_ids_.push_back(rule.id);
    }
  }
  rules_.push_back(std::move(rule));
  return Status::Ok();
}

void MetaRuleTable::Reserve(size_t rules, size_t convenience) {
  rules_.reserve(rules);
  convenience_ids_.reserve(convenience);
}

std::vector<int> MetaRuleTable::NecessityActiveAt(SimTime t) const {
  std::vector<int> active;
  const int minute = MinuteOfDay(t);
  for (int id : necessity_ids_) {
    if (rules_[static_cast<size_t>(id)].window.ContainsMinute(minute)) {
      active.push_back(id);
    }
  }
  return active;
}

std::vector<int> MetaRuleTable::ActiveAt(SimTime t) const {
  std::vector<int> active;
  const int minute = MinuteOfDay(t);
  for (size_t i = 0; i < convenience_ids_.size(); ++i) {
    const MetaRule& rule = ConvenienceRule(i);
    if (rule.window.ContainsMinute(minute)) {
      active.push_back(static_cast<int>(i));
    }
  }
  return active;
}

std::optional<double> MetaRuleTable::TotalKwhLimit() const {
  double total = 0.0;
  bool any = false;
  for (const MetaRule& rule : rules_) {
    if (rule.action == RuleAction::kSetKwhLimit) {
      total += rule.value;
      any = true;
    }
  }
  if (!any) return std::nullopt;
  return total;
}

Result<const MetaRule*> MetaRuleTable::Get(int id) const {
  if (id < 0 || static_cast<size_t>(id) >= rules_.size()) {
    return Status::NotFound(StrFormat("no rule with id %d", id));
  }
  return &rules_[static_cast<size_t>(id)];
}

namespace {

struct FlatRuleRow {
  const char* description;
  int start_minute;
  int end_minute;
  RuleAction action;
  double value;
};

// Table II, convenience rows.
constexpr FlatRuleRow kFlatRules[] = {
    {"Night Heat", 1 * 60, 7 * 60, RuleAction::kSetTemperature, 25.0},
    {"Morning Lights", 4 * 60, 9 * 60, RuleAction::kSetLight, 40.0},
    {"Day Heat", 8 * 60, 16 * 60, RuleAction::kSetTemperature, 22.0},
    {"Midday Lights", 10 * 60, 17 * 60, RuleAction::kSetLight, 30.0},
    {"Afternoon Preheat", 17 * 60, 24 * 60, RuleAction::kSetTemperature, 24.0},
    {"Cosmetic Lights", 18 * 60, 24 * 60, RuleAction::kSetLight, 40.0},
};

}  // namespace

MetaRuleTable FlatMrt(double budget_kwh) {
  MetaRuleTable table;
  int priority = 0;
  for (const FlatRuleRow& row : kFlatRules) {
    MetaRule rule;
    rule.description = row.description;
    rule.window = TimeWindow{row.start_minute, row.end_minute};
    rule.action = row.action;
    rule.value = row.value;
    rule.unit = 0;
    rule.priority = priority++;
    // Adds of the static table cannot fail: values are in range.
    (void)table.Add(std::move(rule));
  }
  if (budget_kwh > 0.0) {
    MetaRule limit;
    limit.description = "Energy Budget";
    limit.action = RuleAction::kSetKwhLimit;
    limit.value = budget_kwh;
    limit.necessity = true;
    (void)table.Add(std::move(limit));
  }
  return table;
}

MetaRuleTable VariedMrt(int units, double variation, uint64_t seed,
                        double budget_kwh) {
  MetaRuleTable table;
  const size_t convenience =
      static_cast<size_t>(std::max(units, 0)) * std::size(kFlatRules);
  table.Reserve(convenience + (budget_kwh > 0.0 ? 1 : 0), convenience);
  Rng rng(seed);
  for (int u = 0; u < units; ++u) {
    int priority = 0;
    for (const FlatRuleRow& row : kFlatRules) {
      MetaRule rule;
      rule.description = StrFormat("%s (unit %d)", row.description, u);
      int start = row.start_minute;
      int end = row.end_minute;
      double value = row.value;
      if (variation > 0.0) {
        const int shift = static_cast<int>(
            rng.UniformInt(-static_cast<int64_t>(60 * variation),
                           static_cast<int64_t>(60 * variation)));
        start = std::clamp(start + shift, 0,
                           static_cast<int>(kMinutesPerDay) - 30);
        end = std::clamp(end + shift, start + 30, static_cast<int>(kMinutesPerDay));
        if (row.action == RuleAction::kSetTemperature) {
          value += rng.UniformDouble(-3.0 * variation, 3.0 * variation);
          value = Clamp(value, 18.0, 27.0);
        } else {
          value += rng.UniformDouble(-20.0 * variation, 20.0 * variation);
          value = Clamp(value, 5.0, 100.0);
        }
      }
      rule.window = TimeWindow{start, end};
      rule.action = row.action;
      rule.value = value;
      rule.unit = u;
      rule.priority = priority++;
      (void)table.Add(std::move(rule));
    }
  }
  if (budget_kwh > 0.0) {
    MetaRule limit;
    limit.description = "Energy Budget";
    limit.action = RuleAction::kSetKwhLimit;
    limit.value = budget_kwh;
    limit.necessity = true;
    (void)table.Add(std::move(limit));
  }
  return table;
}

}  // namespace rules
}  // namespace imcf
