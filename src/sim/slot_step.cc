#include "sim/slot_step.h"

#include <algorithm>
#include <utility>

namespace imcf {
namespace sim {

void InitGroups(int units, core::SlotProblem* problem) {
  problem->groups.resize(static_cast<size_t>(units) * 2);
  for (size_t g = 0; g < problem->groups.size(); ++g) {
    problem->groups[g].type = GroupCommandType(static_cast<int>(g));
  }
}

devices::ActuationCommand GroupCommand(
    std::span<const devices::DeviceId> group_devices, int group, double value,
    int rule_id, SimTime time, const char* source) {
  devices::ActuationCommand cmd;
  cmd.device = group_devices[static_cast<size_t>(group)];
  cmd.type = GroupCommandType(group);
  cmd.value = value;
  cmd.rule_id = rule_id;
  cmd.time = time;
  cmd.source = source;
  return cmd;
}

int HoursInWindow(const TimeWindow& window,
                  std::span<const int> hour_minutes) {
  int hours = 0;
  for (const int minute : hour_minutes) {
    if (window.ContainsMinute(minute)) ++hours;
  }
  return hours;
}

MinuteBuckets::MinuteBuckets(const rules::MetaRuleTable& mrt,
                             std::span<const int> minutes)
    : minutes_(minutes.begin(), minutes.end()) {
  std::sort(minutes_.begin(), minutes_.end());
  minutes_.erase(std::unique(minutes_.begin(), minutes_.end()),
                 minutes_.end());
  offsets_.reserve(minutes_.size() + 1);
  offsets_.push_back(0);
  for (const int minute : minutes_) {
    for (size_t i = 0; i < mrt.convenience_count(); ++i) {
      if (mrt.ConvenienceRule(i).window.ContainsMinute(minute)) {
        rules_.push_back(static_cast<int>(i));
      }
    }
    offsets_.push_back(static_cast<int>(rules_.size()));
  }
}

std::span<const int> MinuteBuckets::RulesAt(int minute) const {
  const auto it = std::lower_bound(minutes_.begin(), minutes_.end(), minute);
  if (it == minutes_.end() || *it != minute) return {};
  const size_t b = static_cast<size_t>(it - minutes_.begin());
  return std::span<const int>(rules_).subspan(
      static_cast<size_t>(offsets_[b]),
      static_cast<size_t>(offsets_[b + 1] - offsets_[b]));
}

void ActivateRules(const rules::MetaRuleTable& mrt,
                   const MinuteBuckets& buckets,
                   std::span<const int> hour_minutes,
                   const devices::UnitEnergyModels& models,
                   core::SlotProblem* problem, std::vector<int>* rule_hours) {
  const size_t n_rules = mrt.convenience_count();
  problem->n_rules = static_cast<int>(n_rules);
  problem->active.clear();
  if (rule_hours->size() < n_rules) rule_hours->resize(n_rules, 0);
  // A rule's hours are the slot minutes whose bucket holds it; each rule
  // joins `active` the first time one does.
  for (const int minute : hour_minutes) {
    for (const int i : buckets.RulesAt(minute)) {
      if ((*rule_hours)[static_cast<size_t>(i)]++ == 0) {
        problem->active.push_back({.rule_index = i});
      }
    }
  }
  // One bucket is already in table order; several interleave.
  if (hour_minutes.size() > 1) {
    std::sort(problem->active.begin(), problem->active.end(),
              [](const core::ActiveRule& a, const core::ActiveRule& b) {
                return a.rule_index < b.rule_index;
              });
  }
  for (core::ActiveRule& active : problem->active) {
    const size_t i = static_cast<size_t>(active.rule_index);
    const int hours = std::exchange((*rule_hours)[i], 0);
    const rules::MetaRule& rule = mrt.ConvenienceRule(i);
    active.group = GroupId(rule.unit, rule.TargetKind());
    active.desired = rule.value;
    active.type = rule.TargetCommand();
    const double amb =
        problem->groups[static_cast<size_t>(active.group)].ambient;
    active.energy_kwh = models.CommandEnergyKwh(active.type, rule.value, amb,
                                                static_cast<double>(hours));
    // Drop errors weigh by covered hours so a rule active all day
    // outranks one active a single hour.
    active.drop_error =
        core::NormalizedError(active.type, rule.value, amb) * hours;
  }
}

size_t EnforcePlan(const core::SlotProblem& problem,
                   const core::Solution& plan,
                   const rules::MetaRuleTable& mrt,
                   std::span<const devices::DeviceId> group_devices,
                   SimTime time, firewall::MetaControlFirewall* fw,
                   std::vector<int>* dropped, std::vector<char>* accepted) {
  const std::vector<int>& rule_ids = mrt.convenience_ids();
  dropped->clear();
  for (const core::ActiveRule& active : problem.active) {
    const size_t i = static_cast<size_t>(active.rule_index);
    if (!plan.adopted(i)) dropped->push_back(rule_ids[i]);
  }
  fw->SetDroppedRules(*dropped);

  accepted->assign(problem.active.size(), 0);
  for (size_t a = 0; a < problem.active.size(); ++a) {
    const core::ActiveRule& active = problem.active[a];
    const devices::ActuationCommand cmd = GroupCommand(
        group_devices, active.group, active.desired,
        rule_ids[static_cast<size_t>(active.rule_index)], time, "mrt");
    (*accepted)[a] = fw->Filter(cmd).verdict == firewall::Verdict::kAccept;
  }
  return problem.active.size() - dropped->size();
}

void HoldWinners(const core::SlotProblem& problem,
                 std::span<const char> accepted,
                 const rules::MetaRuleTable& mrt, int minute,
                 std::vector<std::optional<double>>* held) {
  std::fill(held->begin(), held->end(), std::nullopt);
  for (size_t a = 0; a < problem.active.size(); ++a) {
    if (accepted[a] == 0) continue;
    const core::ActiveRule& active = problem.active[a];
    const rules::MetaRule& rule =
        mrt.ConvenienceRule(static_cast<size_t>(active.rule_index));
    if (!rule.window.ContainsMinute(minute)) continue;
    (*held)[static_cast<size_t>(active.group)] = active.desired;
  }
}

}  // namespace sim
}  // namespace imcf
