#include "sim/slot_step.h"

#include <algorithm>

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

void ActivateRules(const rules::MetaRuleTable& mrt,
                   std::span<const int> hour_minutes,
                   const devices::UnitEnergyModels& models,
                   core::SlotProblem* problem) {
  const size_t n_rules = mrt.convenience_count();
  problem->n_rules = static_cast<int>(n_rules);
  problem->active.clear();
  for (size_t i = 0; i < n_rules; ++i) {
    const rules::MetaRule& rule = mrt.ConvenienceRule(i);
    const int hours = HoursInWindow(rule.window, hour_minutes);
    if (hours == 0) continue;
    core::ActiveRule active;
    active.rule_index = static_cast<int>(i);
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
    problem->active.push_back(active);
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
