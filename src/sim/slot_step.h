// The pieces of one planning slot (Algorithm 1's loop body).
//
// A slot step activates the convenience rules whose daily window covers
// the slot (read from minute buckets built once per rule table), plans,
// lets the firewall enforce the plan, and charges what the devices then
// hold. Simulator::Run and the prototype's hourly Energy Planner job
// (controller/prototype.cc) both run it through these helpers; each caller
// keeps only its own ambient source and its own accounting.
//
// Device groups: every unit has one HVAC and one luminaire, and group
// `unit * 2 + (light ? 1 : 0)` names that device. Rules on the same group
// compete for one device; what the device holds in an hour is its group's
// held setpoint — none (the room stays at ambient) or a value.

#ifndef IMCF_SIM_SLOT_STEP_H_
#define IMCF_SIM_SLOT_STEP_H_

#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "core/slot_problem.h"
#include "core/solution.h"
#include "devices/device.h"
#include "devices/energy_model.h"
#include "firewall/imcf_firewall.h"
#include "rules/meta_rule.h"
#include "trace/dataset.h"

namespace imcf {
namespace sim {

/// Dense device-group id for (unit, kind).
inline int GroupId(int unit, devices::DeviceKind kind) {
  return unit * 2 + (kind == devices::DeviceKind::kLight ? 1 : 0);
}

/// The command type group `group`'s device takes.
inline devices::CommandType GroupCommandType(int group) {
  return group % 2 == 1 ? devices::CommandType::kSetLight
                        : devices::CommandType::kSetTemperature;
}

/// Ambient value of the quantity group `group` controls at hour index
/// `hour` of the series.
inline double GroupAmbient(const trace::HourlyAmbient& ambient, int group,
                           int hour) {
  const int unit = group / 2;
  return group % 2 == 1 ? ambient.light(unit, hour)
                        : ambient.temp(unit, hour);
}

/// Sizes `problem->groups` to two groups per unit, each typed by
/// GroupCommandType.
void InitGroups(int units, core::SlotProblem* problem);

/// One command to group `group`'s device, `group_devices[group]`.
devices::ActuationCommand GroupCommand(
    std::span<const devices::DeviceId> group_devices, int group, double value,
    int rule_id, SimTime time, const char* source);

/// How many of the slot's `hour_minutes` (one minute of day per slot hour)
/// fall inside `window`.
int HoursInWindow(const TimeWindow& window, std::span<const int> hour_minutes);

/// The convenience rules of one table by minute of day, for the minutes a
/// planner asks about: rule windows are daily, and a run asks only about
/// the minute at the middle of each slot hour, so a run has at most 24
/// distinct minutes whatever its length. Holds, per distinct minute, the
/// ascending indices of the rules whose window contains it. Read-only once
/// built, so concurrent runs may share one.
class MinuteBuckets {
 public:
  MinuteBuckets() = default;

  /// One bucket per distinct value of `minutes`.
  MinuteBuckets(const rules::MetaRuleTable& mrt, std::span<const int> minutes);

  /// Ascending convenience-rule indices whose window contains `minute`;
  /// empty for a minute the buckets were not built for.
  std::span<const int> RulesAt(int minute) const;

 private:
  std::vector<int> minutes_;  // distinct, ascending
  std::vector<int> offsets_;  // bucket b: rules_[offsets_[b], offsets_[b+1])
  std::vector<int> rules_;
};

/// Rebuilds `problem->active` (and sets `n_rules`): every convenience rule
/// of `mrt` whose window holds at least one of `hour_minutes`, in table
/// order, priced at its group's planning ambient (`problem->groups`) for
/// the hours it covers. Reads the rules from `buckets`, which must hold
/// every minute of `hour_minutes`. `rule_hours` is scratch: one count per
/// convenience rule, all zero between calls (it starts empty).
void ActivateRules(const rules::MetaRuleTable& mrt,
                   const MinuteBuckets& buckets,
                   std::span<const int> hour_minutes,
                   const devices::UnitEnergyModels& models,
                   core::SlotProblem* problem, std::vector<int>* rule_hours);

/// Lets `fw` enforce `plan`: installs the plan's dropped rules, then routes
/// one "mrt" command per active rule, issued at `time`. `accepted[a]` is
/// the firewall's verdict on active rule `a`. Returns how many active
/// rules the plan adopted. `dropped` is scratch.
size_t EnforcePlan(const core::SlotProblem& problem,
                   const core::Solution& plan,
                   const rules::MetaRuleTable& mrt,
                   std::span<const devices::DeviceId> group_devices,
                   SimTime time, firewall::MetaControlFirewall* fw,
                   std::vector<int>* dropped, std::vector<char>* accepted);

/// Holds each group at its winner for minute of day `minute`: of the
/// accepted active rules whose window holds `minute`, the one latest in
/// table order (`problem.active` is in table order, as ActivateRules builds
/// it). Groups without such a rule hold none.
void HoldWinners(const core::SlotProblem& problem,
                 std::span<const char> accepted,
                 const rules::MetaRuleTable& mrt, int minute,
                 std::vector<std::optional<double>>* held);

}  // namespace sim
}  // namespace imcf

#endif  // IMCF_SIM_SLOT_STEP_H_
