// Differential oracle for ActivateRules' minute buckets against the scan
// they replaced: every convenience rule tested with HoursInWindow over the
// slot's minutes, emitted in table order, priced the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "rules/meta_rule.h"
#include "sim/slot_step.h"
#include "trace/dataset.h"

namespace imcf {
namespace sim {
namespace {

std::vector<core::ActiveRule> ReferenceActivate(
    const rules::MetaRuleTable& mrt, const std::vector<int>& hour_minutes,
    const devices::UnitEnergyModels& models,
    const std::vector<core::DeviceGroup>& groups) {
  std::vector<core::ActiveRule> out;
  for (size_t i = 0; i < mrt.convenience_count(); ++i) {
    const rules::MetaRule& rule = mrt.ConvenienceRule(i);
    const int hours = HoursInWindow(rule.window, hour_minutes);
    if (hours == 0) continue;
    core::ActiveRule active;
    active.rule_index = static_cast<int>(i);
    active.group = GroupId(rule.unit, rule.TargetKind());
    active.desired = rule.value;
    active.type = rule.TargetCommand();
    const double amb = groups[static_cast<size_t>(active.group)].ambient;
    active.energy_kwh =
        models.CommandEnergyKwh(active.type, rule.value, amb,
                                static_cast<double>(hours));
    active.drop_error =
        core::NormalizedError(active.type, rule.value, amb) * hours;
    out.push_back(active);
  }
  return out;
}

std::vector<uint64_t> Row(const core::ActiveRule& a) {
  return {static_cast<uint64_t>(a.rule_index), static_cast<uint64_t>(a.group),
          std::bit_cast<uint64_t>(a.desired),
          std::bit_cast<uint64_t>(a.energy_kwh),
          std::bit_cast<uint64_t>(a.drop_error),
          static_cast<uint64_t>(a.type)};
}

// Plans 72 hours starting `offset` minutes past an hour in slots of every
// width, with buckets built as Simulator::Prepare builds them: from the
// minutes of the first day's hour middles.
void ExpectBucketsMatchScan(const rules::MetaRuleTable& mrt, int units) {
  const trace::DatasetSpec spec = trace::DormsSpec();
  const devices::UnitEnergyModels models{
      devices::HvacEnergyModel(spec.hvac),
      devices::LightEnergyModel(spec.light)};
  core::SlotProblem problem;
  InitGroups(units, &problem);
  for (size_t g = 0; g < problem.groups.size(); ++g) {
    const double x = static_cast<double>(g);
    problem.groups[g].ambient = g % 2 == 1 ? 7.0 * (g % 13) : 12.5 + 0.61 * x;
  }
  std::vector<int> rule_hours;
  for (const int offset : {0, 17, 30, 59}) {
    const SimTime start = FromCivil(2015, 3, 1) + offset * kSecondsPerMinute;
    auto minute_of = [start](int hour) {
      return MinuteOfDay(start + hour * kSecondsPerHour +
                         kSecondsPerHour / 2);
    };
    std::vector<int> first_day;
    for (int hh = 0; hh < 24; ++hh) first_day.push_back(minute_of(hh));
    const MinuteBuckets buckets(mrt, first_day);
    for (const int span : {1, 2, 3, 5, 24, 25}) {
      for (int h = 0; h < 72; h += span) {
        std::vector<int> hour_minutes;
        for (int hh = h; hh < std::min(h + span, 72); ++hh) {
          hour_minutes.push_back(minute_of(hh));
        }
        SCOPED_TRACE(testing::Message() << "offset " << offset << " span "
                                        << span << " hour " << h);
        ActivateRules(mrt, buckets, hour_minutes, models, &problem,
                      &rule_hours);
        const std::vector<core::ActiveRule> want =
            ReferenceActivate(mrt, hour_minutes, models, problem.groups);
        ASSERT_EQ(problem.n_rules, static_cast<int>(mrt.convenience_count()));
        ASSERT_EQ(problem.active.size(), want.size());
        for (size_t a = 0; a < want.size(); ++a) {
          ASSERT_EQ(Row(problem.active[a]), Row(want[a])) << a;
        }
        for (const int count : rule_hours) ASSERT_EQ(count, 0);
      }
    }
  }
}

TEST(ActivationOracleTest, VariedTablesMatchTheScan) {
  for (const int units : {1, 3, 50}) {
    for (const uint64_t seed : {1, 4, 99}) {
      SCOPED_TRACE(testing::Message() << units << " units, seed " << seed);
      ExpectBucketsMatchScan(
          rules::VariedMrt(units, trace::DormsSpec().mrt_variation, seed),
          units);
    }
  }
}

TEST(ActivationOracleTest, WrappingEmptyAndSingleMinuteWindowsMatchTheScan) {
  rules::MetaRuleTable mrt;
  auto add = [&mrt](int start, int end, rules::RuleAction action, int unit) {
    rules::MetaRule rule;
    rule.window = {start, end};
    rule.action = action;
    rule.value = action == rules::RuleAction::kSetLight ? 60.0 : 22.5;
    rule.unit = unit;
    ASSERT_TRUE(mrt.Add(rule).ok());
  };
  using rules::RuleAction;
  add(22 * 60 + 30, 6 * 60 + 15, RuleAction::kSetTemperature, 0);  // wraps
  add(600, 600, RuleAction::kSetLight, 0);                         // empty
  add(0, 0, RuleAction::kSetTemperature, 1);                       // empty
  add(0, kMinutesPerDay, RuleAction::kSetLight, 1);                // all day
  // One-minute windows on each offset's hour middles and off them.
  for (const int minute : {30, 47, 60, 89, 1439, 0, 750}) {
    add(minute, minute + 1, RuleAction::kSetTemperature, minute % 2);
  }
  add(23 * 60, 60, RuleAction::kSetLight, 1);  // wraps, same group as above
  ExpectBucketsMatchScan(mrt, 2);
}

}  // namespace
}  // namespace sim
}  // namespace imcf
