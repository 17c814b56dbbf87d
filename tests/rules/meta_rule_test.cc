#include "rules/meta_rule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/units.h"

namespace imcf {
namespace rules {
namespace {

TEST(FlatMrtTest, MatchesTableII) {
  const MetaRuleTable mrt = FlatMrt();
  ASSERT_EQ(mrt.size(), 6u);
  ASSERT_EQ(mrt.convenience_count(), 6u);

  const MetaRule& night_heat = mrt.ConvenienceRule(0);
  EXPECT_EQ(night_heat.description, "Night Heat");
  EXPECT_EQ(night_heat.window, (TimeWindow{60, 420}));
  EXPECT_EQ(night_heat.action, RuleAction::kSetTemperature);
  EXPECT_DOUBLE_EQ(night_heat.value, 25.0);

  const MetaRule& cosmetic = mrt.ConvenienceRule(5);
  EXPECT_EQ(cosmetic.description, "Cosmetic Lights");
  EXPECT_EQ(cosmetic.window, (TimeWindow{1080, 1440}));
  EXPECT_EQ(cosmetic.action, RuleAction::kSetLight);
  EXPECT_DOUBLE_EQ(cosmetic.value, 40.0);

  EXPECT_EQ(mrt.ConvenienceRule(2).description, "Day Heat");
  EXPECT_DOUBLE_EQ(mrt.ConvenienceRule(2).value, 22.0);
  EXPECT_EQ(mrt.ConvenienceRule(3).description, "Midday Lights");
  EXPECT_EQ(mrt.ConvenienceRule(4).description, "Afternoon Preheat");
  EXPECT_DOUBLE_EQ(mrt.ConvenienceRule(4).value, 24.0);
}

TEST(FlatMrtTest, BudgetRowIsNecessityNotConvenience) {
  const MetaRuleTable mrt = FlatMrt(11000.0);
  EXPECT_EQ(mrt.size(), 7u);
  EXPECT_EQ(mrt.convenience_count(), 6u);
  const auto limit = mrt.TotalKwhLimit();
  ASSERT_TRUE(limit.has_value());
  EXPECT_DOUBLE_EQ(*limit, 11000.0);
  EXPECT_FALSE(FlatMrt().TotalKwhLimit().has_value());
}

TEST(MetaRuleTableTest, ActiveAtFollowsWindows) {
  const MetaRuleTable mrt = FlatMrt();
  // 03:00 — only Night Heat (01:00-07:00).
  EXPECT_EQ(mrt.ActiveAt(FromCivil(2014, 1, 5, 3)), (std::vector<int>{0}));
  // 05:00 — Night Heat + Morning Lights (04:00-09:00).
  EXPECT_EQ(mrt.ActiveAt(FromCivil(2014, 1, 5, 5)),
            (std::vector<int>{0, 1}));
  // 12:00 — Day Heat + Midday Lights.
  EXPECT_EQ(mrt.ActiveAt(FromCivil(2014, 1, 5, 12)),
            (std::vector<int>{2, 3}));
  // 20:00 — Afternoon Preheat + Cosmetic Lights.
  EXPECT_EQ(mrt.ActiveAt(FromCivil(2014, 1, 5, 20)),
            (std::vector<int>{4, 5}));
  // 00:30 — nothing.
  EXPECT_TRUE(mrt.ActiveAt(FromCivil(2014, 1, 5, 0, 30)).empty());
}

TEST(MetaRuleTableTest, AddValidatesValues) {
  MetaRuleTable table;
  MetaRule bad_light;
  bad_light.action = RuleAction::kSetLight;
  bad_light.value = 150.0;
  EXPECT_TRUE(table.Add(bad_light).IsInvalidArgument());

  MetaRule bad_budget;
  bad_budget.action = RuleAction::kSetKwhLimit;
  bad_budget.value = -5.0;
  EXPECT_TRUE(table.Add(bad_budget).IsInvalidArgument());
  EXPECT_EQ(table.size(), 0u);
}

TEST(MetaRuleTableTest, GetById) {
  const MetaRuleTable mrt = FlatMrt();
  const auto rule = mrt.Get(2);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ((*rule)->description, "Day Heat");
  EXPECT_TRUE(mrt.Get(99).status().IsNotFound());
  EXPECT_TRUE(mrt.Get(-1).status().IsNotFound());
}

TEST(MetaRuleTest, TargetMappings) {
  const MetaRuleTable mrt = FlatMrt();
  EXPECT_EQ(mrt.ConvenienceRule(0).TargetKind(), devices::DeviceKind::kHvac);
  EXPECT_EQ(mrt.ConvenienceRule(1).TargetKind(), devices::DeviceKind::kLight);
  EXPECT_EQ(mrt.ConvenienceRule(0).TargetCommand(),
            devices::CommandType::kSetTemperature);
  EXPECT_EQ(mrt.ConvenienceRule(1).TargetCommand(),
            devices::CommandType::kSetLight);
}

TEST(VariedMrtTest, ZeroVariationReproducesFlatTable) {
  const MetaRuleTable flat = FlatMrt();
  const MetaRuleTable varied = VariedMrt(1, 0.0, 123);
  ASSERT_EQ(varied.convenience_count(), flat.convenience_count());
  for (size_t i = 0; i < flat.convenience_count(); ++i) {
    EXPECT_EQ(varied.ConvenienceRule(i).window, flat.ConvenienceRule(i).window);
    EXPECT_DOUBLE_EQ(varied.ConvenienceRule(i).value,
                     flat.ConvenienceRule(i).value);
  }
}

TEST(VariedMrtTest, PerUnitCopies) {
  const MetaRuleTable mrt = VariedMrt(4, 0.5, 11);
  EXPECT_EQ(mrt.convenience_count(), 24u);
  for (size_t i = 0; i < mrt.convenience_count(); ++i) {
    EXPECT_EQ(mrt.ConvenienceRule(i).unit, static_cast<int>(i / 6));
  }
}

TEST(VariedMrtTest, VariationPerturbsButStaysValid) {
  const MetaRuleTable flat = FlatMrt();
  const MetaRuleTable mrt = VariedMrt(50, 1.0, 13);
  int changed_values = 0;
  for (size_t i = 0; i < mrt.convenience_count(); ++i) {
    const MetaRule& rule = mrt.ConvenienceRule(i);
    const MetaRule& base = flat.ConvenienceRule(i % 6);
    if (rule.action == RuleAction::kSetTemperature) {
      EXPECT_GE(rule.value, 18.0);
      EXPECT_LE(rule.value, 27.0);
      EXPECT_NEAR(rule.value, base.value, 3.0 + 1e-9);
    } else {
      EXPECT_GE(rule.value, 5.0);
      EXPECT_LE(rule.value, 100.0);
      EXPECT_NEAR(rule.value, base.value, 20.0 + 1e-9);
    }
    // Windows shifted by at most ±60 minutes, still sane.
    EXPECT_GE(rule.window.start_minute, 0);
    EXPECT_LE(rule.window.end_minute, kMinutesPerDay);
    EXPECT_GE(rule.window.DurationMinutes(), 30);
    if (rule.value != base.value) ++changed_values;
  }
  EXPECT_GT(changed_values, 250);  // nearly all of the 300 rules perturbed
}

// The per-unit loop VariedMrt ran before its table was reserved, written
// out: the reference every rule of the reserved build must equal.
std::vector<MetaRule> ReferenceVariedRules(int units, double variation,
                                           uint64_t seed) {
  const MetaRuleTable flat = FlatMrt();
  std::vector<MetaRule> rules;
  Rng rng(seed);
  for (int u = 0; u < units; ++u) {
    int priority = 0;
    for (const MetaRule& row : flat.rules()) {
      MetaRule rule;
      rule.description = row.description + " (unit " + std::to_string(u) + ")";
      int start = row.window.start_minute;
      int end = row.window.end_minute;
      double value = row.value;
      if (variation > 0.0) {
        const int shift = static_cast<int>(
            rng.UniformInt(-static_cast<int64_t>(60 * variation),
                           static_cast<int64_t>(60 * variation)));
        start = std::clamp(start + shift, 0,
                           static_cast<int>(kMinutesPerDay) - 30);
        end = std::clamp(end + shift, start + 30,
                         static_cast<int>(kMinutesPerDay));
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
      rule.id = static_cast<int>(rules.size());
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

TEST(VariedMrtTest, MatchesTheWrittenOutLoop) {
  for (uint64_t seed : {uint64_t{13}, uint64_t{4242}}) {
    const MetaRuleTable mrt = VariedMrt(100, 1.0, seed);
    const std::vector<MetaRule> want = ReferenceVariedRules(100, 1.0, seed);
    ASSERT_EQ(mrt.size(), want.size());
    ASSERT_EQ(mrt.convenience_count(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const MetaRule& got = mrt.rules()[i];
      EXPECT_EQ(got.description, want[i].description);
      EXPECT_EQ(got.window, want[i].window) << want[i].description;
      EXPECT_EQ(got.value, want[i].value) << want[i].description;
      EXPECT_EQ(got.id, want[i].id);
      EXPECT_EQ(got.unit, want[i].unit);
      EXPECT_EQ(got.priority, want[i].priority);
      EXPECT_EQ(got.action, want[i].action);
      EXPECT_EQ(mrt.convenience_ids()[i], want[i].id);
    }
  }
}

TEST(VariedMrtTest, DeterministicInSeed) {
  const MetaRuleTable a = VariedMrt(4, 0.5, 99);
  const MetaRuleTable b = VariedMrt(4, 0.5, 99);
  const MetaRuleTable c = VariedMrt(4, 0.5, 100);
  int same_as_c = 0;
  for (size_t i = 0; i < a.convenience_count(); ++i) {
    EXPECT_DOUBLE_EQ(a.ConvenienceRule(i).value, b.ConvenienceRule(i).value);
    if (a.ConvenienceRule(i).value == c.ConvenienceRule(i).value) {
      ++same_as_c;
    }
  }
  EXPECT_LT(same_as_c, 6);
}

TEST(RuleActionTest, Names) {
  EXPECT_STREQ(RuleActionName(RuleAction::kSetTemperature),
               "Set Temperature");
  EXPECT_STREQ(RuleActionName(RuleAction::kSetLight), "Set Light");
  EXPECT_STREQ(RuleActionName(RuleAction::kSetKwhLimit), "Set kWh Limit");
}

}  // namespace
}  // namespace rules
}  // namespace imcf
