#include "core/evaluator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hill_climber.h"

namespace imcf {
namespace core {
namespace {

using devices::CommandType;

// A hand-constructed slot: two device groups (one HVAC, one light), three
// active rules of five total — rules 1 and 3 share the light group (3 wins
// when both adopted).
SlotProblem TwoGroupSlot() {
  SlotProblem problem;
  problem.n_rules = 5;
  problem.budget_kwh = 1.0;
  problem.groups = {
      {14.0, CommandType::kSetTemperature},  // ambient 14°C
      {5.0, CommandType::kSetLight},         // ambient light 5
  };
  ActiveRule heat;
  heat.rule_index = 0;
  heat.group = 0;
  heat.desired = 24.0;
  heat.type = CommandType::kSetTemperature;
  heat.energy_kwh = 0.8;
  heat.drop_error = NormalizedError(CommandType::kSetTemperature, 24.0, 14.0);
  ActiveRule dim_light;
  dim_light.rule_index = 1;
  dim_light.group = 1;
  dim_light.desired = 30.0;
  dim_light.type = CommandType::kSetLight;
  dim_light.energy_kwh = 0.15;
  dim_light.drop_error = NormalizedError(CommandType::kSetLight, 30.0, 5.0);
  ActiveRule bright_light;
  bright_light.rule_index = 3;
  bright_light.group = 1;
  bright_light.desired = 40.0;
  bright_light.type = CommandType::kSetLight;
  bright_light.energy_kwh = 0.2;
  bright_light.drop_error = NormalizedError(CommandType::kSetLight, 40.0, 5.0);
  problem.active = {heat, dim_light, bright_light};
  return problem;
}

TEST(NormalizedErrorTest, TemperatureTwoSidedWithComfortZone) {
  // Inside the 1°C comfort zone: no error.
  EXPECT_DOUBLE_EQ(
      NormalizedError(CommandType::kSetTemperature, 22.0, 22.5), 0.0);
  EXPECT_DOUBLE_EQ(
      NormalizedError(CommandType::kSetTemperature, 22.0, 21.0), 0.0);
  // Beyond: (gap - 1) / 10, both directions.
  EXPECT_NEAR(NormalizedError(CommandType::kSetTemperature, 22.0, 17.0), 0.4,
              1e-12);
  EXPECT_NEAR(NormalizedError(CommandType::kSetTemperature, 22.0, 27.0), 0.4,
              1e-12);
  // Clamped at 1.
  EXPECT_DOUBLE_EQ(
      NormalizedError(CommandType::kSetTemperature, 25.0, 5.0), 1.0);
}

TEST(NormalizedErrorTest, LightShortfallOnly) {
  EXPECT_NEAR(NormalizedError(CommandType::kSetLight, 40.0, 0.0), 0.8, 1e-12);
  EXPECT_NEAR(NormalizedError(CommandType::kSetLight, 30.0, 20.0), 0.2,
              1e-12);
  // Brighter than desired costs nothing.
  EXPECT_DOUBLE_EQ(NormalizedError(CommandType::kSetLight, 30.0, 60.0), 0.0);
  // Clamped at 1.
  EXPECT_DOUBLE_EQ(NormalizedError(CommandType::kSetLight, 100.0, 0.0), 1.0);
}

TEST(EvaluatorTest, NoRuleObjectives) {
  const SlotProblem problem = TwoGroupSlot();
  SlotEvaluator evaluator(&problem);
  const Objectives obj = evaluator.NoRuleObjectives();
  EXPECT_DOUBLE_EQ(obj.energy_kwh, 0.0);
  const double expected = problem.active[0].drop_error +
                          problem.active[1].drop_error +
                          problem.active[2].drop_error;
  EXPECT_NEAR(obj.error_sum, expected, 1e-12);
  // Matches full evaluation of the zero vector.
  const Objectives zero = evaluator.Evaluate(Solution(5));
  EXPECT_NEAR(zero.error_sum, obj.error_sum, 1e-12);
  EXPECT_DOUBLE_EQ(zero.energy_kwh, obj.energy_kwh);
}

TEST(EvaluatorTest, AllRulesWinnersAndConflicts) {
  const SlotProblem problem = TwoGroupSlot();
  SlotEvaluator evaluator(&problem);
  const Objectives obj = evaluator.AllRulesObjectives();
  // Heat (0.8) + winning light rule 3 (0.2); rule 1 loses the group.
  EXPECT_NEAR(obj.energy_kwh, 1.0, 1e-12);
  // Loser rule 1's error vs the winner's setpoint 40: one-sided => 0.
  EXPECT_NEAR(obj.error_sum, 0.0, 1e-12);
}

TEST(EvaluatorTest, PartialAdoption) {
  const SlotProblem problem = TwoGroupSlot();
  SlotEvaluator evaluator(&problem);
  Solution s(5);
  s.set(0, true);  // heat only
  const Objectives obj = evaluator.Evaluate(s);
  EXPECT_NEAR(obj.energy_kwh, 0.8, 1e-12);
  EXPECT_NEAR(obj.error_sum,
              problem.active[1].drop_error + problem.active[2].drop_error,
              1e-12);
}

TEST(EvaluatorTest, LoserMeasuredAgainstWinnerValue) {
  SlotProblem problem = TwoGroupSlot();
  // Make the conflict matter: rule 1 wants 30, rule 3 wants only 10.
  problem.active[2].desired = 10.0;
  SlotEvaluator evaluator(&problem);
  Solution s(5);
  s.set(0, true);  // heat adopted: zero error in its group
  s.set(1, true);
  s.set(3, true);
  const Objectives obj = evaluator.Evaluate(s);
  // Rule 3 wins the light group (higher table position): device at 10.
  // Rule 1's shortfall is (30-10)/50 = 0.4; the winner itself and the
  // adopted heat rule contribute nothing.
  EXPECT_NEAR(obj.error_sum, 0.4, 1e-12);
}

TEST(EvaluatorTest, BaseEnergyAlwaysCharged) {
  SlotProblem problem = TwoGroupSlot();
  problem.base_energy_kwh = 0.25;  // necessity rules
  SlotEvaluator evaluator(&problem);
  EXPECT_NEAR(evaluator.Evaluate(Solution(5)).energy_kwh, 0.25, 1e-12);
  EXPECT_NEAR(evaluator.AllRulesObjectives().energy_kwh, 1.25, 1e-12);
}

TEST(EvaluatorTest, InactiveRulesDoNotMatter) {
  const SlotProblem problem = TwoGroupSlot();
  SlotEvaluator evaluator(&problem);
  Solution a(5), b(5);
  // Rules 2 and 4 are inactive in this slot: toggling them changes nothing.
  b.set(2, true);
  b.set(4, true);
  const Objectives oa = evaluator.Evaluate(a);
  const Objectives ob = evaluator.Evaluate(b);
  EXPECT_DOUBLE_EQ(oa.energy_kwh, ob.energy_kwh);
  EXPECT_DOUBLE_EQ(oa.error_sum, ob.error_sum);
  EXPECT_TRUE(evaluator.IsActive(0));
  EXPECT_FALSE(evaluator.IsActive(2));
  EXPECT_FALSE(evaluator.IsActive(4));
}

TEST(EvaluatorTest, FeasibilityCheck) {
  const SlotProblem problem = TwoGroupSlot();
  SlotEvaluator evaluator(&problem);
  const Objectives all = evaluator.AllRulesObjectives();
  EXPECT_TRUE(all.FeasibleUnder(1.0));   // exactly at budget
  EXPECT_FALSE(all.FeasibleUnder(0.9));
}

// Property: incremental flip evaluation equals full evaluation, for random
// solutions and random flip sets.
class FlipDeltaProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlipDeltaProperty, MatchesFullEvaluation) {
  Rng rng(GetParam());
  // Random slot problem: 12 rules, 4 groups, random subset active.
  SlotProblem problem;
  problem.n_rules = 12;
  problem.budget_kwh = 5.0;
  for (int g = 0; g < 4; ++g) {
    DeviceGroup group;
    group.type = (g % 2 == 0) ? CommandType::kSetTemperature
                              : CommandType::kSetLight;
    group.ambient = group.type == CommandType::kSetTemperature
                        ? rng.UniformDouble(8.0, 28.0)
                        : rng.UniformDouble(0.0, 70.0);
    problem.groups.push_back(group);
  }
  for (int i = 0; i < 12; ++i) {
    if (rng.Bernoulli(0.3)) continue;  // inactive
    ActiveRule rule;
    rule.rule_index = i;
    rule.group = static_cast<int>(rng.UniformInt(0, 3));
    rule.type = problem.groups[static_cast<size_t>(rule.group)].type;
    rule.desired = rule.type == CommandType::kSetTemperature
                       ? rng.UniformDouble(18.0, 26.0)
                       : rng.UniformDouble(10.0, 60.0);
    rule.energy_kwh = rng.UniformDouble(0.0, 1.0);
    rule.drop_error = NormalizedError(
        rule.type, rule.desired,
        problem.groups[static_cast<size_t>(rule.group)].ambient);
    problem.active.push_back(rule);
  }
  SlotEvaluator evaluator(&problem);

  for (int trial = 0; trial < 200; ++trial) {
    const Solution s = Solution::Init(12, InitStrategy::kRandom, &rng);
    const Objectives base = evaluator.Evaluate(s);
    std::vector<int> flips;
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 5));
    SampleDistinct(12, k, &rng, &flips);
    const Objectives incremental = evaluator.EvaluateWithFlips(s, base,
                                                               flips);
    Solution flipped = s;
    for (int i : flips) flipped.flip(static_cast<size_t>(i));
    const Objectives full = evaluator.Evaluate(flipped);
    EXPECT_NEAR(incremental.energy_kwh, full.energy_kwh, 1e-9);
    EXPECT_NEAR(incremental.error_sum, full.error_sum, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlipDeltaProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 11u, 42u));

}  // namespace
}  // namespace core
}  // namespace imcf
