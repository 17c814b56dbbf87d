// SlotEvaluator and the planners against a brute-force oracle written
// straight from the semantics in core/evaluator.h. For problems of at most
// 16 rules every adoption vector is visited, so the kernel's full
// evaluation, its delta path and its incremental cache are each checked on
// the whole solution space rather than on samples.
//
// The oracle sums in the kernel's order (groups ascending, members latest
// first), so full evaluations must match it exactly. Delta evaluations
// subtract and add contributions on top of a base and are held to 1e-9.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/annealer.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/genetic.h"
#include "core/hill_climber.h"
#include "core/plan_arena.h"
#include "random_problem.h"

namespace imcf {
namespace core {
namespace {

using devices::CommandType;
using testutil::RandomFlips;
using testutil::RandomProblem;

constexpr double kDeltaTol = 1e-9;

// Per group, the adopted active rule latest in the table wins and is
// charged its energy; every other active rule of the group is measured
// against the winner's setpoint, or contributes its drop error (ambient)
// when nothing in the group is adopted.
Objectives Oracle(const SlotProblem& problem, const Solution& s) {
  Objectives total;
  total.energy_kwh = problem.base_energy_kwh;
  for (size_t g = 0; g < problem.groups.size(); ++g) {
    std::vector<const ActiveRule*> members;
    for (const ActiveRule& rule : problem.active) {
      if (rule.group == static_cast<int>(g)) members.push_back(&rule);
    }
    std::sort(members.begin(), members.end(),
              [](const ActiveRule* a, const ActiveRule* b) {
                return a->rule_index > b->rule_index;
              });
    const ActiveRule* winner = nullptr;
    for (const ActiveRule* rule : members) {
      if (s.adopted(static_cast<size_t>(rule->rule_index))) {
        winner = rule;
        break;
      }
    }
    double error = 0.0;
    for (const ActiveRule* rule : members) {
      if (rule == winner) continue;
      error += winner == nullptr ? rule->drop_error
                                 : NormalizedError(rule->type, rule->desired,
                                                   winner->desired);
    }
    total.energy_kwh += winner == nullptr ? 0.0 : winner->energy_kwh;
    total.error_sum += error;
  }
  return total;
}

Solution Flipped(Solution s, std::span<const int> flips) {
  for (int i : flips) s.flip(static_cast<size_t>(i));
  return s;
}

void ExpectExact(const Objectives& got, const Objectives& want) {
  EXPECT_EQ(got.energy_kwh, want.energy_kwh);
  EXPECT_EQ(got.error_sum, want.error_sum);
}

::testing::AssertionResult Near(const Objectives& got,
                                const Objectives& want) {
  if (std::abs(got.energy_kwh - want.energy_kwh) <= kDeltaTol &&
      std::abs(got.error_sum - want.error_sum) <= kDeltaTol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got (" << got.energy_kwh << ", " << got.error_sum
         << ") want (" << want.energy_kwh << ", " << want.error_sum << ")";
}

// Every adoption vector of small random problems, visited in Gray-code
// order so consecutive vectors differ in one bit. `full` re-evaluates each
// vector from scratch; `walker` is synchronized once and then only follows
// the walk through ApplyFlips, so its delta predictions exercise the
// incremental cache as the planners use it; `stale` stays synchronized
// with the all-zeros vector, so its groups must be detected as stale.
TEST(EvaluatorOracleTest, EveryVectorMatchesOracle) {
  int max_rules = 0;
  for (uint64_t seed = 0; seed < 160; ++seed) {
    Rng rng(MixHash(0x64A7C0DEULL, seed));
    const SlotProblem problem = RandomProblem(&rng, 1, 4);
    const int n = problem.n_rules;
    ASSERT_LE(n, 16);
    max_rules = std::max(max_rules, n);
    const SlotEvaluator full(&problem);
    const SlotEvaluator walker(&problem);
    const SlotEvaluator stale(&problem);
    Solution s(static_cast<size_t>(n));
    Objectives want = Oracle(problem, s);
    walker.Evaluate(s);
    stale.Evaluate(s);
    const uint32_t steps = uint32_t{1} << n;
    for (uint32_t i = 1; i <= steps; ++i) {
      const Objectives got = full.Evaluate(s);
      ASSERT_EQ(got.energy_kwh, want.energy_kwh) << "seed " << seed;
      ASSERT_EQ(got.error_sum, want.error_sum) << "seed " << seed;
      if (i == steps) break;

      // Gray code: step i flips the lowest set bit of i.
      const int bit[1] = {std::countr_zero(i)};
      const Objectives next = Oracle(problem, Flipped(s, bit));
      ASSERT_TRUE(Near(full.EvaluateWithFlips(s, want, bit), next))
          << "seed " << seed << " step " << i;
      ASSERT_TRUE(Near(walker.EvaluateWithFlips(s, want, bit), next))
          << "seed " << seed << " step " << i;
      ASSERT_TRUE(Near(stale.EvaluateWithFlips(s, want, bit), next))
          << "seed " << seed << " step " << i;
      const SlotEvaluator::FlipDelta d = walker.SingleFlipDelta(s, bit[0]);
      Objectives single = want;
      single.energy_kwh -= d.before_energy;
      single.error_sum -= d.before_error;
      single.energy_kwh += d.after_energy;
      single.error_sum += d.after_error;
      ASSERT_TRUE(Near(single, next)) << "seed " << seed << " step " << i;

      walker.ApplyFlips(&s, bit);
      want = next;
    }
  }
  EXPECT_EQ(max_rules, 16) << "the corpus should reach the 16-rule limit";
}

// Random k-opt moves (1-8 flips) with random accept/reject, as the
// planners drive the kernel, on problems too large to enumerate.
TEST(EvaluatorOracleTest, RandomMovesMatchOracle) {
  for (uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(MixHash(0x4A11D0ULL, seed));
    const SlotProblem problem = RandomProblem(&rng, 1, 12);
    const SlotEvaluator evaluator(&problem);
    Solution s = Solution::Init(static_cast<size_t>(problem.n_rules),
                                InitStrategy::kRandom, &rng);
    Objectives base = evaluator.Evaluate(s);
    ExpectExact(base, Oracle(problem, s));
    for (int move = 0; move < 16; ++move) {
      const std::vector<int> flips = RandomFlips(problem, &rng);
      const Objectives want = Oracle(problem, Flipped(s, flips));
      const Objectives got = evaluator.EvaluateWithFlips(s, base, flips);
      ASSERT_TRUE(Near(got, want)) << "seed " << seed << " move " << move;
      if (rng.Bernoulli(0.5)) {
        evaluator.ApplyFlips(&s, flips);
        base = want;
      }
    }
  }
}

// Flip sets touching 16 or more distinct groups leave the per-group delta
// for a full rescan with the flips applied virtually. That path sums like
// Evaluate, so it must match the oracle exactly, and the wholesale resync
// in ApplyFlips must leave the cache right for the next narrow move.
TEST(EvaluatorOracleTest, ManyTouchedGroupsFallbackMatchesOracle) {
  int fallbacks = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(MixHash(0xDE6E4ULL, seed));
    const SlotProblem problem = RandomProblem(&rng, 17, 24);
    const SlotEvaluator evaluator(&problem);
    Solution s = Solution::Init(static_cast<size_t>(problem.n_rules),
                                InitStrategy::kRandom, &rng);
    const Objectives base = evaluator.Evaluate(s);

    std::vector<int> flips;  // every rule: touches every non-empty group
    std::vector<int> groups;
    for (int i = 0; i < problem.n_rules; ++i) flips.push_back(i);
    for (const ActiveRule& rule : problem.active) groups.push_back(rule.group);
    std::sort(groups.begin(), groups.end());
    const bool fallback =
        std::unique(groups.begin(), groups.end()) - groups.begin() >= 16;
    fallbacks += fallback ? 1 : 0;

    const Objectives want = Oracle(problem, Flipped(s, flips));
    const Objectives got = evaluator.EvaluateWithFlips(s, base, flips);
    if (fallback) {
      ExpectExact(got, want);
    } else {
      EXPECT_TRUE(Near(got, want)) << "seed " << seed;
    }

    evaluator.ApplyFlips(&s, flips);
    const std::vector<int> one = {
        static_cast<int>(rng.UniformInt(0, problem.n_rules - 1))};
    EXPECT_TRUE(Near(evaluator.EvaluateWithFlips(s, want, one),
                     Oracle(problem, Flipped(s, one))))
        << "seed " << seed;
  }
  EXPECT_GT(fallbacks, 100) << "too few seeds reached the fallback path";
}

// Every planner reports objectives and feasibility that agree with the
// oracle on the solution it returns, and no feasible plan beats the
// exhaustive feasible optimum. (Bounded τ_max random moves do not promise
// 1-flip local optimality, so that is not asserted.)
TEST(EvaluatorOracleTest, PlannersReportOracleObjectives) {
  EpOptions random_init;
  random_init.init = InitStrategy::kRandom;
  EpOptions no_repair;
  no_repair.greedy_repair = false;
  no_repair.k = 2;
  const HillClimbingPlanner ep;
  const HillClimbingPlanner ep_random(random_init);
  const HillClimbingPlanner ep_no_repair(no_repair);
  const SimulatedAnnealingPlanner sa;
  const GeneticPlanner ga;
  const NoRulePlanner nr;
  const MetaRulePlanner mr;
  const SlotPlanner* const planners[] = {&ep, &ep_random, &ep_no_repair,
                                         &sa, &ga,        &nr,
                                         &mr};

  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(MixHash(0x0AC1E5ULL, seed));
    SlotProblem problem = RandomProblem(&rng, 1, 4);
    problem.budget_kwh = rng.UniformDouble(0.0, 3.0);
    const int n = problem.n_rules;

    double optimum = std::numeric_limits<double>::infinity();
    for (uint32_t bits = 0; bits < (uint32_t{1} << n); ++bits) {
      Solution s(static_cast<size_t>(n));
      for (int r = 0; r < n; ++r) {
        s.set(static_cast<size_t>(r), ((bits >> r) & 1) != 0);
      }
      const Objectives obj = Oracle(problem, s);
      if (obj.FeasibleUnder(problem.budget_kwh)) {
        optimum = std::min(optimum, obj.error_sum);
      }
    }

    for (const SlotPlanner* planner : planners) {
      const SlotEvaluator evaluator(&problem);
      Rng plan_rng(MixHash(seed, 1));
      const PlanOutcome outcome = planner->PlanSlot(evaluator, &plan_rng);
      const Objectives want = Oracle(problem, outcome.solution);
      EXPECT_TRUE(Near(outcome.objectives, want))
          << planner->name() << " seed " << seed;
      EXPECT_EQ(outcome.feasible, want.FeasibleUnder(problem.budget_kwh))
          << planner->name() << " seed " << seed;
      if (outcome.feasible) {
        EXPECT_GE(want.error_sum, optimum)
            << planner->name() << " seed " << seed;
      }
    }
  }
}

// Edge shapes: no active rules at all, and a zero-rule problem.
TEST(EvaluatorOracleTest, DegenerateProblemShapes) {
  {
    SlotProblem empty;
    empty.n_rules = 0;
    empty.budget_kwh = 1.0;
    empty.base_energy_kwh = 0.25;
    const SlotEvaluator evaluator(&empty);
    const Solution s(0);
    ExpectExact(evaluator.Evaluate(s), Oracle(empty, s));
    ExpectExact(evaluator.NoRuleObjectives(), Oracle(empty, s));
    ExpectExact(evaluator.AllRulesObjectives(), Oracle(empty, s));
    EXPECT_FALSE(evaluator.IsActive(0));
  }
  {
    // Rules exist but the firewall pruned every one: groups present, no
    // active members.
    SlotProblem inactive;
    inactive.n_rules = 6;
    inactive.budget_kwh = 1.0;
    DeviceGroup group;
    group.type = CommandType::kSetTemperature;
    group.ambient = 15.0;
    inactive.groups.push_back(group);
    const SlotEvaluator evaluator(&inactive);
    const Solution s(6, 1);
    const Objectives got = evaluator.Evaluate(s);
    ExpectExact(got, Oracle(inactive, s));
    ExpectExact(evaluator.NoRuleObjectives(),
                Oracle(inactive, Solution(6)));
    ExpectExact(evaluator.AllRulesObjectives(), Oracle(inactive, s));
    for (int r = 0; r < 6; ++r) EXPECT_FALSE(evaluator.IsActive(r));
    // Flipping inactive rules is a no-op for the objectives.
    const std::vector<int> flips = {0, 3, 5};
    ExpectExact(evaluator.EvaluateWithFlips(s, got, flips), got);
  }
}

// One arena reused across problems whose sizes grow and shrink, as
// Simulator::Run reuses its arena from slot to slot. A reused arena still
// holds the previous build's columns, so every answer must equal what an
// evaluator-owned (fresh) arena gives, and the oracle. The corpus mixes
// shapes: up to 200 rules (multi-word mirrors whose size is not a multiple
// of 64), a handful of rules, and rounds with every rule inactive.
TEST(EvaluatorOracleTest, ReusedArenaMatchesFreshArenaAndOracle) {
  constexpr int kGroupBounds[][2] = {{30, 50}, {1, 3}, {12, 24}, {1, 1}};
  const HillClimbingPlanner ep;
  PlanArena arena;
  int zero_active = 0;
  int ragged_multiword = 0;
  for (int round = 0; round < 64; ++round) {
    Rng rng(MixHash(0xA2E7AULL, static_cast<uint64_t>(round)));
    const int* bounds = kGroupBounds[round % 4];
    SlotProblem problem = RandomProblem(&rng, bounds[0], bounds[1]);
    if (round % 5 == 2) problem.active.clear();  // firewall pruned them all
    zero_active += problem.active.empty() ? 1 : 0;
    ragged_multiword +=
        problem.n_rules > 64 && problem.n_rules % 64 != 0 ? 1 : 0;
    const int n = problem.n_rules;

    {
      const SlotEvaluator reused(&problem, &arena);
      const SlotEvaluator fresh(&problem);
      const Solution none(static_cast<size_t>(n));
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(reused.IsActive(r), fresh.IsActive(r))
            << "round " << round << " rule " << r;
        const SlotEvaluator::FlipDelta a = reused.SingleFlipDelta(none, r);
        const SlotEvaluator::FlipDelta b = fresh.SingleFlipDelta(none, r);
        ASSERT_EQ(a.before_energy, b.before_energy) << "round " << round;
        ASSERT_EQ(a.before_error, b.before_error) << "round " << round;
        ASSERT_EQ(a.after_energy, b.after_energy) << "round " << round;
        ASSERT_EQ(a.after_error, b.after_error) << "round " << round;
      }
      // NoRuleObjectives sums in active-rule order, not the oracle's.
      ExpectExact(reused.NoRuleObjectives(), fresh.NoRuleObjectives());
      EXPECT_TRUE(Near(reused.NoRuleObjectives(), Oracle(problem, none)));
      ExpectExact(reused.AllRulesObjectives(),
                  Oracle(problem, Solution(static_cast<size_t>(n), 1)));

      Solution s = Solution::Init(static_cast<size_t>(n),
                                  InitStrategy::kRandom, &rng);
      Objectives base = reused.Evaluate(s);
      ExpectExact(base, fresh.Evaluate(s));
      ExpectExact(base, Oracle(problem, s));
      for (int move = 0; move < 16; ++move) {
        const std::vector<int> flips = RandomFlips(problem, &rng);
        const Objectives got = reused.EvaluateWithFlips(s, base, flips);
        ExpectExact(got, fresh.EvaluateWithFlips(s, base, flips));
        ASSERT_TRUE(Near(got, Oracle(problem, Flipped(s, flips))))
            << "round " << round << " move " << move;
        if (rng.Bernoulli(0.5)) {
          Solution t = s;
          reused.ApplyFlips(&s, flips);
          fresh.ApplyFlips(&t, flips);
          base = got;
        }
      }
    }

    // A plan on the reused arena (this build invalidates the evaluator
    // above) is the plan a fresh arena gives, from the same stream.
    const SlotEvaluator reused(&problem, &arena);
    const SlotEvaluator fresh(&problem);
    Rng reused_rng(MixHash(0x9E11ULL, static_cast<uint64_t>(round)));
    Rng fresh_rng(MixHash(0x9E11ULL, static_cast<uint64_t>(round)));
    const PlanOutcome want = ep.PlanSlot(fresh, &fresh_rng);
    const PlanOutcome got = ep.PlanSlot(reused, &reused_rng);
    EXPECT_EQ(got.solution, want.solution) << "round " << round;
    ExpectExact(got.objectives, want.objectives);
    EXPECT_EQ(got.iterations, want.iterations) << "round " << round;
    EXPECT_EQ(got.feasible, want.feasible) << "round " << round;
    EXPECT_EQ(got.moves_accepted, want.moves_accepted) << "round " << round;
    EXPECT_TRUE(Near(got.objectives, Oracle(problem, got.solution)))
        << "round " << round;
  }
  EXPECT_GT(zero_active, 0);
  EXPECT_GT(ragged_multiword, 0);
}

}  // namespace
}  // namespace core
}  // namespace imcf
