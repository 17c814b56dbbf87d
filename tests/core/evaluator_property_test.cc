// Randomized consistency properties of the incremental SlotEvaluator: on
// 1000 random problems, delta evaluation — via the cached fast path, the
// stale-cache fallback path, and the >16-touched-groups degenerate path —
// must agree with a from-scratch full Evaluate, and ApplyFlips must leave
// the cache agreeing with the solution it mirrors.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/hill_climber.h"
#include "random_problem.h"

namespace imcf {
namespace core {
namespace {

using devices::CommandType;
using testutil::RandomFlips;
using testutil::RandomProblem;

constexpr double kTol = 1e-9;

// Reference value from an evaluator with no cache history.
Objectives FreshEvaluate(const SlotProblem& problem, const Solution& s) {
  SlotEvaluator fresh(&problem);
  return fresh.Evaluate(s);
}

// Cached path: the cache is synchronized with `s` (Evaluate / ApplyFlips
// precede every delta), which is the hill climber's steady state.
TEST(EvaluatorPropertyTest, CachedDeltaMatchesFullEvaluate) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(MixHash(0xCAC4EDULL, seed));
    const SlotProblem problem = RandomProblem(&rng);
    SlotEvaluator evaluator(&problem);
    Solution s = Solution::Init(static_cast<size_t>(problem.n_rules),
                                InitStrategy::kRandom, &rng);
    Objectives base = evaluator.Evaluate(s);
    for (int move = 0; move < 8; ++move) {
      const std::vector<int> flips = RandomFlips(problem, &rng);
      const Objectives delta = evaluator.EvaluateWithFlips(s, base, flips);

      Solution flipped = s;
      for (int i : flips) flipped.flip(static_cast<size_t>(i));
      const Objectives full = FreshEvaluate(problem, flipped);
      ASSERT_NEAR(delta.energy_kwh, full.energy_kwh, kTol) << "seed " << seed;
      ASSERT_NEAR(delta.error_sum, full.error_sum, kTol) << "seed " << seed;

      if (rng.Bernoulli(0.5)) {  // accept: cache follows via ApplyFlips
        evaluator.ApplyFlips(&s, flips);
        base = delta;
        ASSERT_EQ(s, flipped);
      }
    }
  }
}

// Fallback path: the solution is mutated behind the evaluator's back, so
// every touched group fails the freshness check and is rescanned. The
// self-healing contract: results stay correct, never stale.
TEST(EvaluatorPropertyTest, StaleCacheFallbackMatchesFullEvaluate) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(MixHash(0x57A1EULL, seed));
    const SlotProblem problem = RandomProblem(&rng);
    SlotEvaluator evaluator(&problem);
    Solution s = Solution::Init(static_cast<size_t>(problem.n_rules),
                                InitStrategy::kRandom, &rng);
    evaluator.Evaluate(s);  // sync the cache ...
    for (int i = 0; i < problem.n_rules; ++i) {
      if (rng.Bernoulli(0.5)) s.flip(static_cast<size_t>(i));  // ... then go stale
    }
    const Objectives base = FreshEvaluate(problem, s);
    const std::vector<int> flips = RandomFlips(problem, &rng);
    const Objectives delta = evaluator.EvaluateWithFlips(s, base, flips);

    Solution flipped = s;
    for (int i : flips) flipped.flip(static_cast<size_t>(i));
    const Objectives full = FreshEvaluate(problem, flipped);
    EXPECT_NEAR(delta.energy_kwh, full.energy_kwh, kTol) << "seed " << seed;
    EXPECT_NEAR(delta.error_sum, full.error_sum, kTol) << "seed " << seed;
  }
}

// Degenerate path: flips spanning more than 16 distinct groups abandon the
// per-group delta and fall back to a full evaluation of a flipped copy.
TEST(EvaluatorPropertyTest, ManyTouchedGroupsDegenerateMatchesFullEvaluate) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(MixHash(0xB16ULL, seed));
    // 17-24 groups, one guaranteed active rule per group so a flip set can
    // touch >16 groups.
    const int n_groups = static_cast<int>(rng.UniformInt(17, 24));
    SlotProblem problem;
    problem.n_rules = n_groups;
    problem.budget_kwh = 10.0;
    for (int g = 0; g < n_groups; ++g) {
      DeviceGroup group;
      group.type = (g % 2 == 0) ? CommandType::kSetTemperature
                                : CommandType::kSetLight;
      group.ambient = group.type == CommandType::kSetTemperature
                          ? rng.UniformDouble(5.0, 30.0)
                          : rng.UniformDouble(0.0, 80.0);
      problem.groups.push_back(group);
      ActiveRule rule;
      rule.rule_index = g;
      rule.group = g;
      rule.type = group.type;
      rule.desired = rule.type == CommandType::kSetTemperature
                         ? rng.UniformDouble(16.0, 28.0)
                         : rng.UniformDouble(10.0, 70.0);
      rule.energy_kwh = rng.UniformDouble(0.0, 1.5);
      rule.drop_error = NormalizedError(rule.type, rule.desired, group.ambient);
      problem.active.push_back(rule);
    }
    SlotEvaluator evaluator(&problem);
    Solution s = Solution::Init(static_cast<size_t>(problem.n_rules),
                                InitStrategy::kRandom, &rng);
    const Objectives base = evaluator.Evaluate(s);

    std::vector<int> flips;  // every rule: touches n_groups > 16 groups
    for (int i = 0; i < problem.n_rules; ++i) flips.push_back(i);
    const Objectives delta = evaluator.EvaluateWithFlips(s, base, flips);

    Solution flipped = s;
    for (int i : flips) flipped.flip(static_cast<size_t>(i));
    const Objectives full = FreshEvaluate(problem, flipped);
    EXPECT_NEAR(delta.energy_kwh, full.energy_kwh, kTol) << "seed " << seed;
    EXPECT_NEAR(delta.error_sum, full.error_sum, kTol) << "seed " << seed;

    // The degenerate path must not have poisoned the cache for *s: the
    // next (small) delta still agrees with a fresh evaluation.
    std::vector<int> one_flip = {static_cast<int>(rng.UniformInt(
        0, problem.n_rules - 1))};
    const Objectives small_delta =
        evaluator.EvaluateWithFlips(s, base, one_flip);
    Solution one = s;
    one.flip(static_cast<size_t>(one_flip[0]));
    const Objectives one_full = FreshEvaluate(problem, one);
    EXPECT_NEAR(small_delta.energy_kwh, one_full.energy_kwh, kTol);
    EXPECT_NEAR(small_delta.error_sum, one_full.error_sum, kTol);
  }
}

// ApplyFlips is behaviourally identical to flipping bits by hand: after a
// mixed sequence of accepted/rejected moves the tracked objectives equal a
// from-scratch evaluation of the final solution.
TEST(EvaluatorPropertyTest, ApplyFlipsKeepsRunningObjectivesConsistent) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(MixHash(0xAB71E5ULL, seed));
    const SlotProblem problem = RandomProblem(&rng, 2, 10);
    SlotEvaluator evaluator(&problem);
    Solution s = Solution::Init(static_cast<size_t>(problem.n_rules),
                                InitStrategy::kAllOnes, &rng);
    Objectives running = evaluator.Evaluate(s);
    for (int move = 0; move < 20; ++move) {
      const std::vector<int> flips = RandomFlips(problem, &rng);
      const Objectives candidate =
          evaluator.EvaluateWithFlips(s, running, flips);
      if (rng.Bernoulli(0.7)) {
        evaluator.ApplyFlips(&s, flips);
        running = candidate;
      }
    }
    const Objectives full = FreshEvaluate(problem, s);
    EXPECT_NEAR(running.energy_kwh, full.energy_kwh, 1e-7) << "seed " << seed;
    EXPECT_NEAR(running.error_sum, full.error_sum, 1e-7) << "seed " << seed;
  }
}

}  // namespace
}  // namespace core
}  // namespace imcf
