#include "core/annealer.h"

#include <algorithm>
#include <cmath>

#include "core/hill_climber.h"

namespace imcf {
namespace core {

SimulatedAnnealingPlanner::SimulatedAnnealingPlanner(SaOptions options)
    : options_(options) {}

PlanOutcome SimulatedAnnealingPlanner::PlanSlot(
    const SlotEvaluator& evaluator, Rng* rng) const {
  const SlotProblem& problem = evaluator.problem();
  const int n = problem.n_rules;
  const double budget = problem.budget_kwh;
  const int k = std::min(options_.k, FlipBuffer::kCapacity);
  const int tau_max =
      options_.tau_max > 0 ? options_.tau_max : std::max(40, 2 * n);

  // `current` is the walker; `outcome` records the best feasible solution
  // seen (SA may wander away from it).
  Solution current =
      Solution::Init(static_cast<size_t>(n), options_.init, rng);
  Objectives current_obj = evaluator.Evaluate(current);
  bool current_feasible = current_obj.FeasibleUnder(budget);

  PlanOutcome outcome;
  outcome.solution = current;
  outcome.objectives = current_obj;
  outcome.feasible = current_feasible;

  double temperature = options_.initial_temperature;
  FlipBuffer flips;
  for (int tau = 0; tau < tau_max; ++tau) {
    // Same up-to-k neighbourhood (and allocation-free flip buffer) as the
    // hill climber.
    const int j = 1 + static_cast<int>(rng->UniformInt(0, k - 1));
    SampleDistinct(n, j, rng, &flips);
    const Objectives candidate =
        evaluator.EvaluateWithFlips(current, current_obj, flips);
    const bool candidate_feasible = candidate.FeasibleUnder(budget);

    bool accept;
    if (!current_feasible) {
      // Repair phase, as in the hill climber.
      accept = candidate_feasible ||
               candidate.energy_kwh < current_obj.energy_kwh;
    } else if (!candidate_feasible) {
      accept = false;  // never leave the feasible region
    } else {
      const double delta = candidate.error_sum - current_obj.error_sum;
      accept = delta < 0.0 ||
               rng->UniformDouble() < std::exp(-delta / std::max(temperature, 1e-9));
    }
    if (accept) {
      evaluator.ApplyFlips(&current, flips);
      current_obj = candidate;
      current_feasible = candidate_feasible;
      const bool better_than_best =
          (current_feasible && !outcome.feasible) ||
          (current_feasible == outcome.feasible &&
           current_obj.error_sum < outcome.objectives.error_sum);
      if (better_than_best) {
        outcome.solution = current;
        outcome.objectives = current_obj;
        outcome.feasible = current_feasible;
      }
    }
    temperature *= options_.cooling;
    ++outcome.iterations;
  }

  if (!outcome.feasible) {
    Solution zeros(static_cast<size_t>(n));
    const Objectives zero_obj = evaluator.Evaluate(zeros);
    if (zero_obj.energy_kwh < outcome.objectives.energy_kwh) {
      outcome.solution = zeros;
      outcome.objectives = zero_obj;
      outcome.feasible = zero_obj.FeasibleUnder(budget);
    }
  }
  return outcome;
}

}  // namespace core
}  // namespace imcf
