#include "core/genetic.h"

#include <algorithm>

namespace imcf {
namespace core {

namespace {

/// Lexicographic fitness: feasible beats infeasible; then lower error;
/// infeasible members rank by lower energy (distance to the budget).
struct Member {
  Solution solution;
  Objectives objectives;
  bool feasible = false;

  bool BetterThan(const Member& other) const {
    if (feasible != other.feasible) return feasible;
    if (feasible) return objectives.error_sum < other.objectives.error_sum;
    return objectives.energy_kwh < other.objectives.energy_kwh;
  }
};

}  // namespace

GeneticPlanner::GeneticPlanner(GaOptions options) : options_(options) {}

PlanOutcome GeneticPlanner::PlanSlot(const SlotEvaluator& evaluator,
                                     Rng* rng) const {
  const SlotProblem& problem = evaluator.problem();
  const size_t n = static_cast<size_t>(problem.n_rules);
  const double budget = problem.budget_kwh;
  const int tau_max = options_.tau_max > 0
                          ? options_.tau_max
                          : std::max(240, 4 * problem.n_rules);
  const double mutation =
      options_.mutation_rate > 0.0
          ? options_.mutation_rate
          : 1.0 / std::max<size_t>(n, 1);

  auto evaluate = [&](const Solution& s) {
    Member member;
    member.solution = s;
    member.objectives = evaluator.Evaluate(s);
    member.feasible = member.objectives.FeasibleUnder(budget);
    return member;
  };

  // Initial population: one seeded member, the rest random.
  std::vector<Member> population;
  population.reserve(static_cast<size_t>(options_.population));
  population.push_back(
      evaluate(Solution::Init(n, options_.seed_member, rng)));
  for (int i = 1; i < options_.population; ++i) {
    population.push_back(
        evaluate(Solution::Init(n, InitStrategy::kRandom, rng)));
  }
  int evaluations = options_.population;

  auto tournament_pick = [&]() -> const Member& {
    const Member* best = nullptr;
    for (int i = 0; i < options_.tournament; ++i) {
      const Member& candidate = population[static_cast<size_t>(
          rng->UniformInt(0, options_.population - 1))];
      if (best == nullptr || candidate.BetterThan(*best)) best = &candidate;
    }
    return *best;
  };

  while (evaluations < tau_max) {
    // Offspring: crossover of two tournament winners, then mutation.
    const Member& a = tournament_pick();
    const Member& b = tournament_pick();
    Solution child(n);
    if (rng->Bernoulli(options_.crossover_rate)) {
      for (size_t i = 0; i < n; ++i) {
        child.set(i, rng->Bernoulli(0.5) ? a.solution.adopted(i)
                                         : b.solution.adopted(i));
      }
    } else {
      child = a.solution;
    }
    for (size_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(mutation)) child.flip(i);
    }
    Member offspring = evaluate(child);
    ++evaluations;

    // Steady state: replace the worst member if the child beats it.
    size_t worst = 0;
    for (size_t i = 1; i < population.size(); ++i) {
      if (population[worst].BetterThan(population[i])) worst = i;
    }
    if (offspring.BetterThan(population[worst])) {
      population[worst] = std::move(offspring);
    }
  }

  // Elite extraction.
  size_t best = 0;
  for (size_t i = 1; i < population.size(); ++i) {
    if (population[i].BetterThan(population[best])) best = i;
  }
  PlanOutcome outcome;
  outcome.solution = population[best].solution;
  outcome.objectives = population[best].objectives;
  outcome.feasible = population[best].feasible;
  outcome.iterations = evaluations;

  if (!outcome.feasible) {
    // Same last resort as the other planners.
    Solution zeros(n);
    const Objectives zero_obj = evaluator.Evaluate(zeros);
    if (zero_obj.FeasibleUnder(budget)) {
      outcome.solution = zeros;
      outcome.objectives = zero_obj;
      outcome.feasible = true;
    }
  }
  return outcome;
}

}  // namespace core
}  // namespace imcf
