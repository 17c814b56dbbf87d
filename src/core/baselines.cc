#include "core/baselines.h"

namespace imcf {
namespace core {

PlanOutcome NoRulePlanner::PlanSlot(const SlotEvaluator& evaluator,
                                    Rng* rng) const {
  (void)rng;
  const SlotProblem& problem = evaluator.problem();
  PlanOutcome outcome;
  outcome.solution = Solution(static_cast<size_t>(problem.n_rules));
  outcome.objectives = evaluator.NoRuleObjectives();
  outcome.feasible = outcome.objectives.FeasibleUnder(problem.budget_kwh);
  return outcome;
}

PlanOutcome MetaRulePlanner::PlanSlot(const SlotEvaluator& evaluator,
                                      Rng* rng) const {
  (void)rng;
  const SlotProblem& problem = evaluator.problem();
  PlanOutcome outcome;
  outcome.solution = Solution(static_cast<size_t>(problem.n_rules), 1);
  outcome.objectives = evaluator.AllRulesObjectives();
  outcome.feasible = outcome.objectives.FeasibleUnder(problem.budget_kwh);
  return outcome;
}

}  // namespace core
}  // namespace imcf
