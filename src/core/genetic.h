// Genetic-algorithm planner.
//
// A third instantiation of the paper's claim that "any heuristic or
// meta-heuristic approach can be utilized in the EP optimization step": a
// small steady-state GA over adoption vectors — tournament selection,
// uniform crossover, bit-flip mutation, elitism — with the same constraint
// handling as the other planners (feasible-first ranking, greedy repair of
// infeasible elites). Population-based search pays off when device groups
// couple many rules; compared in bench_ablation_search.

#ifndef IMCF_CORE_GENETIC_H_
#define IMCF_CORE_GENETIC_H_

#include "core/planner.h"
#include "core/solution.h"

namespace imcf {
namespace core {

/// GA parameters. Generations derive from tau_max so the evaluation budget
/// is comparable to the climber's: generations = tau_max / population.
struct GaOptions {
  int population = 16;
  int tau_max = 0;            ///< candidate evaluations; 0 = max(240, 4·N)
  double crossover_rate = 0.9;
  double mutation_rate = 0.0; ///< per-bit; 0 selects 1/N
  int tournament = 3;
  InitStrategy seed_member = InitStrategy::kAllOnes;  ///< one seeded elite
};

/// Steady-state genetic planner.
class GeneticPlanner : public SlotPlanner {
 public:
  explicit GeneticPlanner(GaOptions options = {});

  PlanOutcome PlanSlot(const SlotEvaluator& evaluator,
                       Rng* rng) const override;

  std::string name() const override { return "GA"; }

  const GaOptions& options() const { return options_; }

 private:
  GaOptions options_;
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_GENETIC_H_
