// Simulated-annealing planner.
//
// The paper notes that "any heuristic or meta-heuristic approach can be
// utilized in the EP optimization step" and names simulated annealing as
// the other stochastic informed-search option (§IV-C). This planner is that
// extension: identical solution representation, constraint handling and
// neighbourhood as the hill climber, but worse-convenience candidates are
// accepted with probability exp(-Δ/T) under a geometric cooling schedule —
// useful when conflicting rule groups create local optima the climber
// cannot leave. Compared in bench_ablation_search.

#ifndef IMCF_CORE_ANNEALER_H_
#define IMCF_CORE_ANNEALER_H_

#include "core/planner.h"
#include "core/solution.h"

namespace imcf {
namespace core {

/// Annealer parameters.
struct SaOptions {
  int k = 2;             ///< components flipped per move
  int tau_max = 0;       ///< iterations; 0 selects max(40, 2·N)
  InitStrategy init = InitStrategy::kAllOnes;
  double initial_temperature = 0.5;  ///< in normalised-error units
  double cooling = 0.95;             ///< geometric decay per iteration
};

/// Simulated-annealing Energy Planner.
class SimulatedAnnealingPlanner : public SlotPlanner {
 public:
  explicit SimulatedAnnealingPlanner(SaOptions options = {});

  PlanOutcome PlanSlot(const SlotEvaluator& evaluator,
                       Rng* rng) const override;

  std::string name() const override { return "SA"; }

  const SaOptions& options() const { return options_; }

 private:
  SaOptions options_;
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_ANNEALER_H_
